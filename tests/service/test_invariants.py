"""Cross-cutting simulator invariants, property-tested across the whole
scheduler / layout / replication / skew parameter space."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import make_scheduler, scheduler_names
from repro.des import Environment
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.service import JukeboxSimulator, MetricsCollector
from repro.tape import Jukebox
from repro.workload import ClosedSource, HotColdSkew

TAPES = 10
CAPACITY = 7 * 1024.0
BLOCK = 16.0


def run_instrumented(scheduler_name, layout, replicas, start_position, skew, seed,
                     queue_length=15, horizon=12_000.0):
    """Run a short simulation recording every physical read and completion."""
    spec = PlacementSpec(
        layout=layout,
        percent_hot=10,
        replicas=replicas,
        start_position=start_position,
        block_mb=BLOCK,
    )
    catalog = build_catalog(spec, TAPES, CAPACITY)
    jukebox = Jukebox.build(tape_count=TAPES)
    source = ClosedSource(
        queue_length, HotColdSkew(skew), catalog, random.Random(seed)
    )
    metrics = MetricsCollector(block_mb=BLOCK)
    simulator = JukeboxSimulator(
        env=Environment(),
        jukebox=jukebox,
        catalog=catalog,
        scheduler=make_scheduler(scheduler_name),
        source=source,
        metrics=metrics,
    )

    reads = []
    original_access = jukebox.access

    def recording_access(position_mb, size_mb):
        reads.append((jukebox.mounted_id, position_mb, size_mb))
        return original_access(position_mb, size_mb)

    jukebox.access = recording_access

    completions = []
    original_completion = metrics.on_completion

    def recording_completion(request, now, **kwargs):
        completions.append((request, now))
        original_completion(request, now, **kwargs)

    metrics.on_completion = recording_completion

    report = simulator.run(horizon)
    return catalog, simulator, report, reads, completions


SCHEDULERS = st.sampled_from(sorted(scheduler_names()))


@settings(max_examples=20, deadline=None)
@given(
    scheduler_name=SCHEDULERS,
    layout=st.sampled_from([Layout.HORIZONTAL, Layout.VERTICAL]),
    replicas=st.sampled_from([0, 2, 9]),
    start_position=st.sampled_from([0.0, 1.0]),
    skew=st.sampled_from([20.0, 60.0]),
    seed=st.integers(min_value=0, max_value=999),
)
def test_simulation_invariants(scheduler_name, layout, replicas, start_position, skew, seed):
    catalog, simulator, report, reads, completions = run_instrumented(
        scheduler_name, layout, replicas, start_position, skew, seed
    )

    # 1. Every physical read hits a real replica extent of some block.
    for tape_id, position, size in reads:
        assert size == BLOCK
        contents = dict(catalog.tape_contents(tape_id))
        assert position in contents, (
            f"{scheduler_name} read {position} on tape {tape_id}, "
            "which holds no block there"
        )

    # 2. No request completes twice; completions are time-ordered.
    seen_ids = [request.request_id for request, _now in completions]
    assert len(seen_ids) == len(set(seen_ids))
    times = [now for _request, now in completions]
    assert times == sorted(times)

    # 3. Responses are non-negative and block ids valid.
    for request, now in completions:
        assert request.completion_s == now
        assert request.response_s >= 0
        assert 0 <= request.block_id < catalog.n_blocks

    # 4. Closed-queue conservation: outstanding stays at queue length.
    assert report.mean_queue_length == pytest.approx(15.0, abs=1e-6)
    assert report.arrivals == report.total_completed + 15

    # 5. Pending + in-service account for every outstanding request.
    outstanding = len(simulator.pending)
    service = simulator.contexts[0].service
    if service is not None:
        for entry in service.remaining():
            outstanding += len(entry.requests)
        if service.in_flight is not None:
            outstanding += len(service.in_flight.requests)
    assert outstanding == 15

    # 6. Progress: something completed within the horizon.
    assert report.total_completed > 0


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=99))
def test_completed_request_was_served_from_replica_of_its_block(seed):
    """Stronger fidelity check for the envelope scheduler: the read that
    completes a request must be at a replica position of that block."""
    catalog, simulator, report, reads, completions = run_instrumented(
        "envelope-max-bandwidth", Layout.VERTICAL, 9, 1.0, 60.0, seed
    )
    read_extents = set()
    for tape_id, position, _size in reads:
        read_extents.add((tape_id, position))
    for request, _now in completions:
        replicas = {
            (replica.tape_id, replica.position_mb)
            for replica in catalog.replicas_of(request.block_id)
        }
        assert replicas & read_extents, (
            f"request for block {request.block_id} completed but no replica "
            "of it was ever read"
        )
