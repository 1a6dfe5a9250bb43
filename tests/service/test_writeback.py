"""Tests for delta-file write-back (piggybacked and idle-time writes)."""

import random

import pytest

from repro.core import make_scheduler
from repro.des import Environment
from repro.faults import FaultConfig, FaultInjector
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.obs import Tracer
from repro.service import MetricsCollector
from repro.service.writeback import DeltaBuffer, WritebackSimulator
from repro.tape import Jukebox
from repro.workload import ClosedSource, HotColdSkew, OpenSource

BLOCK = 16.0
CAPACITY = 7 * 1024.0


@pytest.fixture
def catalog():
    return build_catalog(PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, CAPACITY)


@pytest.fixture
def replicated_catalog():
    spec = PlacementSpec(
        layout=Layout.VERTICAL, percent_hot=10, replicas=9,
        start_position=1.0, block_mb=BLOCK,
    )
    return build_catalog(spec, 10, CAPACITY)


def make_writeback(catalog, queue_length=None, interarrival=None,
                   write_interarrival=None, scheduler="dynamic-max-bandwidth",
                   seed=5, **kwargs):
    skew = HotColdSkew(40.0)
    rng = random.Random(seed)
    if queue_length is not None:
        source = ClosedSource(queue_length, skew, catalog, rng)
    else:
        source = OpenSource(interarrival, skew, catalog, rng)
    return WritebackSimulator(
        env=Environment(),
        jukebox=Jukebox.build(),
        catalog=catalog,
        scheduler=make_scheduler(scheduler),
        source=source,
        metrics=MetricsCollector(block_mb=BLOCK),
        write_interarrival_s=write_interarrival,
        write_rng=random.Random(seed + 1) if write_interarrival else None,
        **kwargs,
    )


class TestDeltaBuffer:
    def test_stage_expands_to_all_replicas(self, replicated_catalog):
        buffer = DeltaBuffer(catalog=replicated_catalog)
        hot_block = 0
        copies = buffer.stage(hot_block, now=0.0)
        assert copies == 10
        assert len(buffer) == 10

    def test_restaging_coalesces(self, catalog):
        buffer = DeltaBuffer(catalog=catalog)
        buffer.stage(5, now=0.0)
        buffer.stage(5, now=10.0)
        assert len(buffer) == 1
        assert buffer.staged_total == 2

    def test_items_for_tape_sorted(self, catalog):
        buffer = DeltaBuffer(catalog=catalog)
        for block_id in range(40):
            buffer.stage(block_id, now=0.0)
        for tape_id in range(10):
            items = buffer.items_for_tape(tape_id)
            positions = [item.position_mb for item in items]
            assert positions == sorted(positions)

    def test_complete_records_latency(self, catalog):
        buffer = DeltaBuffer(catalog=catalog)
        buffer.stage(1, now=100.0)
        item = buffer.items_for_tape(
            catalog.replicas_of(1)[0].tape_id
        )[0]
        buffer.complete(item, now=250.0)
        assert len(buffer) == 0
        assert buffer.written_total == 1
        assert buffer.write_latency.mean == pytest.approx(150.0)

    def test_backlog_by_tape(self, catalog):
        buffer = DeltaBuffer(catalog=catalog)
        buffer.stage(0, now=0.0)
        tape_id = catalog.replicas_of(0)[0].tape_id
        assert buffer.backlog_by_tape() == {tape_id: 1}


class TestWritebackSimulation:
    def test_requires_rng_with_write_stream(self, catalog):
        with pytest.raises(ValueError):
            WritebackSimulator(
                env=Environment(),
                jukebox=Jukebox.build(),
                catalog=catalog,
                scheduler=make_scheduler("dynamic-max-bandwidth"),
                source=ClosedSource(10, HotColdSkew(40.0), catalog, random.Random(1)),
                metrics=MetricsCollector(block_mb=BLOCK),
                write_interarrival_s=100.0,
            )

    def test_piggybacked_writes_harden(self, catalog):
        simulator = make_writeback(
            catalog, queue_length=40, write_interarrival=120.0
        )
        simulator.run(40_000.0)
        assert simulator.delta.written_total > 50
        assert simulator.piggybacked_writes > 0
        assert simulator.delta.write_latency.mean > 0

    def test_idle_flush_in_open_model(self, catalog):
        """A lightly loaded open system hardens writes during idle time."""
        simulator = make_writeback(
            catalog, interarrival=2_000.0, write_interarrival=150.0
        )
        simulator.run(40_000.0)
        assert simulator.idle_flush_sweeps > 0
        assert simulator.delta.written_total > 0
        # Backlog stays bounded: the buffer does not grow with the run.
        assert len(simulator.delta) < 60

    def test_rejects_fault_injection(self, catalog):
        with pytest.raises(ValueError, match="without fault injection"):
            make_writeback(
                catalog,
                queue_length=10,
                faults=FaultInjector(FaultConfig(media_error_rate=0.05), catalog),
            )

    def test_batch_scheduler_runs_its_plan_for_every_decision(self, catalog):
        """Read and flush sweeps alike are built by the scheduler, so a
        batch family executes its planned order."""
        simulator = make_writeback(
            catalog, interarrival=2_000.0, write_interarrival=150.0,
            scheduler="exact-batch",
        )
        scheduler = simulator.schedulers[0]
        counts = {"reschedules": 0, "built": 0}
        reschedule = scheduler.major_reschedule
        build = scheduler.build_service_list

        def counted_reschedule(context):
            decision = reschedule(context)
            counts["reschedules"] += decision is not None
            return decision

        def counted_build(entries, head_mb):
            counts["built"] += 1
            return build(entries, head_mb=head_mb)

        scheduler.major_reschedule = counted_reschedule
        scheduler.build_service_list = counted_build
        simulator.run(40_000.0)
        assert simulator.idle_flush_sweeps > 0
        assert counts["reschedules"] > 0
        assert counts["built"] == counts["reschedules"] + simulator.idle_flush_sweeps

    def test_traced_closed_loop_keeps_its_population(self, catalog):
        tracer = Tracer()
        simulator = make_writeback(
            catalog, queue_length=30, write_interarrival=200.0, obs=tracer
        )
        simulator.run(30_000.0)
        assert simulator.delta.written_total > 0
        assert len(tracer.open_traces()) == 30

    def test_reads_unharmed_by_moderate_writes(self, catalog):
        """Piggybacking rides existing positioning: read throughput drops
        only modestly under a moderate write load."""
        without = make_writeback(catalog, queue_length=60)
        base = without.run(60_000.0)
        with_writes = make_writeback(
            catalog, queue_length=60, write_interarrival=300.0
        )
        loaded = with_writes.run(60_000.0)
        assert loaded.throughput_kb_s > 0.85 * base.throughput_kb_s

    def test_replicated_writes_update_every_copy(self, replicated_catalog):
        simulator = make_writeback(
            replicated_catalog, queue_length=40, write_interarrival=400.0
        )
        simulator.run(60_000.0)
        # Every staged hot write expands to 10 copies; completions must be
        # a multiple of the per-copy accounting, with nothing lost.
        assert simulator.delta.written_total > 0
        assert (
            simulator.delta.written_total + len(simulator.delta)
            >= simulator.delta.staged_total
        )

    def test_closed_read_metrics_still_conserved(self, catalog):
        simulator = make_writeback(
            catalog, queue_length=30, write_interarrival=200.0
        )
        report = simulator.run(30_000.0)
        assert report.mean_queue_length == pytest.approx(30.0, abs=1e-6)
        assert report.arrivals == report.total_completed + 30
