"""The optimized EnvelopeComputer makes the same decisions, provably.

The production computer (presorted per-tape candidate rows, bisect
prefix skip, cached replica lookups, shared rank tables) must produce an
:class:`EnvelopeState` identical — envelope, assignment, and per-tape
counts — to the original per-request scan-and-sort implementation, which
is preserved below as the reference oracle.  Randomized catalogs and
request mixes sweep mounted/unmounted heads, replication degrees, and
shrink on/off, on both step-3 paths: the flattened-constants search and
the tracker-based scan that non-standard timing models take.
"""

import random
from dataclasses import fields
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.cost import ExtensionCostTracker, MethodKernel, pricing_kernel
from repro.core.envelope import EnvelopeComputer, EnvelopeState
from repro.core.policies import jukebox_order
from repro.layout.catalog import BlockCatalog, Replica
from repro.tape.timing import EXB_8505XL, DriveTimingModel
from repro.workload.requests import Request


class ReferenceEnvelopeComputer:
    """The original (pre-optimization) implementation, verbatim."""

    def __init__(
        self,
        timing,
        catalog,
        tape_count,
        mounted_id,
        head_mb,
        enable_shrink=True,
    ):
        self._timing = timing
        self._catalog = catalog
        self._tape_count = tape_count
        self._mounted_id = mounted_id
        self._head_mb = head_mb
        self._block_mb = catalog.block_mb
        self._enable_shrink = enable_shrink

    def _rank_after_mounted(self):
        anchor = self._mounted_id if self._mounted_id is not None else -1
        return {
            tape_id: rank
            for rank, tape_id in enumerate(jukebox_order(self._tape_count, anchor + 1))
        }

    def _inside(self, replica, state):
        return replica.position_mb + self._block_mb <= state.envelope.get(
            replica.tape_id, 0.0
        )

    def _choose_absorption_replica(self, candidates, state, rank):
        for replica in candidates:
            if replica.tape_id == self._mounted_id:
                return replica
        return max(
            candidates,
            key=lambda replica: (
                state.scheduled_count.get(replica.tape_id, 0),
                -rank[replica.tape_id],
            ),
        )

    def compute(self, requests):
        self._request_index = {request.request_id: request for request in requests}
        state = EnvelopeState(
            envelope={tape_id: 0.0 for tape_id in range(self._tape_count)}
        )
        rank = self._rank_after_mounted()
        block_mb = self._block_mb

        for request in requests:
            replicas = self._catalog.replicas_of(request.block_id)
            if len(replicas) == 1:
                replica = replicas[0]
                end = replica.position_mb + block_mb
                if end > state.envelope[replica.tape_id]:
                    state.envelope[replica.tape_id] = end
        if self._mounted_id is not None:
            state.envelope[self._mounted_id] = max(
                state.envelope[self._mounted_id], self._head_mb
            )

        unscheduled = []
        for request in requests:
            candidates = [
                replica
                for replica in self._catalog.replicas_of(request.block_id)
                if self._inside(replica, state)
            ]
            if candidates:
                state.assign(
                    request, self._choose_absorption_replica(candidates, state, rank)
                )
            else:
                unscheduled.append(request)

        while unscheduled:
            still_outside = []
            for request in unscheduled:
                candidates = [
                    replica
                    for replica in self._catalog.replicas_of(request.block_id)
                    if self._inside(replica, state)
                ]
                if candidates:
                    state.assign(
                        request,
                        self._choose_absorption_replica(candidates, state, rank),
                    )
                else:
                    still_outside.append(request)
            unscheduled = still_outside
            if not unscheduled:
                break

            chosen = self._best_extension(unscheduled, state, rank)
            if chosen is None:
                raise RuntimeError("unscheduled requests with no extension candidates")
            tape_id, prefix = chosen

            old_envelope = state.envelope[tape_id]
            state.envelope[tape_id] = prefix[-1][0] + block_mb
            prefix_ids = set()
            for position, request in prefix:
                state.assign(request, Replica(tape_id, position))
                prefix_ids.add(request.request_id)
            unscheduled = [
                request
                for request in unscheduled
                if request.request_id not in prefix_ids
            ]

            if self._enable_shrink:
                self._shrink(state, tape_id, old_envelope, rank)

        return state

    def _best_extension(self, unscheduled, state, rank):
        best_key = None
        best = None
        for tape_id in range(self._tape_count):
            envelope = state.envelope[tape_id]
            extension = []
            for request in unscheduled:
                if not self._catalog.has_replica_on(request.block_id, tape_id):
                    continue
                replica = self._catalog.replica_on(request.block_id, tape_id)
                if replica.position_mb >= envelope:
                    extension.append((replica.position_mb, request))
            if not extension:
                continue
            extension.sort(key=lambda pair: (pair[0], pair[1].request_id))
            charge_switch = envelope == 0.0 and tape_id != self._mounted_id
            tracker = ExtensionCostTracker(
                self._timing, envelope, self._block_mb, charge_switch
            )
            for length in range(1, len(extension) + 1):
                position = extension[length - 1][0]
                if length >= 2 and position == extension[length - 2][0]:
                    pass
                else:
                    tracker.extend(position)
                bandwidth = tracker.prefix_bandwidth()
                key = (
                    bandwidth,
                    state.scheduled_count.get(tape_id, 0),
                    -rank[tape_id],
                )
                if best_key is None or key > best_key:
                    best_key = key
                    best = (tape_id, extension[:length])
        return best

    def _shrink(self, state, extended_tape, old_envelope, rank):
        block_mb = self._block_mb
        new_envelope = state.envelope[extended_tape]
        while True:
            candidates = []
            for request_id, replica in state.assignment.items():
                tape_id = replica.tape_id
                if tape_id == extended_tape:
                    continue
                if replica.position_mb + block_mb != state.envelope.get(tape_id, 0.0):
                    continue
                request = self._request_index.get(request_id)
                if request is None:
                    continue
                if not self._catalog.has_replica_on(request.block_id, extended_tape):
                    continue
                other = self._catalog.replica_on(request.block_id, extended_tape)
                end = other.position_mb + block_mb
                if old_envelope < end <= new_envelope:
                    candidates.append(
                        (
                            state.scheduled_count.get(tape_id, 0),
                            tape_id,
                            rank[tape_id],
                            request,
                            other,
                        )
                    )
            if not candidates:
                return
            candidates.sort(key=lambda item: (item[0], item[1]))
            _count, tape_id, _rank, request, target = candidates[0]
            state.assign(request, target)
            self._recompute_envelope(state, tape_id)

    def _recompute_envelope(self, state, tape_id):
        block_mb = self._block_mb
        floor = self._head_mb if tape_id == self._mounted_id else 0.0
        highest = floor
        for replica in state.assignment.values():
            if replica.tape_id == tape_id:
                highest = max(highest, replica.position_mb + block_mb)
        state.envelope[tape_id] = highest


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
def random_catalog(rng: random.Random, tape_count: int, n_blocks: int) -> BlockCatalog:
    """Blocks with 1..3 copies at distinct integer positions per tape.

    A position already taken on a tape is redrawn, so 1 MB blocks never
    overlap and a catalog without collisions draws what it always drew.
    """
    used: Dict[int, set] = {}
    replicas_by_block = []
    for _ in range(n_blocks):
        degree = rng.choice([1, 1, 2, 2, 3])
        tapes = rng.sample(range(tape_count), min(degree, tape_count))
        replicas = []
        for tape_id in tapes:
            taken = used.setdefault(tape_id, set())
            position = rng.randrange(0, 200)
            while position in taken:
                position = rng.randrange(0, 200)
            taken.add(position)
            replicas.append(Replica(tape_id, float(position)))
        replicas_by_block.append(replicas)
    return BlockCatalog(block_mb=1.0, n_hot=0, replicas_by_block=replicas_by_block)


def assert_positions_distinct(catalog: BlockCatalog) -> None:
    """No two blocks share a position on one tape."""
    seen = set()
    for block_id in range(catalog.n_blocks):
        for replica in catalog.replicas_of(block_id):
            key = (replica.tape_id, replica.position_mb)
            assert key not in seen, f"two blocks at {key}"
            seen.add(key)


def random_requests(rng: random.Random, n_blocks: int, count: int) -> List[Request]:
    return [
        Request(
            request_id=index,
            block_id=rng.randrange(n_blocks),
            arrival_s=float(index),
        )
        for index in range(count)
    ]


def states_equal(left: EnvelopeState, right: EnvelopeState) -> bool:
    return (
        left.envelope == right.envelope
        and left.assignment == right.assignment
        and left.scheduled_count == right.scheduled_count
    )


SCENARIOS = [
    # (seed, tape_count, n_blocks, n_requests, mounted, head_mb, shrink)
    (1, 4, 30, 20, None, 0.0, True),
    (2, 4, 30, 20, 0, 50.0, True),
    (3, 8, 80, 60, 3, 120.0, True),
    (4, 8, 80, 60, 3, 120.0, False),
    (5, 2, 10, 40, 1, 10.0, True),
    (6, 16, 200, 150, 7, 75.0, True),
    (7, 16, 200, 150, None, 0.0, False),
    (8, 10, 120, 1, 5, 30.0, True),
    (9, 6, 50, 90, 2, 199.0, True),
]


class _TrackedTiming(DriveTimingModel):
    """Same arithmetic as its base; only the exact-type check sees it."""


#: A field-for-field copy of EXB_8505XL that is not exactly a
#: ``DriveTimingModel``, so the computer prices through the method
#: kernel's tracker-based step-3 scan (the path serpentine models use).
TRACKED_EXB_8505XL = _TrackedTiming(
    **{field.name: getattr(EXB_8505XL, field.name) for field in fields(EXB_8505XL)}
)

#: Every scenario on both step-3 paths; the flattened-constants cases
#: keep the scenario's plain id.
CASES = [
    pytest.param(*scenario, timing, id="-".join(map(str, scenario)) + suffix)
    for scenario in SCENARIOS
    for timing, suffix in ((EXB_8505XL, ""), (TRACKED_EXB_8505XL, "-tracked"))
]


@pytest.mark.parametrize(
    "seed,tape_count,n_blocks,n_requests,mounted,head_mb,shrink,timing", CASES
)
def test_optimized_matches_reference(
    seed, tape_count, n_blocks, n_requests, mounted, head_mb, shrink, timing
):
    tracked = isinstance(pricing_kernel(timing, 1.0), MethodKernel)
    assert tracked == (timing is TRACKED_EXB_8505XL)
    rng = random.Random(seed)
    catalog = random_catalog(rng, tape_count, n_blocks)
    assert_positions_distinct(catalog)
    requests = random_requests(rng, n_blocks, n_requests)
    kwargs = dict(
        timing=timing,
        catalog=catalog,
        tape_count=tape_count,
        mounted_id=mounted,
        head_mb=head_mb,
        enable_shrink=shrink,
    )
    expected = ReferenceEnvelopeComputer(**kwargs).compute(list(requests))
    actual = EnvelopeComputer(**kwargs).compute(requests)
    assert states_equal(expected, actual)


def test_computer_is_reusable_across_calls():
    """Per-compute caches must not leak between compute() calls."""
    rng = random.Random(11)
    catalog = random_catalog(rng, 6, 40)
    assert_positions_distinct(catalog)
    computer = EnvelopeComputer(
        timing=EXB_8505XL,
        catalog=catalog,
        tape_count=6,
        mounted_id=2,
        head_mb=33.0,
    )
    first_requests = random_requests(rng, 40, 25)
    second_requests = random_requests(random.Random(12), 40, 35)
    computer.compute(first_requests)
    actual = computer.compute(second_requests)
    expected = ReferenceEnvelopeComputer(
        timing=EXB_8505XL,
        catalog=catalog,
        tape_count=6,
        mounted_id=2,
        head_mb=33.0,
    ).compute(list(second_requests))
    assert states_equal(expected, actual)


def test_compute_does_not_copy_or_mutate_the_input():
    """Satellite contract: compute() takes the caller's list as-is."""
    rng = random.Random(21)
    catalog = random_catalog(rng, 4, 20)
    assert_positions_distinct(catalog)
    requests = random_requests(rng, 20, 15)
    snapshot = list(requests)
    EnvelopeComputer(
        timing=EXB_8505XL,
        catalog=catalog,
        tape_count=4,
        mounted_id=None,
        head_mb=0.0,
    ).compute(requests)
    assert requests == snapshot
