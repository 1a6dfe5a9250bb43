"""Property tests for the incremental envelope index (dirty-tape path).

The `EnvelopeIndex` maintains the computer's candidate rows across
pending-list mutations instead of rebuilding them per compute.  These
tests drive random arrival/removal/requeue interleavings — across tape
counts, replication degrees, and shrink on/off — and require the
indexed path to be *bit-identical* to the full rebuild: same
``EnvelopeState`` (envelope floats, assignment, counts) and the same
``MajorDecision`` order out of the scheduler.
"""

import random
from dataclasses import dataclass
from typing import List, Optional

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    HAVE_HYPOTHESIS = False

from repro.core import PendingList, SchedulerContext
from repro.core.envelope import (
    EnvelopeComputer,
    EnvelopeIndex,
    EnvelopeScheduler,
    EnvelopeState,
)
from repro.core.policies import MaxRequests
from repro.layout.catalog import BlockCatalog, Replica
from repro.tape import Jukebox
from repro.tape.timing import EXB_8505XL
from repro.workload.requests import Request


def build_catalog(
    rng: random.Random, tape_count: int, n_blocks: int, degree
) -> BlockCatalog:
    """Blocks with ``degree`` copies (or 1-3 when "mixed") per block.

    Positions are small integers so distinct blocks frequently collide
    on the same position — the duplicate-position arithmetic in the
    extension search must handle that identically on both paths.
    """
    replicas_by_block = []
    for _ in range(n_blocks):
        copies = rng.choice([1, 1, 2, 2, 3]) if degree == "mixed" else degree
        tapes = rng.sample(range(tape_count), min(copies, tape_count))
        replicas_by_block.append(
            [Replica(tape_id, float(rng.randrange(0, 200))) for tape_id in tapes]
        )
    return BlockCatalog(block_mb=1.0, n_hot=0, replicas_by_block=replicas_by_block)


def states_equal(left: EnvelopeState, right: EnvelopeState) -> bool:
    return (
        left.envelope == right.envelope
        and left.assignment == right.assignment
        and left.scheduled_count == right.scheduled_count
    )


@dataclass
class _Interleaver:
    """Applies one random op stream to a pending list."""

    rng: random.Random
    catalog: BlockCatalog
    n_blocks: int

    def __post_init__(self):
        self.next_id = 0
        self.removed: List[Request] = []

    def fresh_request(self) -> Request:
        request = Request(
            request_id=self.next_id,
            block_id=self.rng.randrange(self.n_blocks),
            arrival_s=float(self.next_id),
        )
        self.next_id += 1
        return request

    def step(self, pending: PendingList) -> None:
        roll = self.rng.random()
        if roll < 0.45 or len(pending) == 0:
            pending.append(self.fresh_request())
        elif roll < 0.75:
            live = pending.snapshot()
            count = self.rng.randrange(1, min(len(live), 5) + 1)
            victims = self.rng.sample(live, count)
            pending.remove_many(victims)
            self.removed.extend(victims)
        elif self.removed:
            # Fault-style requeue: a previously removed id reappears,
            # exercising the index's tombstone-clear path.
            pending.append(self.removed.pop(self.rng.randrange(len(self.removed))))
        else:
            pending.append(self.fresh_request())


MATRIX = [
    # (tape_count, n_blocks, degree, shrink)
    (2, 12, 1, True),
    (4, 30, 2, True),
    (8, 60, 3, False),
    (6, 40, "mixed", True),
]


def _run_interleaving(seed, tape_count, n_blocks, degree, shrink, steps=60):
    rng = random.Random(seed)
    catalog = build_catalog(rng, tape_count, n_blocks, degree)
    pending = PendingList(catalog)
    index = EnvelopeIndex(pending)
    assert index.enabled
    driver = _Interleaver(rng=rng, catalog=catalog, n_blocks=n_blocks)
    compared = 0
    for step in range(steps):
        driver.step(pending)
        if step % 7 != 6 and step != steps - 1:
            continue
        snapshot = pending.snapshot()
        if not snapshot:
            continue
        mounted = rng.choice([None] + list(range(tape_count)))
        head_mb = float(rng.randrange(0, 150)) if mounted is not None else 0.0
        kwargs = dict(
            timing=EXB_8505XL,
            catalog=catalog,
            tape_count=tape_count,
            mounted_id=mounted,
            head_mb=head_mb,
            enable_shrink=shrink,
        )
        indexed = EnvelopeComputer(**kwargs).compute(snapshot, index=index)
        full = EnvelopeComputer(**kwargs).compute(list(snapshot))
        assert states_equal(indexed, full)
        compared += 1
    assert compared >= 2


if HAVE_HYPOTHESIS:

    @pytest.mark.parametrize("tape_count,n_blocks,degree,shrink", MATRIX)
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_random_interleavings_bit_identical(
        tape_count, n_blocks, degree, shrink, seed
    ):
        _run_interleaving(seed, tape_count, n_blocks, degree, shrink)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("tape_count,n_blocks,degree,shrink", MATRIX)
    @pytest.mark.parametrize("seed", [3, 17, 40001])
    def test_random_interleavings_bit_identical(
        tape_count, n_blocks, degree, shrink, seed
    ):
        _run_interleaving(seed, tape_count, n_blocks, degree, shrink)


# ----------------------------------------------------------------------
# Scheduler-level: identical MajorDecision order, indexed vs full path.
# ----------------------------------------------------------------------
class _PlainPending(PendingList):
    """A pending list the scheduler cannot index (no listener hook)."""

    add_listener = None


def _decision_key(decision) -> Optional[tuple]:
    if decision is None:
        return None
    return (
        decision.tape_id,
        tuple(
            (entry.position_mb, entry.block_id,
             tuple(request.request_id for request in entry.requests))
            for entry in decision.entries
        ),
    )


def _context(catalog, tape_count, pending) -> SchedulerContext:
    jukebox = Jukebox.build(tape_count=tape_count)
    return SchedulerContext(jukebox=jukebox, catalog=catalog, pending=pending)


@pytest.mark.parametrize("seed", [5, 29, 7331])
@pytest.mark.parametrize("shrink", [True, False])
def test_scheduler_decision_order_matches_full_path(seed, shrink):
    """Indexed and index-less schedulers emit identical decision streams."""
    tape_count, n_blocks = 6, 50
    rng = random.Random(seed)
    catalog = build_catalog(rng, tape_count, n_blocks, "mixed")

    indexed_ctx = _context(catalog, tape_count, PendingList(catalog))
    plain_ctx = _context(catalog, tape_count, _PlainPending(catalog))
    indexed = EnvelopeScheduler(MaxRequests(), enable_shrink=shrink)
    plain = EnvelopeScheduler(MaxRequests(), enable_shrink=shrink)

    driver = _Interleaver(rng=rng, catalog=catalog, n_blocks=n_blocks)
    ops = rng  # alias: one rng drives both sides identically
    decisions = 0
    for _ in range(80):
        if ops.random() < 0.6 or len(indexed_ctx.pending) == 0:
            request = driver.fresh_request()
            # service=None: on_arrival defers to the pending list on
            # both sides (the same path a mid-sweep deferral takes).
            assert not indexed.on_arrival(indexed_ctx, request)
            assert not plain.on_arrival(plain_ctx, request)
        else:
            left = indexed.major_reschedule(indexed_ctx)
            right = plain.major_reschedule(plain_ctx)
            assert _decision_key(left) == _decision_key(right)
            if left is not None:
                decisions += 1
                # Mount the chosen tape so the next compute sees the
                # same (mounted, head) base on both sides.
                indexed_ctx.jukebox.switch_to(left.tape_id)
                plain_ctx.jukebox.switch_to(right.tape_id)
    # Drain whatever is left so the run ends on a decision comparison.
    while len(indexed_ctx.pending):
        left = indexed.major_reschedule(indexed_ctx)
        right = plain.major_reschedule(plain_ctx)
        assert _decision_key(left) == _decision_key(right)
        decisions += 1
    assert decisions >= 3
    assert indexed._index is not None, "indexed scheduler never built its index"
    assert plain._index is None


# ----------------------------------------------------------------------
# EnvelopeIndex unit behavior: requeue, compaction, fallback, disable.
# ----------------------------------------------------------------------
def test_requeued_request_restores_tombstoned_rows():
    rng = random.Random(13)
    catalog = build_catalog(rng, 4, 20, 2)
    pending = PendingList(catalog)
    index = EnvelopeIndex(pending)
    requests = [
        Request(request_id=i, block_id=i % 20, arrival_s=float(i)) for i in range(12)
    ]
    for request in requests:
        pending.append(request)
    pending.remove_many(requests[3:6])
    assert index.live_count == 9
    pending.append(requests[4])  # fault requeue: same id comes back
    assert index.live_count == 10
    snapshot = pending.snapshot()
    kwargs = dict(
        timing=EXB_8505XL, catalog=catalog, tape_count=4, mounted_id=1, head_mb=25.0
    )
    indexed = EnvelopeComputer(**kwargs).compute(snapshot, index=index)
    full = EnvelopeComputer(**kwargs).compute(list(snapshot))
    assert states_equal(indexed, full)


def test_compaction_rebuilds_and_stays_equivalent():
    rng = random.Random(31)
    n_blocks = 300
    catalog = build_catalog(rng, 5, n_blocks, 3)
    pending = PendingList(catalog)
    index = EnvelopeIndex(pending)
    requests = [
        Request(request_id=i, block_id=i % n_blocks, arrival_s=float(i))
        for i in range(260)
    ]
    for request in requests:
        pending.append(request)
    # Remove enough that dead rows (~720) clear the floor and outnumber
    # the live remainder, forcing a compaction on the next refresh.
    pending.remove_many(requests[:240])
    snapshot = pending.snapshot()
    kwargs = dict(
        timing=EXB_8505XL, catalog=catalog, tape_count=5, mounted_id=None, head_mb=0.0
    )
    indexed = EnvelopeComputer(**kwargs).compute(snapshot, index=index)
    assert index.compactions == 1
    full = EnvelopeComputer(**kwargs).compute(list(snapshot))
    assert states_equal(indexed, full)
    # The index remains live after compacting.
    pending.append(Request(request_id=9001, block_id=0, arrival_s=999.0))
    snapshot = pending.snapshot()
    indexed = EnvelopeComputer(**kwargs).compute(snapshot, index=index)
    full = EnvelopeComputer(**kwargs).compute(list(snapshot))
    assert states_equal(indexed, full)


def test_stale_index_falls_back_to_full_rebuild():
    """A snapshot the index does not cover must not poison the result."""
    rng = random.Random(47)
    catalog = build_catalog(rng, 3, 15, 2)
    pending = PendingList(catalog)
    index = EnvelopeIndex(pending)
    for i in range(8):
        pending.append(Request(request_id=i, block_id=i % 15, arrival_s=float(i)))
    # Hand the computer a *different* request set than the index tracks:
    # live_count mismatch must route through the full rebuild.
    foreign = [
        Request(request_id=100 + i, block_id=i % 15, arrival_s=float(i))
        for i in range(5)
    ]
    kwargs = dict(
        timing=EXB_8505XL, catalog=catalog, tape_count=3, mounted_id=0, head_mb=10.0
    )
    via_index_arg = EnvelopeComputer(**kwargs).compute(foreign, index=index)
    full = EnvelopeComputer(**kwargs).compute(list(foreign))
    assert states_equal(via_index_arg, full)


def test_dynamic_catalog_disables_the_index():
    rng = random.Random(53)
    catalog = build_catalog(rng, 3, 10, 2)

    class Masked:
        dynamic_replicas = True

        def __init__(self, inner):
            self._inner = inner
            self.block_mb = inner.block_mb

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def add_mask_listener(self, listener):
            pass

    masked = Masked(catalog)
    pending = PendingList(masked)
    index = EnvelopeIndex(pending)
    assert not index.enabled
    # A disabled index never subscribes, so mutations cost nothing.
    pending.append(Request(request_id=0, block_id=0, arrival_s=0.0))
    assert index.live_count == 0
