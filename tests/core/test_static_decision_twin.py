"""The max-bandwidth decision decides as the copying code did, bit for bit.

A static or dynamic major reschedule prices every candidate tape
straight off the pending list's per-tape index (call-free for a plain
``DriveTimingModel``), coalesces the winner's entries from the positions
the index stores, and builds the sweep from one sort.  The code it
replaced is kept below verbatim as the oracle (only class names change
so the two can live side by side): ``_selection_context`` and
``major_reschedule``, the whole pending list with its ``_requests``
arrival order and copying ``candidate_tapes``/``positions_on``, its
claim filter, the fault-masked catalog's constructor,
``MaxBandwidth.select``, ``coalesce_entries`` and
``ServiceList.__init__``.  On generated histories over real NR 0-3
layouts with duplicate requests, mounted, unmounted and mid-tape heads,
every policy in both families and both orderings, a serpentine and a
subclassed model on the method path, other drives' claims, and tapes
failing and copies condemned between decisions (masks empty and not),
both must choose the same tape, build the same entries, leave the same
pending list in the same arrival order, and execute the same sweep.
"""

import dataclasses
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Optional, Set

from hypothesis import given, settings, strategies as st

from repro.core import DynamicScheduler, PendingList, StaticScheduler
from repro.core.base import MajorDecision, SchedulerContext
from repro.core.cost import effective_bandwidth
from repro.core.ordering import NearestNeighborServiceList
from repro.core.policies import (
    POLICIES,
    MaxRequests,
    OldestRequestMaxRequests,
    RoundRobin,
    SelectionContext,
    TapeSelectionPolicy,
    _OldestFirst,
)
from repro.core.sweep import ServiceEntry, ServiceList
from repro.faults import FaultConfig, FaultInjector, FaultMaskedCatalog
from repro.layout import BlockCatalog, Layout, PlacementSpec, build_catalog
from repro.service.multidrive import ClaimFilteredPending
from repro.tape import EXB_8505XL, DriveTimingModel, Jukebox
from repro.tape.serpentine import SerpentineTimingModel
from repro.workload.requests import Request

TAPES = 6
#: Full-length EXB tapes, so locates cost as much as a tape switch.
CAPACITY_MB = 7 * 1024.0


# ----------------------------------------------------------------------
# The replaced code, verbatim
# ----------------------------------------------------------------------
class FrozenPendingList:
    """``PendingList`` before the views: fresh lists, ``_requests`` order."""

    def __init__(self, catalog: BlockCatalog) -> None:
        self._catalog = catalog
        self._requests: List[Request] = []
        self._by_id: Dict[int, Request] = {}
        #: tape_id -> {request_id: request}; insertion order == arrival
        #: order, so dict values enumerate in the order the old linear
        #: scan produced.
        self._by_tape: Dict[int, Dict[int, Request]] = {}
        #: tape_id -> {request_id: position_mb}, keyed and ordered
        #: exactly like ``_by_tape[tape_id]``.
        self._positions: Dict[int, Dict[int, float]] = {}
        #: request_id -> tapes still holding a live indexed copy.
        self._tapes_of: Dict[int, Set[int]] = {}
        #: Ids of pending requests with no live copy left.
        self._lost: Set[int] = set()
        if getattr(catalog, "dynamic_replicas", False):
            subscribe = getattr(catalog, "add_mask_listener", None)
            if subscribe is None:
                raise TypeError(
                    "a catalog with dynamic_replicas must provide "
                    "add_mask_listener so the pending index can follow its masks"
                )
            subscribe(self)

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __contains__(self, request: Request) -> bool:
        return request.request_id in self._by_id

    @property
    def catalog(self) -> BlockCatalog:
        """The block catalog used to resolve candidate tapes."""
        return self._catalog

    def append(self, request: Request) -> None:
        """Add a newly deferred request at the tail (arrival order)."""
        request_id = request.request_id
        if request_id in self._by_id:
            raise ValueError(f"request {request_id} already pending")
        self._requests.append(request)
        self._by_id[request_id] = request
        tapes = self._tapes_of[request_id] = set()
        by_tape = self._by_tape
        positions = self._positions
        for replica in self._catalog.replicas_of(request.block_id):
            tape_id = replica.tape_id
            tapes.add(tape_id)
            bucket = by_tape.get(tape_id)
            if bucket is None:
                bucket = by_tape[tape_id] = {}
                positions[tape_id] = {}
            bucket[request_id] = request
            positions[tape_id][request_id] = replica.position_mb
        if not tapes:
            self._lost.add(request_id)

    def oldest(self) -> Optional[Request]:
        """The request at the head of the list, or ``None`` when empty."""
        return self._requests[0] if self._requests else None

    def requests_for_tape(self, tape_id: int) -> List[Request]:
        """Pending requests with a live replica on ``tape_id`` (arrival order)."""
        bucket = self._by_tape.get(tape_id)
        return list(bucket.values()) if bucket else []

    def positions_on(self, tape_id: int) -> List[float]:
        """Positions of :meth:`requests_for_tape`'s copies, in the same order."""
        bucket = self._positions.get(tape_id)
        return list(bucket.values()) if bucket else []

    def candidate_tapes(self) -> Dict[int, List[Request]]:
        """Map ``tape_id -> pending requests with a live replica there``."""
        return {
            tape_id: list(bucket.values())
            for tape_id, bucket in self._by_tape.items()
            if bucket
        }

    def lost(self) -> List[Request]:
        """Pending requests with no live copy left, in arrival order."""
        lost = self._lost
        if not lost:
            return []
        return [request for request in self._requests if request.request_id in lost]

    def remove_many(self, requests: List[Request]) -> None:
        """Remove ``requests`` (they have been scheduled for service)."""
        removing = {request.request_id for request in requests}
        missing = removing - self._by_id.keys()
        if missing:
            raise KeyError(f"requests not pending: {sorted(missing)}")
        self._requests = [
            request for request in self._requests if request.request_id not in removing
        ]
        by_tape = self._by_tape
        positions = self._positions
        for request_id in removing:
            del self._by_id[request_id]
            for tape_id in self._tapes_of.pop(request_id):
                del by_tape[tape_id][request_id]
                del positions[tape_id][request_id]
        self._lost -= removing

    def snapshot(self) -> List[Request]:
        """Copy of the pending requests in arrival order."""
        return list(self._requests)

    # -- mask listener (fault-masked catalogs) --------------------------
    def on_tape_failed(self, tape_id: int) -> None:
        """Drop every indexed copy on ``tape_id`` (the tape left service)."""
        self._positions.pop(tape_id, None)
        bucket = self._by_tape.pop(tape_id, None)
        if bucket:
            self._hide(tape_id, bucket.values())

    def on_replica_condemned(self, tape_id: int, block_id: int) -> None:
        """Drop the indexed copies of ``block_id`` on ``tape_id``."""
        bucket = self._by_tape.get(tape_id)
        if not bucket:
            return
        hidden = [
            request for request in bucket.values() if request.block_id == block_id
        ]
        positions = self._positions[tape_id]
        for request in hidden:
            del bucket[request.request_id]
            del positions[request.request_id]
        self._hide(tape_id, hidden)

    def _hide(self, tape_id: int, requests: Iterable[Request]) -> None:
        """Unlink ``tape_id`` from ``requests``; record the ones now lost."""
        tapes_of = self._tapes_of
        for request in requests:
            tapes = tapes_of[request.request_id]
            tapes.remove(tape_id)
            if not tapes:
                self._lost.add(request.request_id)


class FrozenClaimFilteredPending(FrozenPendingList):
    """``ClaimFilteredPending`` before the views.

    Schedulers group requests by candidate tape through
    :meth:`candidate_tapes` / :meth:`requests_for_tape`; filtering here
    keeps every scheduler family multi-drive-safe without changes.
    """

    def __init__(self, inner: FrozenPendingList, claims: Dict[int, int], drive_index: int) -> None:
        self._inner = inner
        self._claims = claims
        self._drive_index = drive_index

    def _visible(self, tape_id: int) -> bool:
        owner = self._claims.get(tape_id)
        return owner is None or owner == self._drive_index

    # Delegate the mutating / arrival-ordered interface.
    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        return iter(self._inner)

    def __contains__(self, request: Request) -> bool:
        return request in self._inner

    @property
    def catalog(self) -> BlockCatalog:
        """The shared block catalog."""
        return self._inner.catalog

    def append(self, request: Request) -> None:
        """Defer ``request`` to the shared pending list."""
        self._inner.append(request)

    def remove_many(self, requests: List[Request]) -> None:
        """Remove scheduled requests from the shared pending list."""
        self._inner.remove_many(requests)

    def snapshot(self) -> List[Request]:
        """Arrival-ordered copy of the shared list, claims ignored."""
        return self._inner.snapshot()

    def lost(self) -> List[Request]:
        """Requests with no live copy on any tape, claims ignored."""
        return self._inner.lost()

    # Filtered candidate queries.
    def oldest(self) -> Optional[Request]:
        """Oldest request servable by a tape visible to this drive."""
        for request in self._inner:
            replicas = self.catalog.replicas_of(request.block_id)
            if any(self._visible(replica.tape_id) for replica in replicas):
                return request
        return None

    def requests_for_tape(self, tape_id: int) -> List[Request]:
        """Pending requests on ``tape_id`` if it is visible, else []."""
        if not self._visible(tape_id):
            return []
        return self._inner.requests_for_tape(tape_id)

    def positions_on(self, tape_id: int) -> List[float]:
        """Copy positions on ``tape_id`` if it is visible, else []."""
        if not self._visible(tape_id):
            return []
        return self._inner.positions_on(tape_id)

    def candidate_tapes(self) -> Dict[int, List[Request]]:
        """Per-tape pending requests, excluding other drives' claims."""
        return {
            tape_id: requests
            for tape_id, requests in self._inner.candidate_tapes().items()
            if self._visible(tape_id)
        }


class FrozenFaultMaskedCatalog(FaultMaskedCatalog):
    """``FaultMaskedCatalog`` before the empty-mask pass-through."""

    def __init__(
        self,
        inner: BlockCatalog,
        failed_tapes: Set[int],
        known_bad=None,
        notifier=None,
    ) -> None:
        self._inner = inner
        self._failed = failed_tapes
        self._known_bad = known_bad if known_bad is not None else set()
        #: The owner of the mask sets that announces their growth
        #: (a :class:`~repro.faults.injector.FaultInjector`), if any.
        self._notifier = notifier


def frozen_coalesce_entries(
    requests: List[Request],
    tape_id: int,
    catalog: BlockCatalog,
) -> List[ServiceEntry]:
    by_block: Dict[int, ServiceEntry] = {}
    entries: List[ServiceEntry] = []
    for request in requests:
        entry = by_block.get(request.block_id)
        if entry is None:
            replica = catalog.replica_on(request.block_id, tape_id)
            entry = ServiceEntry(position_mb=replica.position_mb, block_id=request.block_id)
            by_block[request.block_id] = entry
            entries.append(entry)
        entry.attach(request)
    return entries


def _position(entry: ServiceEntry) -> float:
    return entry.position_mb


def _negated_position(entry: ServiceEntry) -> float:
    return -entry.position_mb


class FrozenServiceList(ServiceList):
    """``ServiceList`` with its two-sort constructor."""

    def __init__(self, entries: List[ServiceEntry], head_mb: float) -> None:
        self.start_head_mb = float(head_mb)
        self._forward: List[ServiceEntry] = sorted(
            (entry for entry in entries if entry.position_mb >= head_mb),
            key=_position,
        )
        self._reverse: List[ServiceEntry] = sorted(
            (entry for entry in entries if entry.position_mb < head_mb),
            key=_negated_position,
        )
        self._in_flight: Optional[ServiceEntry] = None
        #: Position of the deepest forward read started (sweep progress).
        self._forward_bound: Optional[float] = None
        #: Position of the deepest reverse read started.
        self._reverse_bound: Optional[float] = None
        self._reverse_started = False
        #: block_id -> not-yet-started entries for that block, maintained
        #: by pop_next/insert.  Schedulers coalesce to one entry per
        #: block, so buckets almost always hold a single entry; the list
        #: keeps hand-built schedules with duplicates working.
        self._by_block: Dict[int, List[ServiceEntry]] = {}
        for entry in self._forward:
            self._by_block.setdefault(entry.block_id, []).append(entry)
        for entry in self._reverse:
            self._by_block.setdefault(entry.block_id, []).append(entry)


class FrozenMaxBandwidth(TapeSelectionPolicy):
    name = "max-bandwidth"

    def select(self, context: SelectionContext) -> Optional[int]:
        timing = context.timing
        block_mb = context.block_mb
        mounted_id = context.mounted_id
        head_mb = context.head_mb
        positions_for = context.positions_for
        # Switching to any unmounted tape rewinds the mounted one from
        # the same head, so the overhead is one figure per decision.
        switch_s = timing.switch_with_rewind(
            head_mb if mounted_id is not None else 0.0
        )
        best: Optional[int] = None
        best_bandwidth = -1.0
        for tape_id in context.tapes_with_requests():
            bandwidth = effective_bandwidth(
                timing,
                positions_for(tape_id),
                block_mb,
                mounted=(tape_id == mounted_id),
                head_mb=head_mb,
                switch_s=switch_s,
            )
            if bandwidth > best_bandwidth:
                best, best_bandwidth = tape_id, bandwidth
        return best


#: The policies as they were: only ``MaxBandwidth.select`` changed.
FROZEN_POLICIES = {
    "round-robin": RoundRobin,
    "max-requests": MaxRequests,
    "max-bandwidth": FrozenMaxBandwidth,
    "oldest-max-requests": OldestRequestMaxRequests,
    "oldest-max-bandwidth": lambda: _OldestFirst(FrozenMaxBandwidth()),
}


class FrozenStaticScheduler(StaticScheduler):
    """The static major rescheduler before it read the index's views."""

    def build_service_list(self, entries, head_mb: float):
        if self._ordering == "nearest":
            return NearestNeighborServiceList(entries, head_mb=head_mb)
        return FrozenServiceList(entries, head_mb=head_mb)

    def _selection_context(self, context: SchedulerContext) -> SelectionContext:
        pending = context.pending
        return SelectionContext(
            timing=context.pricing_timing,
            block_mb=context.block_mb,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            candidates=pending.candidate_tapes(),
            positions_for=pending.positions_on,
            resolve_oldest=pending.oldest,
        )

    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        if len(context.pending) == 0:
            return None
        selection = self._selection_context(context)
        tape_id = self._policy.select(selection)
        if tape_id is None:
            return None
        chosen = selection.candidates[tape_id]
        context.pending.remove_many(chosen)
        entries = frozen_coalesce_entries(chosen, tape_id, context.catalog)
        return MajorDecision(tape_id=tape_id, entries=entries)


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
class _MethodCallTiming(DriveTimingModel):
    """A trivial subclass: every tape is priced through the methods."""


_TIMINGS = (
    EXB_8505XL,
    _MethodCallTiming(
        **{f.name: getattr(EXB_8505XL, f.name) for f in dataclasses.fields(EXB_8505XL)}
    ),
    SerpentineTimingModel(),
)


@lru_cache(maxsize=None)
def _layout(layout: Layout, replicas: int) -> BlockCatalog:
    spec = PlacementSpec(layout=layout, percent_hot=20.0, replicas=replicas)
    return build_catalog(spec, TAPES, CAPACITY_MB)


@st.composite
def histories(draw):
    layout = draw(st.sampled_from([Layout.VERTICAL, Layout.HORIZONTAL]))
    catalog = _layout(layout, draw(st.integers(0, 3), label="replicas"))
    # A handful of blocks makes duplicate requests.
    block = st.one_of(
        st.integers(0, 7),
        st.integers(0, catalog.n_hot - 1),
        st.integers(0, catalog.n_blocks - 1),
    )
    tape = st.integers(0, TAPES - 1)
    op = st.one_of(
        st.tuples(st.just("append"), block),
        st.tuples(st.just("decide"), st.just(0)),
        st.tuples(st.just("requeue"), st.integers(0, 50)),
        st.tuples(st.just("fail"), tape),
        st.tuples(st.just("condemn"), st.tuples(tape, block)),
        st.tuples(st.just("claim"), st.tuples(tape, st.integers(0, 2))),
    )
    initial = draw(st.lists(block, min_size=1, max_size=30), label="pending")
    ops = [("append", block_id) for block_id in initial]
    ops += draw(st.lists(op, max_size=30), label="ops")
    ops += [("decide", 0)] * 2
    head = st.one_of(
        st.just(0.0),
        st.integers(0, int(CAPACITY_MB // catalog.block_mb) - 1).map(
            lambda slot: slot * catalog.block_mb
        ),
        st.floats(0.0, CAPACITY_MB),
    )
    mounted = draw(st.one_of(st.none(), tape), label="mounted")
    head_mb = 0.0 if mounted is None else draw(head, label="head")
    # Extra drive states each decision's policy is also asked about:
    # the n-th candidate tape (or none) mounted, the head anywhere.
    probes = draw(
        st.lists(
            st.tuples(st.one_of(st.none(), st.integers(0, TAPES - 1)), head),
            max_size=8,
        ),
        label="probes",
    )
    return {
        "catalog": catalog,
        "ops": ops,
        "mounted": mounted,
        "head_mb": head_mb,
        "probes": probes,
        "timing": draw(st.sampled_from(_TIMINGS)),
        "policy": draw(st.sampled_from(sorted(POLICIES))),
        "family": draw(st.sampled_from(["static", "dynamic"])),
        "ordering": draw(st.sampled_from(["sweep", "nearest"])),
        "masked": draw(st.booleans(), label="fault-masked catalog"),
        "claims": draw(st.booleans(), label="claim-filtered view"),
    }


def _entries(entries: Iterable[ServiceEntry]):
    return [
        (
            entry.position_mb.hex(),
            entry.block_id,
            [request.request_id for request in entry.requests],
        )
        for entry in entries
    ]


def _probe(case, scheduler, context, view):
    """The scheduler's policy asked about other mounts and heads."""
    tapes = sorted(view.candidate_tapes())
    chosen = []
    for index, head_mb in case["probes"]:
        mounted = None if index is None or not tapes else tapes[index % len(tapes)]
        chosen.append(
            scheduler.policy.select(
                SelectionContext(
                    timing=context.pricing_timing,
                    block_mb=context.block_mb,
                    tape_count=context.tape_count,
                    mounted_id=mounted,
                    head_mb=head_mb if mounted is not None else 0.0,
                    candidates=view.candidate_tapes(),
                    positions_for=view.positions_on,
                    resolve_oldest=view.oldest,
                )
            )
        )
    return chosen


def _observe(decision, scheduler, context, view, pending):
    """The decision, the sweep it executes, and the pending state after."""
    decided = None
    if decision is not None:
        switching = decision.tape_id != context.mounted_id
        service = scheduler.build_service_list(
            decision.entries, head_mb=0.0 if switching else context.head_mb
        )
        executed = []
        while not service.is_empty:
            entry = service.pop_next()
            service.finish_in_flight()
            executed.append((entry.position_mb.hex(), entry.block_id))
        decided = (decision.tape_id, _entries(decision.entries), executed)
    oldest = view.oldest()
    return (
        decided,
        [request.request_id for request in view],
        [request.request_id for request in pending.snapshot()],
        None if oldest is None else oldest.request_id,
        [request.request_id for request in view.lost()],
        {
            tape_id: [request.request_id for request in requests]
            for tape_id, requests in view.candidate_tapes().items()
        },
        {
            tape_id: (
                [request.request_id for request in view.requests_for_tape(tape_id)],
                [position.hex() for position in view.positions_on(tape_id)],
            )
            for tape_id in range(TAPES)
        },
    )


def _replay(case, frozen: bool) -> list:
    """Run the case's history on the new code or on the frozen copies."""
    catalog = case["catalog"]
    masked_tapes: Set[int] = set()
    injector = None
    if case["masked"]:
        injector = FaultInjector(FaultConfig(), catalog)
        masked_tapes = injector.failed_tapes
        masking = FrozenFaultMaskedCatalog if frozen else FaultMaskedCatalog
        catalog = masking(
            catalog, injector.failed_tapes, injector.known_bad, notifier=injector
        )
    pending = (FrozenPendingList if frozen else PendingList)(catalog)
    claims: Dict[int, int] = {}
    view = pending
    if case["claims"]:
        claim_filter = FrozenClaimFilteredPending if frozen else ClaimFilteredPending
        view = claim_filter(pending, claims, 0)
    jukebox = Jukebox.build(
        tape_count=TAPES, capacity_mb=CAPACITY_MB, timing=case["timing"]
    )
    if case["mounted"] is not None:
        jukebox.switch_to(case["mounted"])
        if case["head_mb"]:
            jukebox.drive.locate(case["head_mb"])
    context = SchedulerContext(
        jukebox=jukebox,
        catalog=catalog,
        pending=view,
        masked_tapes=masked_tapes,
        drive_count=2 if case["claims"] else 1,
    )
    if frozen:
        policy = FROZEN_POLICIES[case["policy"]]()
        scheduler = FrozenStaticScheduler(policy, ordering=case["ordering"])
    else:
        family = StaticScheduler if case["family"] == "static" else DynamicScheduler
        scheduler = family(POLICIES[case["policy"]], ordering=case["ordering"])
    observed = []
    taken: List[Request] = []
    next_id = 0
    for op, arg in case["ops"]:
        if op == "append":
            view.append(Request(next_id, arg, float(next_id)))
            next_id += 1
        elif op == "requeue" and taken:
            # Fault requeues and failovers put a request back at the tail.
            view.append(taken.pop(arg % len(taken)))
        elif op == "fail" and injector is not None:
            injector.fail_tape(arg)
        elif op == "condemn" and injector is not None:
            injector.condemn_replica(*arg)
        elif op == "claim" and case["claims"]:
            tape_id, owner = arg
            if owner == 2:
                claims.pop(tape_id, None)
            else:
                claims[tape_id] = owner
        elif op == "decide":
            observed.append(_probe(case, scheduler, context, view))
            decision = scheduler.major_reschedule(context)
            observed.append(_observe(decision, scheduler, context, view, pending))
            if decision is not None:
                taken.extend(
                    request for entry in decision.entries for request in entry.requests
                )
                # Mount the tape and read its sweep, as the service loop
                # would, so later decisions start from where it ended.
                if decision.tape_id != jukebox.mounted_id:
                    jukebox.switch_to(decision.tape_id)
                for position_mb, _ in observed[-1][0][2]:
                    jukebox.access(float.fromhex(position_mb), catalog.block_mb)
    return observed


@settings(max_examples=400, deadline=None)
@given(histories())
def test_decisions_match_frozen_copies(case):
    assert _replay(case, frozen=False) == _replay(case, frozen=True)


# ----------------------------------------------------------------------
# The one-sort service list on hand-built schedules
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(
    placements=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from([0.0, 16.0, 32.0, 48.0, 64.0])),
        max_size=12,
    ),
    head_mb=st.sampled_from([0.0, 8.0, 16.0, 32.0, 40.0, 64.0, 80.0]),
)
def test_service_list_keeps_tie_order(placements, head_mb):
    """Equal positions and repeated blocks execute in the two-sort order."""

    def build(cls):
        entries = [
            ServiceEntry(position_mb=position, block_id=block_id)
            for block_id, position in placements
        ]
        for index, entry in enumerate(entries):
            entry.attach(Request(index, entry.block_id, 0.0))
        return cls(entries, head_mb=head_mb)

    new, old = build(ServiceList), build(FrozenServiceList)
    ids = lambda entry: entry and [request.request_id for request in entry.requests]
    assert [ids(e) for e in new.remaining()] == [ids(e) for e in old.remaining()]
    for block_id in range(7):
        assert ids(new.find_block(block_id)) == ids(old.find_block(block_id))
    while not old.is_empty:
        assert ids(new.pop_next()) == ids(old.pop_next())
    assert new.is_empty
