"""The envelope scheduler decides as its per-request loops did, bit for bit.

``major_reschedule`` reads each tape's satisfiable requests and block
positions off the envelope computer's sorted rows, and ``on_arrival``
prices copies with the one-block kernel and stops at the first copy that
beats the mounted one.  The loops they replaced are kept below verbatim
as the oracle.  On generated pending sets over real vertical and
horizontal layouts (NR 0-9), with several requests for one block, a lost
request, mounted and unmounted tapes and mid-tape heads, under every
envelope policy, both versions must pick the same tape, build the same
entries (requests in arrival order), leave the same pending list and
the same active envelope, and then treat every arrival alike.
"""

import dataclasses
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.core import EnvelopeScheduler, PendingList, SchedulerContext, ServiceList
from repro.core.base import MajorDecision, coalesce_entries
from repro.core.cost import ExtensionCostTracker
from repro.core.envelope import EnvelopeComputer, _rank_after
from repro.core.policies import POLICIES, SelectionContext
from repro.faults.masking import FaultMaskedCatalog
from repro.layout import BlockCatalog, Layout, PlacementSpec, Replica, build_catalog
from repro.tape import EXB_8505XL, DriveTimingModel, Jukebox
from repro.workload.requests import Request

TAPES = 10
CAPACITY_MB = 800.0
#: The registry's three envelope policies, and oldest-max-bandwidth.
ENVELOPE_POLICIES = (
    "max-bandwidth",
    "max-requests",
    "oldest-max-requests",
    "oldest-max-bandwidth",
)


# ----------------------------------------------------------------------
# The replaced loops, verbatim
# ----------------------------------------------------------------------
def reference_major_reschedule(self, context):
    requests = context.pending.snapshot()
    lost = context.pending.lost()
    if lost:
        lost_ids = {request.request_id for request in lost}
        requests = [
            request for request in requests if request.request_id not in lost_ids
        ]
    if not requests:
        return None
    computer = EnvelopeComputer(
        timing=context.jukebox.timing,
        catalog=context.catalog,
        tape_count=context.tape_count,
        mounted_id=context.mounted_id,
        head_mb=context.head_mb,
        enable_shrink=self._enable_shrink,
    )
    state = computer.compute(requests)
    block_mb = context.block_mb

    replicas_cache = computer._replicas_of
    envelope_map = state.envelope
    satisfiable: Dict[int, List[Request]] = {}
    for request in requests:
        for replica in replicas_cache[request.block_id]:
            if replica.position_mb + block_mb <= envelope_map.get(
                replica.tape_id, 0.0
            ):
                satisfiable.setdefault(replica.tape_id, []).append(request)

    def positions_for(tape_id: int) -> List[float]:
        seen = set()
        positions = []
        for request in satisfiable.get(tape_id, ()):
            if request.block_id in seen:
                continue
            seen.add(request.block_id)
            for replica in replicas_cache[request.block_id]:
                if replica.tape_id == tape_id:
                    positions.append(replica.position_mb)
                    break
        return positions

    selection = SelectionContext(
        timing=context.jukebox.timing,
        block_mb=block_mb,
        tape_count=context.tape_count,
        mounted_id=context.mounted_id,
        head_mb=context.head_mb,
        candidates=satisfiable,
        positions_for=positions_for,
        resolve_oldest=context.pending.oldest,
    )
    tape_id = self._policy.select(selection)
    if tape_id is None:
        return None

    chosen = satisfiable[tape_id]
    context.pending.remove_many(chosen)
    entries = coalesce_entries(chosen, tape_id, context.catalog)
    self._active_envelope = dict(state.envelope)
    return MajorDecision(tape_id=tape_id, entries=entries)


def reference_on_arrival(self, context, request):
    service = context.service
    mounted = context.mounted_id
    if service is None or mounted is None:
        context.pending.append(request)
        return False
    block_mb = context.block_mb
    envelope = self._active_envelope

    if context.catalog.has_replica_on(request.block_id, mounted):
        replica = context.catalog.replica_on(request.block_id, mounted)
        if replica.position_mb + block_mb <= envelope.get(mounted, 0.0):
            if self._insert_into_sweep(service, request, replica):
                return True
            context.pending.append(request)
            return False

    best_tape: Optional[int] = None
    best_key: Optional[Tuple[float, int]] = None
    best_replica: Optional[Replica] = None
    rank = _rank_after(context.tape_count, mounted + 1)
    for replica in context.catalog.replicas_of(request.block_id):
        tape_envelope = envelope.get(replica.tape_id, 0.0)
        if replica.position_mb + block_mb <= tape_envelope:
            key = (float("inf"), -rank[replica.tape_id])
        else:
            charge_switch = tape_envelope == 0.0 and replica.tape_id != mounted
            tracker = ExtensionCostTracker(
                context.jukebox.timing, tape_envelope, block_mb, charge_switch
            )
            tracker.extend(replica.position_mb)
            key = (tracker.prefix_bandwidth(), -rank[replica.tape_id])
        if best_key is None or key > best_key:
            best_key = key
            best_tape = replica.tape_id
            best_replica = replica

    if best_tape == mounted and best_replica is not None:
        if self._insert_into_sweep(service, request, best_replica):
            self._active_envelope[mounted] = max(
                self._active_envelope.get(mounted, 0.0),
                best_replica.position_mb + block_mb,
            )
            return True
    context.pending.append(request)
    return False


# ----------------------------------------------------------------------
# Scenario generation
# ----------------------------------------------------------------------
class _MethodCallTiming(DriveTimingModel):
    """A trivial subclass: arrivals are priced through the tracker."""


_TIMINGS = (
    EXB_8505XL,
    _MethodCallTiming(
        **{f.name: getattr(EXB_8505XL, f.name) for f in dataclasses.fields(EXB_8505XL)}
    ),
)


class _FixedMask:
    """Stands in for the fault injector: the mask never grows."""

    def add_mask_listener(self, listener):
        pass


@lru_cache(maxsize=None)
def _layout(layout: Layout, replicas: int, start_position: float):
    spec = PlacementSpec(
        layout=layout,
        percent_hot=20.0,
        replicas=replicas,
        start_position=start_position,
    )
    return build_catalog(spec, TAPES, CAPACITY_MB)


def _block_ids(catalog, failed: Optional[int]):
    """Block ids to draw from: hot ones, cold ones and, when a tape has
    failed, cold blocks whose only copy sat on it (lost requests)."""
    hot = list(range(catalog.n_hot))
    cold = []
    lost = []
    for block_id in range(catalog.n_hot, catalog.n_blocks):
        if catalog.replicas_of(block_id)[0].tape_id == failed:
            lost.append(block_id)
        else:
            cold.append(block_id)
    return hot, cold, lost


@st.composite
def scenarios(draw):
    layout = draw(st.sampled_from([Layout.VERTICAL, Layout.HORIZONTAL]))
    replicas = draw(st.integers(0, TAPES - 1))
    start_position = draw(st.sampled_from([0.0, 0.5, 1.0]))
    inner = _layout(layout, replicas, start_position)
    failed = draw(st.one_of(st.none(), st.integers(0, TAPES - 1)), label="failed")
    hot, cold, lost = _block_ids(inner, failed)
    block = st.one_of(
        st.sampled_from(hot) if hot else st.nothing(),
        st.sampled_from(cold),
        st.sampled_from(lost) if lost else st.nothing(),
    )
    blocks = draw(st.lists(block, min_size=1, max_size=40), label="pending")
    # Several requests for one block.
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=6), label="repeats")
    blocks = draw(st.permutations(blocks))
    arrivals = draw(st.lists(block, max_size=25), label="arrivals")
    mounted = draw(
        st.one_of(st.none(), st.integers(0, TAPES - 1).filter(lambda t: t != failed)),
        label="mounted",
    )
    head_mb = 0.0
    if mounted is not None:
        head_mb = draw(
            st.one_of(
                st.just(0.0),
                st.integers(0, 49).map(lambda slot: slot * inner.block_mb),
                st.floats(0.0, CAPACITY_MB),
            ),
            label="head",
        )
    return {
        "inner": inner,
        "failed": failed,
        "blocks": blocks,
        "arrivals": arrivals,
        "mounted": mounted,
        "head_mb": head_mb,
        "policy": draw(st.sampled_from(ENVELOPE_POLICIES)),
        "shrink": draw(st.booleans()),
        "timing": draw(st.sampled_from(_TIMINGS)),
        "started": draw(st.integers(0, 3), label="reads started"),
    }


def _context(case) -> SchedulerContext:
    catalog = case["inner"]
    if case["failed"] is not None:
        catalog = FaultMaskedCatalog(catalog, {case["failed"]}, notifier=_FixedMask())
    jukebox = Jukebox.build(tape_count=TAPES, timing=case["timing"])
    if case["mounted"] is not None:
        jukebox.switch_to(case["mounted"])
        if case["head_mb"]:
            jukebox.drive.locate(case["head_mb"])
    context = SchedulerContext(
        jukebox=jukebox, catalog=catalog, pending=PendingList(catalog)
    )
    for request_id, block_id in enumerate(case["blocks"]):
        context.pending.append(
            Request(
                request_id=request_id, block_id=block_id, arrival_s=float(request_id)
            )
        )
    return context


def _scheduler(case) -> EnvelopeScheduler:
    return EnvelopeScheduler(POLICIES[case["policy"]], enable_shrink=case["shrink"])


def _entries(entries):
    return [
        (
            entry.position_mb.hex(),
            entry.block_id,
            [request.request_id for request in entry.requests],
        )
        for entry in entries
    ]


def _observe(scheduler, context):
    return (
        [request.request_id for request in context.pending],
        {tape: end.hex() for tape, end in scheduler._active_envelope.items()},
        None if context.service is None else _entries(context.service.remaining()),
    )


def _check_twins(case) -> None:
    new_context, old_context = _context(case), _context(case)
    new, old = _scheduler(case), _scheduler(case)

    new_decision = new.major_reschedule(new_context)
    old_decision = reference_major_reschedule(old, old_context)
    assert (new_decision is None) == (old_decision is None)
    assert _observe(new, new_context) == _observe(old, old_context)
    if new_decision is None:
        return
    assert new_decision.tape_id == old_decision.tape_id
    assert _entries(new_decision.entries) == _entries(old_decision.entries)

    # The sweep starts on the chosen tape, possibly a few reads in, and
    # requests keep arriving.
    for context, decision in ((new_context, new_decision), (old_context, old_decision)):
        if context.mounted_id != decision.tape_id:
            context.jukebox.switch_to(decision.tape_id)
        context.service = ServiceList(decision.entries, head_mb=context.head_mb)
        for _ in range(min(case["started"], len(context.service))):
            context.service.pop_next()
    first_id = len(case["blocks"])
    for offset, block_id in enumerate(case["arrivals"]):
        request = Request(
            request_id=first_id + offset, block_id=block_id, arrival_s=1e6 + offset
        )
        assert new.on_arrival(new_context, request) == reference_on_arrival(
            old, old_context, request
        )
        assert _observe(new, new_context) == _observe(old, old_context)


@settings(max_examples=250, deadline=None)
@given(case=scenarios())
def test_decisions_and_arrivals_match_the_replaced_loops(case):
    _check_twins(case)


def test_twin_scenarios_reach_every_branch():
    """The generated cases are not vacuous: on a fixed vertical NR-9
    instance the decision takes several requests for one block, leaves
    a lost request pending, and arrivals both join the sweep and wait."""
    case = {
        "inner": _layout(Layout.VERTICAL, 9, 1.0),
        "failed": 3,
        "mounted": 2,
        "head_mb": 160.0,
        "policy": "max-bandwidth",
        "shrink": True,
        "timing": EXB_8505XL,
        "started": 1,
    }
    hot, cold, lost = _block_ids(case["inner"], case["failed"])
    case["blocks"] = [lost[0]] + [
        block_id for block_id in cold[::7] + hot[:6] for _copy in range(2)
    ]
    case["arrivals"] = hot[6:20] + cold[1::5]
    context = _context(case)
    assert [request.block_id for request in context.pending.lost()] == [lost[0]]
    scheduler = _scheduler(case)
    decision = scheduler.major_reschedule(context)
    assert min(len(entry.requests) for entry in decision.entries) == 2
    assert lost[0] in [request.block_id for request in context.pending]
    if context.mounted_id != decision.tape_id:
        context.jukebox.switch_to(decision.tape_id)
    context.service = ServiceList(decision.entries, head_mb=context.head_mb)
    joined = []
    for offset, block_id in enumerate(case["arrivals"]):
        request = Request(request_id=1000 + offset, block_id=block_id, arrival_s=1e6)
        joined.append(scheduler.on_arrival(context, request))
    assert any(joined) and not all(joined)
    _check_twins(case)


def test_a_tie_with_another_tape_keeps_the_request_pending():
    """The replaced scan ranks the mounted tape last, so an equally cheap
    extension on another tape wins the tie and the arrival waits."""
    # Pin both envelopes at one block, then price a block whose two
    # copies sit at the same position on both tapes.
    catalog = BlockCatalog(
        block_mb=16.0,
        n_hot=0,
        replicas_by_block=[
            [Replica(0, 0.0)],
            [Replica(1, 0.0)],
            [Replica(0, 320.0), Replica(1, 320.0)],
        ],
    )
    outcomes = []
    for on_arrival, major in (
        (EnvelopeScheduler.on_arrival, EnvelopeScheduler.major_reschedule),
        (reference_on_arrival, reference_major_reschedule),
    ):
        context = SchedulerContext(
            jukebox=Jukebox.build(tape_count=2),
            catalog=catalog,
            pending=PendingList(catalog),
        )
        for block_id in (0, 1):
            context.pending.append(
                Request(request_id=block_id, block_id=block_id, arrival_s=0.0)
            )
        scheduler = EnvelopeScheduler(POLICIES["max-bandwidth"])
        decision = major(scheduler, context)
        context.jukebox.switch_to(decision.tape_id)
        context.service = ServiceList(decision.entries, head_mb=0.0)
        assert scheduler._active_envelope == {0: 16.0, 1: 16.0}
        late = Request(request_id=2, block_id=2, arrival_s=1.0)
        outcomes.append(
            (on_arrival(scheduler, context, late), _observe(scheduler, context))
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is False
