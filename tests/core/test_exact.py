"""The LTSP optimality baselines: brute-force proofs and composition.

The acceptance bar for ``exact-batch`` is *provable* optimality on every
instance small enough to enumerate: for batches of up to 8 distinct
blocks, :func:`optimal_order` must match the exhaustive minimum over all
permutations of the drive-exact objective, and every heuristic order
(sweep passes, greedy, best-pass) must cost at least as much.

The tape-level pruning of ``major_reschedule`` is checked against its
twin, the every-tape loop, on generated pending sets: same tape, same
order, bit-identical decision cost.  The tape-level lower bound behind
it is checked against the exhaustive minimum over read orders, on
generated batches and on pinned instances that random draws rarely
reach, and the number of tapes it leaves to plan on a seeded run is
pinned.

The search is checked against its twin too: a verbatim copy of the
search before it was flattened and before its node bound charged each
block its arrival floor (tuple memo keys, an ``exhausted`` flag, the
plain-read bound, the method-call transition matrix).  Wherever the
twin completes, the search must complete with the same order and a
bit-identical cost; where the twin runs out of budget, the plan must
still beat every seed order.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.api import run
from repro.core import (
    BatchPlan,
    DEFAULT_NODE_BUDGET,
    ExactBatchScheduler,
    GreedyCostScheduler,
    BestPassScheduler,
    OrderedServiceList,
    best_pass_order,
    greedy_cost_order,
    make_scheduler,
    optimal_order,
    order_cost,
    reverse_first_order,
    sweep_order,
)
from repro.core import exact as exact_module
from repro.core.base import coalesce_entries
from repro.core.cost import MethodKernel, pricing_kernel
from repro.core.exact import (
    _BatchCost,
    _BatchScheduler,
    _Transitions,
    _entry_weight,
    _split_passes,
)
from repro.core.policies import jukebox_order
from repro.core.sweep import ServiceEntry
from repro.experiments import ExperimentConfig
from repro.service.metrics import report_digest
from repro.tape.serpentine import SerpentineTimingModel
from repro.tape.timing import DriveTimingModel
from repro.workload import RequestFactory

from ..test_golden_hashes import CASES as GOLDEN_CASES
from .conftest import catalog_from, make_context

TIMING = DriveTimingModel()
BLOCK_MB = 16.0


def make_entries(spec, factory=None):
    """Build entries from ``[(position_mb, weight), ...]``."""
    factory = factory or RequestFactory()
    entries = []
    for block_id, (position_mb, weight) in enumerate(spec):
        requests = [
            factory.create(block_id=block_id, arrival_s=0.0)
            for _ in range(weight)
        ]
        entries.append(
            ServiceEntry(
                position_mb=position_mb, block_id=block_id, requests=requests
            )
        )
    return entries


def brute_force_cost(entries, head_mb, deferred_weight=0.0, startup=True):
    """The exhaustive minimum of the objective over all permutations."""
    return min(
        order_cost(
            TIMING,
            head_mb,
            list(permutation),
            BLOCK_MB,
            deferred_weight=deferred_weight,
            startup_pending=startup,
        )
        for permutation in itertools.permutations(entries)
    )


def random_instance(rng, count):
    spec = [
        (rng.choice([0.0, rng.uniform(0.0, 6000.0)]), rng.randint(1, 3))
        for _ in range(count)
    ]
    head = rng.choice([0.0, rng.uniform(0.0, 6000.0)])
    deferred = rng.choice([0.0, float(rng.randint(1, 40))])
    startup = rng.random() < 0.5
    return spec, head, deferred, startup


class TestOptimalOrder:
    @pytest.mark.parametrize("count", range(1, 8))
    def test_matches_brute_force(self, count):
        """Exact == exhaustive minimum on every enumerable instance."""
        rng = random.Random(count)
        for _ in range(6):
            spec, head, deferred, startup = random_instance(rng, count)
            entries = make_entries(spec)
            plan = optimal_order(
                TIMING,
                head,
                entries,
                BLOCK_MB,
                deferred_weight=deferred,
                startup_pending=startup,
            )
            expected = brute_force_cost(entries, head, deferred, startup)
            assert plan.exact
            assert plan.cost_s == pytest.approx(expected, rel=1e-12)
            executed = order_cost(
                TIMING,
                head,
                plan.order,
                BLOCK_MB,
                deferred_weight=deferred,
                startup_pending=startup,
            )
            assert executed == pytest.approx(plan.cost_s, rel=1e-12)

    def test_matches_brute_force_at_eight(self):
        """The acceptance bound: still exhaustively verified at m = 8."""
        rng = random.Random(8)
        spec, head, deferred, startup = random_instance(rng, 8)
        entries = make_entries(spec)
        plan = optimal_order(
            TIMING,
            head,
            entries,
            BLOCK_MB,
            deferred_weight=deferred,
            startup_pending=startup,
        )
        assert plan.exact
        assert plan.cost_s == pytest.approx(
            brute_force_cost(entries, head, deferred, startup), rel=1e-12
        )

    @pytest.mark.parametrize("count", [2, 4, 6])
    def test_never_worse_than_any_heuristic_order(self, count):
        rng = random.Random(100 + count)
        for _ in range(10):
            spec, head, deferred, startup = random_instance(rng, count)
            entries = make_entries(spec)
            plan = optimal_order(
                TIMING,
                head,
                entries,
                BLOCK_MB,
                deferred_weight=deferred,
                startup_pending=startup,
            )
            for heuristic in (
                sweep_order,
                reverse_first_order,
            ):
                cost = order_cost(
                    TIMING,
                    head,
                    heuristic(entries, head),
                    BLOCK_MB,
                    deferred_weight=deferred,
                    startup_pending=startup,
                )
                assert plan.cost_s <= cost + 1e-9
            for heuristic in (greedy_cost_order, best_pass_order):
                cost = order_cost(
                    TIMING,
                    head,
                    heuristic(
                        TIMING,
                        head,
                        entries,
                        BLOCK_MB,
                        startup_pending=startup,
                    ),
                    BLOCK_MB,
                    deferred_weight=deferred,
                    startup_pending=startup,
                )
                assert plan.cost_s <= cost + 1e-9

    def test_budget_exhaustion_falls_back_to_valid_order(self):
        rng = random.Random(17)
        spec, head, deferred, startup = random_instance(rng, 7)
        entries = make_entries(spec)
        plan = optimal_order(
            TIMING,
            head,
            entries,
            BLOCK_MB,
            deferred_weight=deferred,
            node_budget=5,
            startup_pending=startup,
        )
        assert not plan.exact
        assert sorted(entry.block_id for entry in plan.order) == sorted(
            entry.block_id for entry in entries
        )
        # The fallback is seeded with the heuristic orders, so even a
        # starved search is never worse than the approximation policies.
        for heuristic_order in (
            sweep_order(entries, head),
            reverse_first_order(entries, head),
            greedy_cost_order(
                TIMING, head, entries, BLOCK_MB, startup_pending=startup
            ),
        ):
            cost = order_cost(
                TIMING,
                head,
                heuristic_order,
                BLOCK_MB,
                deferred_weight=deferred,
                startup_pending=startup,
            )
            assert plan.cost_s <= cost + 1e-9

    def test_empty_and_singleton(self):
        empty = optimal_order(TIMING, 0.0, [], BLOCK_MB)
        assert empty.order == () and empty.cost_s == 0.0 and empty.exact
        single = make_entries([(120.0, 2)])
        plan = optimal_order(TIMING, 0.0, single, BLOCK_MB)
        assert [entry.block_id for entry in plan.order] == [0]
        assert isinstance(plan, BatchPlan)

    def test_weights_change_the_optimum(self):
        """A heavy far block can be worth serving before a light near one."""
        light_near_heavy_far = make_entries([(30.0, 1), (2000.0, 0)])
        # With zero weight on the far block the near one goes first...
        plan = optimal_order(TIMING, 0.0, light_near_heavy_far, BLOCK_MB)
        assert plan.order[0].position_mb == 30.0
        # ...with enough weight on it, the optimum flips.
        heavy = make_entries([(30.0, 1), (2000.0, 50)])
        plan = optimal_order(TIMING, 0.0, heavy, BLOCK_MB)
        assert plan.order[0].position_mb == 2000.0

    @pytest.mark.parametrize("count", range(1, 8))
    def test_plan_cost_is_bit_identical_to_order_cost(self, count):
        """``BatchPlan.cost_s`` can stand in for re-costing the order: the
        search and the seeds accrue ``J`` with order_cost's arithmetic,
        fractional deferred weights included."""
        rng = random.Random(200 + count)
        for _ in range(12):
            spec, head, deferred, startup = random_instance(rng, count)
            deferred /= rng.choice([1.0, 2.0, 3.0])
            entries = make_entries(spec)
            plan = optimal_order(
                TIMING,
                head,
                entries,
                BLOCK_MB,
                deferred_weight=deferred,
                startup_pending=startup,
            )
            assert plan.cost_s == order_cost(
                TIMING,
                head,
                plan.order,
                BLOCK_MB,
                deferred_weight=deferred,
                startup_pending=startup,
            )

    @pytest.mark.parametrize("count", range(1, 9))
    def test_greedy_matches_stepwise_reference(self, count):
        """The greedy read from the shared transition matrix equals the
        step-by-step greedy, tie-breaks included."""
        model = _BatchCost(TIMING, BLOCK_MB)

        def stepwise(head, entries, startup):
            remaining = sorted(
                entries, key=lambda entry: (entry.position_mb, entry.block_id)
            )
            order = []
            while remaining:
                best_index, best_key = 0, None
                for index, entry in enumerate(remaining):
                    seconds = model.step(head, startup, entry.position_mb)[0]
                    key = (
                        seconds / max(float(len(entry.requests)), 1.0),
                        entry.position_mb,
                    )
                    if best_key is None or key < best_key:
                        best_index, best_key = index, key
                entry = remaining.pop(best_index)
                _, head, startup = model.step(head, startup, entry.position_mb)
                order.append(entry)
            return order

        rng = random.Random(300 + count)
        for _ in range(12):
            spec, head, _, startup = random_instance(rng, count)
            entries = make_entries(spec)
            got = greedy_cost_order(
                TIMING, head, entries, BLOCK_MB, startup_pending=startup
            )
            expected = stepwise(float(head), entries, startup)
            assert [id(entry) for entry in got] == [id(entry) for entry in expected]


class TestSchedulerDecisions:
    @pytest.fixture
    def catalog(self):
        """Tape 0: blocks 0-3 spread out.  Tape 1: blocks 4-5."""
        return catalog_from(
            [
                [(0, 0.0)],
                [(0, 400.0)],
                [(0, 90.0)],
                [(0, 2500.0)],
                [(1, 0.0)],
                [(1, 700.0)],
            ]
        )

    def test_decision_cost_not_above_any_tape_permutation(
        self, catalog, factory
    ):
        """The chosen (tape, order) minimizes normalized J over every
        alternative the scheduler could have picked."""
        context = make_context(catalog, tape_count=3)
        for block_id in range(6):
            context.pending.append(
                factory.create(block_id=block_id, arrival_s=0.0)
            )
        total = float(len(context.pending))
        scheduler = ExactBatchScheduler()
        # Snapshot the per-tape candidates before the decision pops them.
        candidates = {
            tape_id: list(requests)
            for tape_id, requests in context.pending.candidate_tapes().items()
        }
        timing = context.jukebox.timing
        decision = scheduler.major_reschedule(context)
        best = min(
            (
                timing.switch_with_rewind(0.0) * total
                + order_cost(
                    timing,
                    0.0,
                    list(permutation),
                    catalog.block_mb,
                    deferred_weight=total - float(len(requests)),
                )
            )
            / float(len(requests))
            for tape_id, requests in candidates.items()
            for permutation in itertools.permutations(
                [
                    ServiceEntry(
                        position_mb=catalog.replica_on(
                            request.block_id, tape_id
                        ).position_mb,
                        block_id=request.block_id,
                        requests=[request],
                    )
                    for request in requests
                ]
            )
        )
        assert scheduler.last_decision_cost == pytest.approx(best, rel=1e-12)
        assert decision.entries  # and the decision is well-formed

    def test_exact_decision_no_worse_than_approx_families(
        self, catalog, factory
    ):
        """Same pending set: exact's normalized J <= each approximation's."""
        costs = {}
        for name in ("exact-batch", "approx-greedy-cost", "approx-best-pass"):
            context = make_context(catalog, tape_count=3)
            request_factory = RequestFactory()
            for block_id in range(6):
                context.pending.append(
                    request_factory.create(block_id=block_id, arrival_s=0.0)
                )
            scheduler = make_scheduler(name)
            scheduler.major_reschedule(context)
            costs[name] = scheduler.last_decision_cost
        assert costs["exact-batch"] <= costs["approx-greedy-cost"] + 1e-9
        assert costs["exact-batch"] <= costs["approx-best-pass"] + 1e-9

    def test_build_service_list_executes_planned_order(self, catalog, factory):
        context = make_context(catalog, tape_count=3)
        for block_id in range(4):
            context.pending.append(
                factory.create(block_id=block_id, arrival_s=0.0)
            )
        scheduler = ExactBatchScheduler()
        decision = scheduler.major_reschedule(context)
        service = scheduler.build_service_list(decision.entries, head_mb=0.0)
        assert isinstance(service, OrderedServiceList)
        popped = []
        while not service.is_empty:
            entry = service.pop_next()
            popped.append(entry.block_id)
            service.finish_in_flight()
        assert popped == [entry.block_id for entry in decision.entries]

    def test_on_arrival_absorbs_onto_mounted_tape(self, catalog, factory):
        context = make_context(catalog, tape_count=3)
        context.pending.append(factory.create(block_id=0, arrival_s=0.0))
        context.pending.append(factory.create(block_id=1, arrival_s=0.0))
        scheduler = ExactBatchScheduler()
        decision = scheduler.major_reschedule(context)
        context.jukebox.switch_to(decision.tape_id)
        context.service = scheduler.build_service_list(
            decision.entries, head_mb=0.0
        )
        late = factory.create(block_id=2, arrival_s=5.0)
        assert scheduler.on_arrival(context, late)
        assert 2 in [entry.block_id for entry in context.service.remaining()]

    def test_on_arrival_defers_foreign_tape(self, catalog, factory):
        context = make_context(catalog, tape_count=3)
        context.pending.append(factory.create(block_id=0, arrival_s=0.0))
        scheduler = ExactBatchScheduler()
        decision = scheduler.major_reschedule(context)
        context.jukebox.switch_to(decision.tape_id)
        context.service = scheduler.build_service_list(
            decision.entries, head_mb=0.0
        )
        foreign = factory.create(block_id=4, arrival_s=5.0)  # tape 1 only
        assert not scheduler.on_arrival(context, foreign)
        assert foreign in context.pending

    def test_on_arrival_coalesces_duplicate_block(self, catalog, factory):
        context = make_context(catalog, tape_count=3)
        context.pending.append(factory.create(block_id=0, arrival_s=0.0))
        context.pending.append(factory.create(block_id=1, arrival_s=0.0))
        scheduler = ExactBatchScheduler()
        decision = scheduler.major_reschedule(context)
        context.jukebox.switch_to(decision.tape_id)
        context.service = scheduler.build_service_list(
            decision.entries, head_mb=0.0
        )
        duplicate = factory.create(block_id=1, arrival_s=5.0)
        assert scheduler.on_arrival(context, duplicate)
        entry = context.service.find_block(1)
        assert len(entry.requests) == 2

    def test_names(self):
        assert ExactBatchScheduler().name == "exact-batch"
        assert GreedyCostScheduler().name == "approx-greedy-cost"
        assert BestPassScheduler().name == "approx-best-pass"


class TestOrderedServiceList:
    def test_interface_roundtrip(self):
        entries = make_entries([(0.0, 1), (300.0, 1), (90.0, 1)])
        service = OrderedServiceList(entries, head_mb=0.0, block_mb=BLOCK_MB)
        assert len(service) == 3
        assert not service.is_empty
        assert service.find_block(1).position_mb == 300.0
        assert service.find_block(99) is None
        first = service.pop_next()
        assert service.in_flight is first
        service.finish_in_flight()
        assert service.in_flight is None
        assert len(service) == 2

    def test_insert_replans_remainder(self):
        planned = []

        def replan(head_mb, startup_pending, entries):
            planned.append([entry.block_id for entry in entries])
            return sweep_order(entries, head_mb)

        entries = make_entries([(100.0, 1), (500.0, 1)])
        service = OrderedServiceList(
            entries, head_mb=0.0, block_mb=BLOCK_MB, replan=replan
        )
        extra = make_entries([(250.0, 1)])[0]
        assert service.can_insert(extra)
        assert service.insert(extra)
        assert planned, "insert must trigger a replan of the remainder"
        assert len(service) == 3


def reference_decision(scheduler, context):
    """The every-tape loop the pruned ``major_reschedule`` replaced.

    Plans every candidate tape in jukebox order, re-costs each order with
    :func:`order_cost` and keeps the first strict minimum.  Asserts on the
    way that the tape-level lower bound never exceeds the evaluated cost.
    Leaves ``context`` untouched.
    """
    timing = context.jukebox.timing
    block_mb = context.block_mb
    candidates = context.pending.candidate_tapes()
    total = float(len(context.pending))
    mounted = context.mounted_id
    defer_scale = 1.0 / float(max(context.drive_count, 1))
    best = None
    anchor = mounted if mounted is not None else 0
    for tape_id in jukebox_order(context.tape_count, anchor):
        requests = candidates.get(tape_id)
        if not requests:
            continue
        entries = coalesce_entries(requests, tape_id, context.catalog)
        served = float(len(requests))
        deferred = (total - served) * defer_scale
        if tape_id == mounted:
            head, overhead_s = context.head_mb, 0.0
        else:
            rewind_from = context.head_mb if mounted is not None else 0.0
            head, overhead_s = 0.0, timing.switch_with_rewind(rewind_from)
        order = scheduler.plan(timing, head, entries, block_mb, deferred)
        cost = overhead_s * (served + deferred) + order_cost(
            timing, head, order, block_mb, deferred_weight=deferred
        )
        cost /= served
        bound = pricing_kernel(timing, block_mb).tape_bound(
            float(head),
            [entry.position_mb for entry in entries],
            served,
            deferred,
            overhead_s,
        )
        # The bound and the cost sum the same terms in different orders,
        # so allow rounding, far inside the scheduler's pruning slack.
        assert bound <= cost * (1.0 + 1e-12), (tape_id, bound, cost)
        if best is None or cost < best[2]:
            best = (tape_id, order, cost)
    return best


@st.composite
def pending_sets(draw):
    """A jukebox of 2-8 tapes on the default or a serpentine drive,
    replicated blocks, a pending set over them, an optional mounted tape
    with a head position, and a drive count."""
    tape_count = draw(st.integers(min_value=2, max_value=8))
    timing = draw(st.sampled_from([None, SerpentineTimingModel()]))
    # Positions on a 16 MB grid (so reads can stream back to back), in a
    # short run of touching slots (zero gaps between blocks), or
    # anywhere on the tape.
    position = st.one_of(
        st.integers(min_value=0, max_value=60).map(lambda slot: slot * 16.0),
        st.integers(min_value=0, max_value=5).map(lambda slot: 320.0 + slot * 16.0),
        st.floats(min_value=0.0, max_value=6000.0),
    )
    block_count = draw(st.integers(min_value=1, max_value=10))
    placements = [
        [
            (tape_id, draw(position))
            for tape_id in draw(
                st.lists(
                    st.integers(min_value=0, max_value=tape_count - 1),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        ]
        for _ in range(block_count)
    ]
    requested = draw(
        st.lists(
            st.integers(min_value=0, max_value=block_count - 1),
            min_size=1,
            max_size=14,
        )
    )
    mounted = draw(st.none() | st.integers(min_value=0, max_value=tape_count - 1))
    head = draw(position) if mounted is not None else 0.0
    drive_count = draw(st.integers(min_value=1, max_value=3))
    return (
        catalog_from(placements),
        tape_count,
        requested,
        mounted,
        head,
        drive_count,
        timing,
    )


class TestTapePruning:
    @settings(max_examples=150, deadline=None)
    @given(instance=pending_sets())
    def test_pruned_decision_matches_every_tape_loop(self, instance):
        catalog, tape_count, requested, mounted, head, drive_count, timing = instance
        factory = RequestFactory()
        requests = [
            factory.create(block_id=block_id, arrival_s=0.0)
            for block_id in requested
        ]

        def fresh_context():
            context = make_context(
                catalog,
                tape_count=tape_count,
                mounted=mounted,
                head_mb=head,
                timing=timing,
            )
            context.drive_count = drive_count
            for request in requests:
                context.pending.append(request)
            return context

        def signature(order):
            return [
                (entry.block_id, entry.position_mb, [id(r) for r in entry.requests])
                for entry in order
            ]

        for name in ("exact-batch", "approx-greedy-cost", "approx-best-pass"):
            expected_tape, expected_order, expected_cost = reference_decision(
                make_scheduler(name), fresh_context()
            )
            scheduler = make_scheduler(name)
            decision = scheduler.major_reschedule(fresh_context())
            assert decision.tape_id == expected_tape, name
            assert signature(decision.entries) == signature(expected_order), name
            assert scheduler.last_decision_cost == expected_cost, name

    def test_bound_prunes_the_recorded_number_of_tapes(self, monkeypatch):
        """A seeded ``exact-batch`` run at the closed Q-20 point plans the
        recorded number of candidate tapes per major reschedule, with the
        report it had before the bound tightened.  The plain-read bound
        planned 548 tapes over the same 187 decisions; a looser bound
        fails here instead of silently costing run time."""
        counts = {"decisions": 0, "planned": 0}
        deciding = []
        major_reschedule = _BatchScheduler.major_reschedule
        plan = ExactBatchScheduler.plan

        def counted_major_reschedule(self, context):
            deciding.append(True)
            try:
                decision = major_reschedule(self, context)
            finally:
                deciding.pop()
            if decision is not None:
                counts["decisions"] += 1
            return decision

        def counted_plan(self, *args, **kwargs):
            if deciding:
                counts["planned"] += 1
            return plan(self, *args, **kwargs)

        monkeypatch.setattr(
            _BatchScheduler, "major_reschedule", counted_major_reschedule
        )
        monkeypatch.setattr(ExactBatchScheduler, "plan", counted_plan)
        result = run(
            ExperimentConfig(
                scheduler="exact-batch",
                queue_length=20,
                horizon_s=120_000.0,
                seed=1,
            )
        )
        assert report_digest(result) == (
            "879682c0a7c6ffe3bf2b03bd2b2bf5098fb9bd00fcaef4eceda5d8370ae55b7d"
        )
        assert counts == {"decisions": 187, "planned": 256}


def oracle_cost(transitions, deferred):
    """The minimum ``J`` over every read order of a batch.

    A DP over (served set, last read) states on the batch's transition
    matrix; it is exhaustive because the weight still waiting during a
    read depends only on the set already served, and the drive state
    after a read only on that read.  Each waiting weight is summed
    afresh, not carried down as the search carries it."""
    weights = transitions.weights
    count = len(weights)
    if count == 0:
        return 0.0
    full = (1 << count) - 1
    waiting = [
        deferred + sum(weight for i, weight in enumerate(weights) if not mask >> i & 1)
        for mask in range(full + 1)
    ]
    inf = float("inf")
    best = [[inf] * count for _ in range(full + 1)]
    for j, cost in enumerate(transitions.root_cost):
        best[1 << j][j] = cost * waiting[0]
    for mask in range(1, full):
        weight = waiting[mask]
        for last, accrued in enumerate(best[mask]):
            if accrued == inf:
                continue
            for j, cost in enumerate(transitions.step_cost[last]):
                if mask >> j & 1:
                    continue
                child = accrued + cost * weight
                states = best[mask | 1 << j]
                if child < states[j]:
                    states[j] = child
    return min(best[full])


def exhaustive_normalized_cost(
    timing, block_mb, head_mb, entries, deferred, overhead_s
):
    """The minimum over every read order of ``(overhead_s * c + J) / n``,
    from ``head_mb`` with the read startup pending."""
    transitions = _Transitions(_BatchCost(timing, block_mb), head_mb, entries, True)
    served = sum(transitions.weights)
    total = oracle_cost(transitions, deferred)
    return (overhead_s * (served + deferred) + total) / served


def tape_bound(timing, block_mb, head_mb, entries, deferred, overhead_s):
    served = float(sum(len(entry.requests) for entry in entries))
    return pricing_kernel(timing, block_mb).tape_bound(
        float(head_mb),
        [entry.position_mb for entry in entries],
        served,
        deferred,
        overhead_s,
    )


def arrival_cost(timing, block_mb, from_mb, to_mb):
    """Seconds to read the block at ``to_mb`` right after the one at
    ``from_mb``."""
    return _BatchCost(timing, block_mb).row(from_mb + block_mb, False, [to_mb])[0]


@st.composite
def bound_instances(draw):
    """A batch of 1-8 blocks, each with 1-3 requests, on a plain, scaled
    or symmetric model with 16 MB or 1 MB blocks: positions on the block
    grid (touching blocks included), at BOT or anywhere; the head at
    BOT, on a block or anywhere; any deferred weight and overhead."""
    timing = draw(st.sampled_from([TIMING, TIMING.scaled(2.0), SYMMETRIC_TIMING]))
    block_mb = draw(st.sampled_from([BLOCK_MB, 1.0]))
    position = st.one_of(
        st.just(0.0),
        st.integers(0, 40).map(lambda slot: slot * block_mb),
        st.floats(0.0, 6000.0),
    )
    count = draw(st.integers(1, 8))
    spec = draw(
        st.lists(
            st.tuples(position, st.integers(1, 3)),
            min_size=count,
            max_size=count,
        )
    )
    head = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([place for place, _ in spec]),
            st.floats(0.0, 6000.0),
        )
    )
    deferred = draw(st.integers(0, 90)) * (1.0 / 3.0)
    overhead_s = draw(st.sampled_from([0.0, timing.switch_with_rewind(0.0)]))
    return timing, block_mb, head, make_entries(spec), deferred, overhead_s


class TestArrivalSpanBound:
    """The tape-level bound is certified: never above the cheapest order."""

    @settings(max_examples=150, deadline=None)
    @given(instance=bound_instances())
    def test_bound_never_exceeds_exhaustive_minimum(self, instance):
        timing, block_mb, head, entries, deferred, overhead_s = instance
        bound = tape_bound(timing, block_mb, head, entries, deferred, overhead_s)
        cheapest = exhaustive_normalized_cost(
            timing, block_mb, head, entries, deferred, overhead_s
        )
        assert bound <= cheapest * (1.0 + 1e-12), (bound, cheapest)

    @pytest.mark.parametrize("deferred", [0.0, 5.0, 50.0])
    def test_floor_takes_the_cheaper_segment_at_the_threshold(self, deferred):
        """From the head at BOT, once requests are deferred, the cheapest
        order reads 0, 1, 0.5 and then the block 27.9 MB past the end of
        the one at 1: it arrives from the farther block at 0.5, by a long
        forward locate that costs less than the nearer block's short one.
        The bound must charge that arrival the cheaper segment."""
        block_mb = 0.25
        target = 1.0 + block_mb + 27.9
        assert arrival_cost(TIMING, block_mb, 0.5, target) < arrival_cost(
            TIMING, block_mb, 1.0, target
        )
        entries = make_entries([(0.0, 1), (0.5, 1), (1.0, 1), (target, 1)])
        bound = tape_bound(TIMING, block_mb, 0.0, entries, deferred, 0.0)
        cheapest = exhaustive_normalized_cost(
            TIMING, block_mb, 0.0, entries, deferred, 0.0
        )
        assert bound <= cheapest * (1.0 + 1e-12), (bound, cheapest)

    @pytest.mark.parametrize("deferred", [0.0, 3.0, 20.0])
    def test_reverse_floor_onto_bot_pays_the_overhead(self, deferred):
        """Arriving at block 0 means a reverse locate onto BOT.  With the
        overhead in its floor, block 0 has the costliest floor, the one
        the bound leaves out, and the bound is exact from BOT; from the
        top block, which must reverse onto 0 later, it stays below the
        cheapest order."""
        entries = make_entries([(0.0, 1), (320.0, 1), (700.0, 1)])
        bound = tape_bound(TIMING, BLOCK_MB, 0.0, entries, deferred, 0.0)
        cheapest = exhaustive_normalized_cost(
            TIMING, BLOCK_MB, 0.0, entries, deferred, 0.0
        )
        assert bound == pytest.approx(cheapest, rel=1e-12)
        assert bound <= cheapest * (1.0 + 1e-12)
        entries = make_entries([(0.0, 1), (144.0, 1), (320.0, 1), (528.0, 1)])
        assert tape_bound(
            TIMING, BLOCK_MB, 528.0, entries, deferred, 0.0
        ) <= exhaustive_normalized_cost(
            TIMING, BLOCK_MB, 528.0, entries, deferred, 0.0
        ) * (1.0 + 1e-12)

    @pytest.mark.parametrize("deferred", [0.0, 1.0, 5.0])
    def test_head_above_a_block_is_tight_without_the_sweep_term(self, deferred):
        """The head sits on the upper of two 1 MB blocks, above the other.
        Serving it in place and then reversing over the 26 MB gap costs
        less than any forward locate over that gap, so the forward-span
        term must not apply; the bound is then exact."""
        block_mb = 1.0
        entries = make_entries([(100.0, 1), (127.0, 1)])
        bound = tape_bound(TIMING, block_mb, 127.0, entries, deferred, 0.0)
        cheapest = exhaustive_normalized_cost(
            TIMING, block_mb, 127.0, entries, deferred, 0.0
        )
        assert bound == pytest.approx(cheapest, rel=1e-12)
        assert bound <= cheapest * (1.0 + 1e-12)

    def test_at_least_as_tight_as_the_plain_read_bound(self):
        """Every floor is at least one plain read, so the bound never
        falls below the one a model subclass keeps."""
        rng = random.Random(23)
        kernel = pricing_kernel(TIMING, BLOCK_MB)
        # The method kernel over the same model takes the plain-read
        # bound, as a timing-model subclass does.
        plain_kernel = MethodKernel(TIMING, BLOCK_MB)
        for _ in range(40):
            spec, head, deferred, _ = random_instance(rng, rng.randint(1, 8))
            positions = [place for place, _ in spec]
            served = float(len(spec))
            for overhead_s in (0.0, TIMING.switch_with_rewind(0.0)):
                args = (float(head), positions, served, deferred, overhead_s)
                bound = kernel.tape_bound(*args)
                plain = plain_kernel.tape_bound(*args)
                assert bound >= plain * (1.0 - 1e-12)


class _FrozenTransitions(_Transitions):
    """``_Transitions`` as it was built before the row kernel: every cost
    through :meth:`_BatchCost.step`, every rank through a lambda key."""

    def __init__(self, model, head_mb, entries, startup_pending):
        items = sorted(entries, key=lambda entry: (entry.position_mb, entry.block_id))
        count = len(items)
        weights = [_entry_weight(entry) for entry in items]
        positions = [entry.position_mb for entry in items]

        def ranked(costs):
            return sorted(
                range(count),
                key=lambda j: (costs[j] / max(weights[j], 1.0), positions[j]),
            )

        self.items = items
        self.weights = weights
        self.root_cost = [
            model.step(float(head_mb), startup_pending, position)[0]
            for position in positions
        ]
        self.step_cost = [
            [
                model.step(position + model.block_mb, False, target)[0]
                for target in positions
            ]
            for position in positions
        ]
        self.root_rank = ranked(self.root_cost)
        self.step_rank = [ranked(row) for row in self.step_cost]


def frozen_optimal_order(
    timing,
    head_mb,
    entries,
    block_mb,
    deferred_weight=0.0,
    node_budget=DEFAULT_NODE_BUDGET,
    startup_pending=True,
):
    """:func:`optimal_order` as written before the search was flattened
    (tuple memo keys, an ``exhausted`` flag checked per child), on the
    method-call transition matrix."""
    model = _BatchCost(timing, block_mb)
    transitions = _FrozenTransitions(model, head_mb, entries, startup_pending)
    items = transitions.items
    count = len(items)
    delta = float(deferred_weight)
    if count <= 1:
        # Nothing to sequence: the only order is optimal without a search.
        return BatchPlan(
            order=tuple(items),
            cost_s=transitions.order_cost(range(count), delta),
            exact=True,
            nodes=0,
        )
    weights = transitions.weights
    total_weight = sum(weights) + delta

    forward, reverse = _split_passes(items, head_mb)
    best_order = []
    best_cost = float("inf")
    for seed in (forward + reverse, reverse + forward, transitions.greedy_order()):
        cost = transitions.order_cost(seed, delta)
        if cost < best_cost:
            best_cost = cost
            best_order = seed

    root_cost = transitions.root_cost
    step_cost = transitions.step_cost
    root_rank = transitions.root_rank
    step_rank = transitions.step_rank
    memo = {}
    read_plain = model.read_plain_s
    path = []
    nodes = 0
    exhausted = False

    def search(mask, last, accrued, pending_weight, remaining):
        nonlocal best_cost, best_order, nodes, exhausted
        costs = root_cost if last < 0 else step_cost[last]
        ranked = root_rank if last < 0 else step_rank[last]
        for index in ranked:
            if (mask >> index) & 1:
                continue
            if exhausted:
                return
            nodes += 1
            if nodes > node_budget:
                exhausted = True
                return
            child_accrued = accrued + costs[index] * pending_weight
            child_pending = pending_weight - weights[index]
            child_remaining = remaining - 1
            bound = child_accrued + read_plain * (
                (child_pending - delta) + delta * child_remaining
            )
            if bound >= best_cost:
                continue
            key = (mask | (1 << index), index)
            seen = memo.get(key)
            if seen is not None and child_accrued >= seen:
                continue
            memo[key] = child_accrued
            path.append(index)
            if child_remaining == 0:
                best_cost = child_accrued
                best_order = list(path)
            else:
                search(
                    mask | (1 << index),
                    index,
                    child_accrued,
                    child_pending,
                    child_remaining,
                )
            path.pop()

    search(0, -1, 0.0, total_weight, count)
    return BatchPlan(
        order=tuple(items[i] for i in best_order),
        cost_s=best_cost,
        exact=not exhausted,
        nodes=nodes,
    )


#: Forward and reverse locates cost the same and reads pay no startup,
#: so grid blocks equidistant from the head tie on time-per-request and
#: the rankings fall back to their position and index tie-breaks.
SYMMETRIC_TIMING = dataclasses.replace(
    TIMING,
    reverse_short=TIMING.forward_short,
    reverse_long=TIMING.forward_long,
    bot_overhead_s=0.0,
    read_startup_after_forward_s=0.0,
)


@st.composite
def batches(draw):
    """A batch of 0-13 blocks on a plain, scaled or symmetric model:
    positions on the block grid, anywhere, at BOT or at the head (so
    positions repeat), weights from a small set (so they repeat, zero
    included), a deferred weight in multiples of 1/3 (the defer scale of
    three drives), either startup state and a node budget from 1 to the
    default."""
    timing = draw(st.sampled_from([TIMING, TIMING.scaled(2.0), SYMMETRIC_TIMING]))
    head = draw(
        st.one_of(
            st.just(0.0),
            st.integers(0, 300).map(lambda slot: slot * BLOCK_MB),
            st.floats(0.0, 6000.0),
        )
    )
    position = st.one_of(
        st.just(0.0),
        st.just(head),
        st.integers(0, 300).map(lambda slot: slot * BLOCK_MB),
        st.floats(0.0, 6000.0),
    )
    count = draw(st.integers(0, 13))
    spec = draw(
        st.lists(
            st.tuples(position, st.sampled_from([0, 1, 1, 2, 3])),
            min_size=count,
            max_size=count,
        )
    )
    deferred = draw(st.integers(0, 90)) * (1.0 / 3.0)
    startup = draw(st.booleans())
    budget = draw(st.sampled_from([1, 37, 200, DEFAULT_NODE_BUDGET]))
    return timing, head, make_entries(spec), deferred, startup, budget


class TestFlattenedSearch:
    @settings(max_examples=150, deadline=None)
    @given(batch=batches())
    def test_matches_frozen_reference(self, batch):
        """Wherever the search it replaced (plain-read bound, tuple memo
        keys, an ``exhausted`` flag) runs to completion, the search
        completes too, with the same order and a bit-identical cost; the
        arrival-floor bound only prunes more.  Where the frozen search
        runs out of budget, the plan still beats every seed order."""
        timing, head, entries, deferred, startup, budget = batch
        kwargs = dict(
            deferred_weight=deferred, node_budget=budget, startup_pending=startup
        )
        plan = optimal_order(timing, head, entries, BLOCK_MB, **kwargs)
        frozen = frozen_optimal_order(timing, head, entries, BLOCK_MB, **kwargs)
        if frozen.exact:
            assert plan.exact
            assert [id(entry) for entry in plan.order] == [
                id(entry) for entry in frozen.order
            ]
            assert plan.cost_s.hex() == frozen.cost_s.hex()
            return
        transitions = _Transitions(
            _BatchCost(timing, BLOCK_MB), head, entries, startup
        )
        forward, reverse = _split_passes(transitions.items, head)
        for seed in (forward + reverse, reverse + forward, transitions.greedy_order()):
            assert plan.cost_s <= transitions.order_cost(seed, deferred)


def root_floor_bound(transitions, deferred):
    """The search's node bound at the root: every block charged its
    arrival floor while its own and the deferred weight wait."""
    floors = transitions.arrival_floors()
    return sum(
        floor * (deferred + weight)
        for floor, weight in zip(floors, transitions.weights)
    )


def check_against_oracle(timing, block_mb, head, entries, deferred, startup, plan):
    """The three oracle claims on one batch of at most 10 blocks: an
    exact plan costs the optimum, the root floor bound stays below it,
    and so does the tape-level bound of a sweep that starts with the
    read startup pending and serves a request with every block."""
    model = _BatchCost(timing, block_mb)
    transitions = _Transitions(model, head, entries, startup)
    optimum = oracle_cost(transitions, deferred)
    if plan.exact:
        assert plan.cost_s == pytest.approx(optimum, rel=1e-12, abs=0.0)
    assert root_floor_bound(transitions, deferred) <= optimum * (1.0 + 1e-12)
    weights = transitions.weights
    if startup and entries and min(weights) >= 1.0:
        served = sum(weights)
        bound = pricing_kernel(timing, block_mb).tape_bound(
            float(head),
            [entry.position_mb for entry in transitions.items],
            served,
            deferred,
            0.0,
        )
        assert bound <= optimum / served * (1.0 + 1e-12), (bound, optimum)


@st.composite
def oracle_batches(draw):
    """A batch of 1-10 blocks drawn as :func:`batches` draws them, at
    the default node budget."""
    timing, head, entries, deferred, startup, _ = draw(batches())
    assume(1 <= len(entries) <= 10)
    return timing, head, entries, deferred, startup


class TestExhaustiveOracle:
    """The search, its node bound and the tape-level bound against an
    oracle that enumerates every read order."""

    @settings(max_examples=120, deadline=None)
    @given(batch=oracle_batches())
    def test_generated_batches(self, batch):
        timing, head, entries, deferred, startup = batch
        plan = optimal_order(
            timing,
            head,
            entries,
            BLOCK_MB,
            deferred_weight=deferred,
            startup_pending=startup,
        )
        check_against_oracle(
            timing, BLOCK_MB, head, entries, deferred, startup, plan
        )

    def test_batches_of_a_q60_run(self, monkeypatch):
        """Every batch of at most 10 blocks that a short closed Q-60
        ``exact-batch`` run plans, decisions and arrival replans alike."""
        planned = exact_module.optimal_order
        counts = {"checked": 0, "exact": 0, "span": 0}

        def checked(timing, head_mb, entries, block_mb, **kwargs):
            plan = planned(timing, head_mb, entries, block_mb, **kwargs)
            if len(entries) <= 10:
                startup = kwargs["startup_pending"]
                check_against_oracle(
                    timing,
                    block_mb,
                    head_mb,
                    entries,
                    kwargs["deferred_weight"],
                    startup,
                    plan,
                )
                counts["checked"] += 1
                counts["exact"] += plan.exact
                counts["span"] += startup
            return plan

        monkeypatch.setattr(exact_module, "optimal_order", checked)
        run(
            ExperimentConfig(
                scheduler="exact-batch", queue_length=60, horizon_s=20_000.0, seed=1
            )
        )
        assert counts == {"checked": 40, "exact": 40, "span": 25}


def test_golden_batches_are_never_dearer_than_the_frozen_search(monkeypatch):
    """Every batch the three ``exact-batch`` golden configs plan, run
    through the frozen search too: the plan's ``J`` is never above the
    frozen one, and is bit-identical wherever the frozen search ran to
    completion.  Under the starvation guard one budget-stopped batch
    gets cheaper, which is why that golden was re-pinned."""
    planned = exact_module.optimal_order
    counts = {"plans": 0, "frozen_exact": 0, "cheaper": 0}

    def compared(timing, head_mb, entries, block_mb, **kwargs):
        plan = planned(timing, head_mb, entries, block_mb, **kwargs)
        frozen = frozen_optimal_order(timing, head_mb, entries, block_mb, **kwargs)
        counts["plans"] += 1
        if frozen.exact:
            counts["frozen_exact"] += 1
            assert plan.cost_s.hex() == frozen.cost_s.hex()
        else:
            assert plan.cost_s <= frozen.cost_s
            counts["cheaper"] += plan.cost_s < frozen.cost_s
        return plan

    monkeypatch.setattr(exact_module, "optimal_order", compared)
    seen = {}
    for name in (
        "fig4_exact_batch",
        "fig4_exact_batch_multidrive3",
        "fig4_exact_batch_starvation_qos",
    ):
        run(GOLDEN_CASES[name])
        seen[name] = dict(counts)
        counts.update(plans=0, frozen_exact=0, cheaper=0)
    assert seen == {
        "fig4_exact_batch": {"plans": 175, "frozen_exact": 111, "cheaper": 0},
        "fig4_exact_batch_multidrive3": {
            "plans": 729,
            "frozen_exact": 729,
            "cheaper": 0,
        },
        "fig4_exact_batch_starvation_qos": {
            "plans": 134,
            "frozen_exact": 98,
            "cheaper": 1,
        },
    }
