"""The LTSP optimality baselines: brute-force proofs and composition.

The acceptance bar for ``exact-batch`` is *provable* optimality on every
instance small enough to enumerate: for batches of up to 8 distinct
blocks, :func:`optimal_order` must match the exhaustive minimum over all
permutations of the drive-exact objective, and every heuristic order
(sweep passes, greedy, best-pass) must cost at least as much.

The tape-level pruning of ``major_reschedule`` is checked against its
twin, the every-tape loop, on generated pending sets: same tape, same
order, bit-identical decision cost.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.base import coalesce_entries
from repro.core.exact import _BatchCost, _tape_lower_bound
from repro.core.policies import jukebox_order
from repro.core.sweep import ServiceEntry
from repro.tape.timing import DriveTimingModel
from repro.workload import RequestFactory

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
    model = _BatchCost(timing, block_mb)
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
        bound = _tape_lower_bound(model, head, entries, served, deferred, overhead_s)
        # The bound and the cost sum the same terms in different orders,
        # so allow rounding, far inside the scheduler's pruning slack.
        assert bound <= cost * (1.0 + 1e-12), (tape_id, bound, cost)
        if best is None or cost < best[2]:
            best = (tape_id, order, cost)
    return best


@st.composite
def pending_sets(draw):
    """A jukebox of 2-8 tapes, replicated blocks, a pending set over them,
    an optional mounted tape with a head position, and a drive count."""
    tape_count = draw(st.integers(min_value=2, max_value=8))
    # Positions on a 16 MB grid (so reads can stream back to back) or
    # anywhere on the tape.
    position = st.one_of(
        st.integers(min_value=0, max_value=60).map(lambda slot: slot * 16.0),
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
    return catalog_from(placements), tape_count, requested, mounted, head, drive_count


class TestTapePruning:
    @settings(max_examples=150, deadline=None)
    @given(instance=pending_sets())
    def test_pruned_decision_matches_every_tape_loop(self, instance):
        catalog, tape_count, requested, mounted, head, drive_count = instance
        factory = RequestFactory()
        requests = [
            factory.create(block_id=block_id, arrival_s=0.0)
            for block_id in requested
        ]

        def fresh_context():
            context = make_context(
                catalog, tape_count=tape_count, mounted=mounted, head_mb=head
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
