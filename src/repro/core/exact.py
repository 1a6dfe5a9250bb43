"""LTSP optimality baselines: exact and approximate batch sequencing.

The paper compares its scheduler families only against each other, never
against *optimal*, so it cannot say how much headroom a heuristic leaves
on the table.  The Linear Tape Scheduling Problem (LTSP) literature
supplies the missing baseline: sequencing a batch of reads on one linear
tape to minimize the sum of (weighted) completion times.  "An Exact
Algorithm for the Linear Tape Scheduling Problem" (arXiv 2112.09384)
solves the single-tape problem exactly; "On Approximate Sequencing
Policies" (arXiv 2112.07018) gives cheap near-optimal policies.  The
multi-tape *assignment* remains NP-hard (the paper's own Theorem 1), so
these families keep the per-sweep batch structure of the static family
— serve every pending request the chosen tape can satisfy — and
optimize the two decisions that remain: which tape, and in what order.

Three schedulers:

* ``exact-batch`` — per-sweep exact optimizer: branch-and-bound with
  memoization over (served-subset, last-read) states, drive-exact
  transition costs, and a configurable node budget that falls back to
  the best order found so far (seeded with both sweep passes and the
  greedy policy, so the fallback is never worse than those).
* ``approx-greedy-cost`` — the classic minimum-latency greedy: always
  read next the block with the smallest time-per-satisfied-request
  ratio (2112.07018's cost-over-weight sequencing intuition).
* ``approx-best-pass`` — evaluate the two canonical single-pass orders
  (forward-then-reverse, reverse-then-forward) under the exact cost
  model and execute the cheaper one.

The decision objective ``J`` charges every pending request for the time
this decision makes it wait: requests served by the sweep wait until
their read completes; requests deferred to other tapes wait for the
whole sweep (including any tape-switch overhead).  Minimizing ``J``
per decision minimizes the decision's total response-time contribution.

All transition arithmetic mirrors :class:`repro.tape.drive.TapeDrive`
exactly (same rules as :func:`repro.core.cost.sweep_cost`), so planned
costs equal what the simulated hardware will do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..tape.timing import DriveTimingModel
from ..workload.requests import Request
from .base import MajorDecision, Scheduler, SchedulerContext, coalesce_entries
from .policies import jukebox_order
from .sweep import ServiceEntry, SweepPhase

#: Search nodes (partial orders extended by one read) per batch
#: optimization before the exact search stops and returns the best order
#: found so far.  Exhaustive search of a batch of ``m`` distinct blocks
#: visits at most ``2^m * m^2 / 2`` nodes in the worst case; the memo and
#: lower-bound pruning reach far fewer, so the default keeps batches of
#: ~10 blocks exact while bounding the cost of pathological batches.
DEFAULT_NODE_BUDGET = 50_000

#: Relative slack on the tape-level lower bound.  The bound and the
#: evaluated cost sum the same terms in different orders, so a tight
#: bound can land an ulp above the cost; the slack keeps rounding from
#: ever pruning the winning tape.
_BOUND_SLACK = 1e-9


class _BatchCost:
    """Drive-exact transition arithmetic for one (timing, block size)."""

    __slots__ = (
        "block_mb",
        "read_plain_s",
        "read_startup_s",
        "_locate_forward",
        "_locate_reverse",
    )

    def __init__(self, timing: DriveTimingModel, block_mb: float) -> None:
        self.block_mb = float(block_mb)
        self.read_plain_s = timing.read(block_mb, startup=False)
        self.read_startup_s = timing.read(block_mb, startup=True)
        self._locate_forward = timing.locate_forward
        self._locate_reverse = timing.locate_reverse

    def step(
        self, head_mb: float, startup_pending: bool, position_mb: float
    ) -> Tuple[float, float, bool]:
        """Locate to ``position_mb`` and read one block.

        Returns ``(seconds, end_head_mb, startup_pending_after)`` with
        the same state rules as the drive: a forward locate re-arms the
        read startup, a reverse locate clears it, a zero-distance locate
        leaves it unchanged, and any read clears it.
        """
        if position_mb > head_mb:
            seconds = self._locate_forward(position_mb - head_mb)
            startup_pending = True
        elif position_mb < head_mb:
            seconds = self._locate_reverse(
                head_mb - position_mb, lands_on_bot=(position_mb == 0)
            )
            startup_pending = False
        else:
            seconds = 0.0
        seconds += self.read_startup_s if startup_pending else self.read_plain_s
        return seconds, position_mb + self.block_mb, False


def _entry_weight(entry: ServiceEntry) -> float:
    return float(len(entry.requests))


def _order_cost(
    model: _BatchCost,
    head_mb: float,
    order: Sequence[ServiceEntry],
    deferred_weight: float,
    startup_pending: bool,
) -> float:
    """The objective ``J`` of executing ``order`` from ``head_mb``."""
    pending_weight = deferred_weight + sum(_entry_weight(entry) for entry in order)
    head = float(head_mb)
    startup = startup_pending
    total = 0.0
    for entry in order:
        seconds, head, startup = model.step(head, startup, entry.position_mb)
        total += seconds * pending_weight
        pending_weight -= _entry_weight(entry)
    return total


def order_cost(
    timing: DriveTimingModel,
    head_mb: float,
    order: Sequence[ServiceEntry],
    block_mb: float,
    deferred_weight: float = 0.0,
    startup_pending: bool = True,
) -> float:
    """Weighted completion-time objective of executing ``order``.

    Each entry contributes ``weight * completion_time`` (weight = number
    of coalesced requests); ``deferred_weight`` requests additionally
    wait for the full execution time.
    """
    model = _BatchCost(timing, block_mb)
    return _order_cost(model, head_mb, order, deferred_weight, startup_pending)


def _split_passes(
    entries: Sequence[ServiceEntry], head_mb: float
) -> Tuple[List[int], List[int]]:
    """Indices of ``entries`` at/after and before ``head_mb``, each in the
    order a sweep pass reads them (forward ascending, reverse descending)."""
    forward = sorted(
        (i for i, entry in enumerate(entries) if entry.position_mb >= head_mb),
        key=lambda i: (entries[i].position_mb, entries[i].block_id),
    )
    reverse = sorted(
        (i for i, entry in enumerate(entries) if entry.position_mb < head_mb),
        key=lambda i: (-entries[i].position_mb, entries[i].block_id),
    )
    return forward, reverse


def sweep_order(
    entries: Sequence[ServiceEntry], head_mb: float
) -> List[ServiceEntry]:
    """The paper's forward-then-reverse pass over ``entries``."""
    forward, reverse = _split_passes(entries, head_mb)
    return [entries[i] for i in forward + reverse]


def reverse_first_order(
    entries: Sequence[ServiceEntry], head_mb: float
) -> List[ServiceEntry]:
    """The mirrored pass: reverse phase first, then the forward phase."""
    forward, reverse = _split_passes(entries, head_mb)
    return [entries[i] for i in reverse + forward]


class _Transitions:
    """Every transition cost of one batch, built once.

    The drive state after reading block ``i`` is fully determined (head
    just past ``i``, startup cleared), so every transition cost is
    precomputable: one ``count``-vector for the root state and one
    ``count x count`` matrix between reads, plus per-predecessor child
    orders (cheapest time-per-weight first).  Orders are index lists
    into ``items`` (the entries sorted by position, then block id).
    """

    __slots__ = (
        "items",
        "weights",
        "root_cost",
        "step_cost",
        "root_rank",
        "step_rank",
    )

    def __init__(
        self,
        model: _BatchCost,
        head_mb: float,
        entries: Sequence[ServiceEntry],
        startup_pending: bool,
    ) -> None:
        items = sorted(entries, key=lambda entry: (entry.position_mb, entry.block_id))
        count = len(items)
        weights = [_entry_weight(entry) for entry in items]
        positions = [entry.position_mb for entry in items]

        def ranked(costs: Sequence[float]) -> List[int]:
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

    def order_cost(self, order: Sequence[int], deferred_weight: float) -> float:
        """The objective ``J`` of ``order``; same arithmetic as
        :func:`_order_cost`, so the two agree bit for bit."""
        weights = self.weights
        pending_weight = deferred_weight + sum(weights[i] for i in order)
        costs = self.root_cost
        total = 0.0
        for i in order:
            total += costs[i] * pending_weight
            pending_weight -= weights[i]
            costs = self.step_cost[i]
        return total

    def greedy_order(self) -> List[int]:
        """Minimum-latency greedy: from each state, the first unread
        block of its time-per-request ranking."""
        unread = [True] * len(self.items)
        ranked = self.root_rank
        order: List[int] = []
        for _ in range(len(unread)):
            for index in ranked:
                if unread[index]:
                    break
            unread[index] = False
            order.append(index)
            ranked = self.step_rank[index]
        return order


def greedy_cost_order(
    timing: DriveTimingModel,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    block_mb: float,
    startup_pending: bool = True,
) -> List[ServiceEntry]:
    """Minimum-latency greedy: cheapest time-per-request read next."""
    transitions = _Transitions(
        _BatchCost(timing, block_mb), head_mb, entries, startup_pending
    )
    return [transitions.items[i] for i in transitions.greedy_order()]


def best_pass_order(
    timing: DriveTimingModel,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    block_mb: float,
    deferred_weight: float = 0.0,
    startup_pending: bool = True,
) -> List[ServiceEntry]:
    """The cheaper of the two single-pass orders under the exact cost."""
    model = _BatchCost(timing, block_mb)
    forward_first = sweep_order(entries, head_mb)
    reverse_first = reverse_first_order(entries, head_mb)
    forward_cost = _order_cost(
        model, head_mb, forward_first, deferred_weight, startup_pending
    )
    reverse_cost = _order_cost(
        model, head_mb, reverse_first, deferred_weight, startup_pending
    )
    return reverse_first if reverse_cost < forward_cost else forward_first


@dataclass(frozen=True)
class BatchPlan:
    """Result of one batch optimization."""

    order: Tuple[ServiceEntry, ...]
    cost_s: float
    #: True when the search ran to completion (the order is provably
    #: optimal); False when the node budget stopped it early and
    #: ``order`` is the best found so far.
    exact: bool
    nodes: int


def optimal_order(
    timing: DriveTimingModel,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    block_mb: float,
    deferred_weight: float = 0.0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    startup_pending: bool = True,
) -> BatchPlan:
    """Optimal execution order of ``entries`` under the ``J`` objective.

    Branch-and-bound over read permutations with memoization on
    (served-subset, last-read) states — the drive state after a read is
    fully determined by that pair, so dominated prefixes are cut — plus
    a read-time lower bound.  The incumbent is seeded with both
    single-pass orders and the greedy policy, so even when
    ``node_budget`` exhausts the search the returned order is at least
    as good as every approximation policy in this module.
    """
    model = _BatchCost(timing, block_mb)
    transitions = _Transitions(model, head_mb, entries, startup_pending)
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
    best_order: List[int] = []
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
    path: List[int] = []
    nodes = 0
    exhausted = False

    def search(
        mask: int,
        last: int,
        accrued: float,
        pending_weight: float,
        remaining: int,
    ) -> None:
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
            # Every remaining block still needs at least one plain read,
            # during which its own weight and the deferred weight are
            # still waiting: a sound, cheap lower bound on the rest.
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


def _tape_lower_bound(
    model: _BatchCost,
    head_mb: float,
    entries: Sequence[ServiceEntry],
    served: float,
    deferred_weight: float,
    overhead_s: float,
) -> float:
    """Lower bound on a tape's normalized decision cost, any read order.

    All ``served + deferred_weight`` requests wait through the switch
    overhead and the first read, which costs at least the cheapest root
    transition (a sweep starts with the read startup pending).  Each of
    the other ``k - 1`` reads costs at least one plain read, while at
    least ``deferred_weight + m`` requests still wait when ``m`` blocks
    remain.  Dividing by ``served`` matches the per-request
    normalization of :meth:`_BatchScheduler.major_reschedule`.
    """
    charged = served + deferred_weight
    first_read = min(
        model.step(float(head_mb), True, entry.position_mb)[0] for entry in entries
    )
    later_waiting = sum(deferred_weight + m for m in range(1, len(entries)))
    return (
        overhead_s * charged + charged * first_read + model.read_plain_s * later_waiting
    ) / served


class OrderedServiceList:
    """Executes a precomputed read order; interface-compatible with
    :class:`~repro.core.sweep.ServiceList`.

    Unlike the sweep list, the order is explicit, so insertions are
    always accepted; when a ``replan`` callback is supplied, each
    insertion re-optimizes the not-yet-started remainder from the head
    state the next pop will see.
    """

    def __init__(
        self,
        entries: Sequence[ServiceEntry],
        head_mb: float,
        block_mb: float = 0.0,
        replan: Optional[
            Callable[[float, bool, List[ServiceEntry]], Sequence[ServiceEntry]]
        ] = None,
    ) -> None:
        self.start_head_mb = float(head_mb)
        self._entries: List[ServiceEntry] = list(entries)
        self._head_mb = float(head_mb)
        self._block_mb = float(block_mb)
        self._startup_pending = True
        self._in_flight: Optional[ServiceEntry] = None
        self._replan = replan

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        """True when no reads remain to be started."""
        return not self._entries

    @property
    def in_flight(self) -> Optional[ServiceEntry]:
        """The entry currently being read, if any."""
        return self._in_flight

    @property
    def phase(self) -> SweepPhase:
        """An explicit order has no phases; report DONE only when empty."""
        return SweepPhase.DONE if self.is_empty else SweepPhase.FORWARD

    def remaining(self) -> List[ServiceEntry]:
        """Entries not yet started, in execution order."""
        return list(self._entries)

    def remaining_positions(self) -> List[float]:
        """Positions of not-yet-started entries, in execution order."""
        return [entry.position_mb for entry in self._entries]

    def find_block(self, block_id: int) -> Optional[ServiceEntry]:
        """The first not-yet-started entry for ``block_id``, or ``None``."""
        for entry in self._entries:
            if entry.block_id == block_id:
                return entry
        return None

    # -- execution ---------------------------------------------------------
    def pop_next(self) -> ServiceEntry:
        """Dequeue the next planned read and mark it in-flight."""
        if not self._entries:
            raise IndexError("pop from an empty service list")
        entry = self._entries.pop(0)
        self._in_flight = entry
        return entry

    def finish_in_flight(self) -> None:
        """Mark the in-flight read complete and advance the head model."""
        if self._in_flight is not None:
            self._head_mb = self._in_flight.position_mb + self._block_mb
            self._startup_pending = False
        self._in_flight = None

    def planning_state(self) -> Tuple[float, bool]:
        """Head position and startup state the next pop will start from."""
        if self._in_flight is not None:
            return self._in_flight.position_mb + self._block_mb, False
        return self._head_mb, self._startup_pending

    def adopt(self, order: Sequence[ServiceEntry]) -> None:
        """Replace the not-yet-started remainder with ``order``."""
        self._entries = list(order)

    # -- insertion ----------------------------------------------------------
    def can_insert(self, position_mb: float) -> bool:
        """An explicit order can always accommodate one more read."""
        return True

    def insert(self, entry: ServiceEntry) -> bool:
        """Add ``entry`` and re-optimize the not-yet-started remainder."""
        self._entries.append(entry)
        if self._replan is not None and len(self._entries) > 1:
            head, startup = self.planning_state()
            self._entries = list(self._replan(head, startup, list(self._entries)))
        return True


class _BatchScheduler(Scheduler):
    """Shared chassis of the LTSP families.

    The major rescheduler keeps the static family's batch structure —
    serve *all* pending requests the chosen tape can satisfy — but
    plans the read order with the family's sequencing policy and picks
    the tape minimizing the full objective ``J`` (switch overhead is
    charged against every pending request).  Tapes are planned
    cheapest-lower-bound first, and a tape whose bound cannot beat the
    best tape so far is never planned.  The incremental scheduler
    absorbs arrivals for the mounted tape and re-plans the remainder.
    """

    def __init__(self) -> None:
        self._timing: Optional[DriveTimingModel] = None
        self._block_mb: float = 0.0
        self._deferred: float = 0.0
        self._planned: Optional[List[ServiceEntry]] = None
        self._planned_head: Optional[float] = None
        #: Objective value of the last major decision (test/debug hook).
        self.last_decision_cost: Optional[float] = None

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        """The family's sequencing policy; returns an execution order."""
        raise NotImplementedError

    def _planned_cost(
        self, head_mb: float, order: List[ServiceEntry], deferred_weight: float
    ) -> float:
        """``J`` of the order :meth:`plan` just returned."""
        return order_cost(
            self._timing, head_mb, order, self._block_mb, deferred_weight
        )

    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        if len(context.pending) == 0:
            return None
        candidates = context.pending.candidate_tapes()
        timing = context.jukebox.timing
        block_mb = context.block_mb
        self._timing = timing
        self._block_mb = block_mb
        model = _BatchCost(timing, block_mb)
        total = float(len(context.pending))
        mounted = context.mounted_id
        anchor = mounted if mounted is not None else 0
        # Deferred requests are drained concurrently by the jukebox's
        # other drives (if any), so each one effectively waits only a
        # 1/drive_count share of this sweep.  With one drive this is a
        # no-op; under the multi-drive service it stops the objective
        # from over-penalizing deferral and over-absorbing per sweep.
        defer_scale = 1.0 / float(max(context.drive_count, 1))
        options = []
        for rank, tape_id in enumerate(jukebox_order(context.tape_count, anchor)):
            requests = candidates.get(tape_id)
            if not requests:
                continue
            entries = coalesce_entries(requests, tape_id, context.catalog)
            served = float(len(requests))
            deferred = (total - served) * defer_scale
            if tape_id == mounted:
                head = context.head_mb
                overhead_s = 0.0
            else:
                head = 0.0
                rewind_from = context.head_mb if mounted is not None else 0.0
                overhead_s = timing.switch_with_rewind(rewind_from)
            bound = _tape_lower_bound(
                model, head, entries, served, deferred, overhead_s
            )
            options.append(
                (bound, rank, tape_id, requests, entries, head, deferred, overhead_s)
            )
        # Tape-level branch and bound: plan tapes in ascending bound order
        # and stop once no remaining tape's bound can reach the incumbent.
        # Minimizing (cost, jukebox rank) picks the same tape as planning
        # every tape and keeping the first strict minimum in jukebox order.
        options.sort(key=lambda option: option[:2])
        best: Optional[
            Tuple[float, int, int, List[ServiceEntry], List[Request], float, float]
        ] = None
        for option in options:
            bound, rank, tape_id, requests, entries, head, deferred, overhead_s = option
            if best is not None and bound > best[0] * (1.0 + _BOUND_SLACK):
                break
            order = self.plan(timing, head, entries, block_mb, deferred)
            charged = float(len(requests)) + deferred
            cost = overhead_s * charged + self._planned_cost(head, order, deferred)
            # Renewal-reward normalization: competing sweeps serve
            # different numbers of requests, so the steady-state-optimal
            # choice minimizes waiting cost *per request served*, not
            # the absolute cost of one decision (which would favour
            # tiny, quick sweeps and starve throughput).
            cost /= float(len(requests))
            if best is None or (cost, rank) < best[:2]:
                best = (cost, rank, tape_id, order, requests, head, deferred)
        if best is None:
            return None
        cost, _, tape_id, order, requests, head, deferred = best
        context.pending.remove_many(requests)
        self._planned = order
        self._planned_head = head
        self._deferred = deferred
        self.last_decision_cost = cost
        return MajorDecision(tape_id=tape_id, entries=list(order))

    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        service = context.service
        mounted = context.mounted_id
        if service is None or mounted is None:
            context.pending.append(request)
            return False
        if not context.catalog.has_replica_on(request.block_id, mounted):
            context.pending.append(request)
            return False
        existing = service.find_block(request.block_id)
        if existing is not None:
            existing.attach(request)
            return True
        replica = context.catalog.replica_on(request.block_id, mounted)
        entry = ServiceEntry(
            position_mb=replica.position_mb,
            block_id=request.block_id,
            requests=[request],
        )
        if service.insert(entry):
            return True
        context.pending.append(request)
        return False

    def build_service_list(self, entries: List[ServiceEntry], head_mb: float):
        planned = self._planned
        self._planned = None
        if (
            planned is not None
            and self._planned_head == head_mb
            and len(planned) == len(entries)
            and all(a is b for a, b in zip(planned, entries))
        ):
            order: Sequence[ServiceEntry] = planned
        elif self._timing is not None:
            # Foreign entries (e.g. a starvation-guard forced decision):
            # plan them fresh with the family's sequencing policy.
            order = self.plan(
                self._timing, head_mb, list(entries), self._block_mb, self._deferred
            )
        else:
            order = sweep_order(entries, head_mb)
        return OrderedServiceList(
            order, head_mb=head_mb, block_mb=self._block_mb, replan=self._replan
        )

    def _replan(
        self, head_mb: float, startup_pending: bool, entries: List[ServiceEntry]
    ) -> Sequence[ServiceEntry]:
        if self._timing is None:
            return sweep_order(entries, head_mb)
        return self.plan(
            self._timing,
            head_mb,
            entries,
            self._block_mb,
            self._deferred,
            startup_pending=startup_pending,
        )


class ExactBatchScheduler(_BatchScheduler):
    """Exact per-sweep batch optimizer (arXiv 2112.09384 baseline)."""

    name = "exact-batch"

    def __init__(self, node_budget: int = DEFAULT_NODE_BUDGET) -> None:
        super().__init__()
        self.node_budget = int(node_budget)
        #: The most recent :class:`BatchPlan` (test/debug hook).
        self.last_plan: Optional[BatchPlan] = None

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        plan = optimal_order(
            timing,
            head_mb,
            entries,
            block_mb,
            deferred_weight=deferred_weight,
            node_budget=self.node_budget,
            startup_pending=startup_pending,
        )
        self.last_plan = plan
        return list(plan.order)

    def _planned_cost(
        self, head_mb: float, order: List[ServiceEntry], deferred_weight: float
    ) -> float:
        """The search accrues ``J`` with :func:`order_cost`'s arithmetic, so
        the plan's cost equals re-costing its order bit for bit."""
        return self.last_plan.cost_s


class GreedyCostScheduler(_BatchScheduler):
    """Minimum-latency greedy sequencing (arXiv 2112.07018 family)."""

    name = "approx-greedy-cost"

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        return greedy_cost_order(
            timing, head_mb, entries, block_mb, startup_pending=startup_pending
        )


class BestPassScheduler(_BatchScheduler):
    """Best of the two single-pass orders (arXiv 2112.07018 family)."""

    name = "approx-best-pass"

    def plan(
        self,
        timing: DriveTimingModel,
        head_mb: float,
        entries: List[ServiceEntry],
        block_mb: float,
        deferred_weight: float,
        startup_pending: bool = True,
    ) -> List[ServiceEntry]:
        return best_pass_order(
            timing,
            head_mb,
            entries,
            block_mb,
            deferred_weight=deferred_weight,
            startup_pending=startup_pending,
        )
