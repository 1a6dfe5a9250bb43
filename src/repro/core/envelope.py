"""The envelope-extension scheduling algorithm (paper Section 3.2).

The algorithm takes a global view across tapes.  The requests for
*non-replicated* blocks pin down, per tape, a prefix that must be
traversed no matter what — the initial *envelope*.  Requests whose
replicas already fall inside the envelope are absorbed for free; the
remaining requests are scheduled by repeatedly extending the envelope
with the prefix of some tape's outstanding requests that maximizes
*incremental bandwidth* (bytes gained per second of extra traversal),
then shrinking the envelope wherever a replicated block just became
reachable more cheaply on the newly extended tape.

The resulting *upper envelope* covers every pending request; a standard
tape-selection policy then picks which tape to visit first, and all
requests satisfiable inside the envelope on that tape form the sweep.

With no replicated blocks every request is its own envelope pin, steps
3-6 degenerate to absorbing each request on its only tape, and each
tape's satisfiable set is exactly its pending requests.  The paper
remarks that envelope then "degenerates into the dynamic max-bandwidth
algorithm".  Here that holds bit for bit for the request-count policies
(``envelope-max-requests`` and ``envelope-oldest-max-requests`` report
the same digests as their ``dynamic-*`` twins) but not for
max-bandwidth: :meth:`EnvelopeScheduler.major_reschedule` hands the
policy one position per coalesced block, while the dynamic scheduler's
:meth:`~repro.core.pending.PendingList.positions_on` lists one per
request, so several pending requests for one block weigh a tape's
bandwidth estimate differently.

Performance model
-----------------
Every major reschedule rebuilds the computer's working state — the
per-block replica cache and the per-tape candidate rows, sorted by
``(position, request_id)`` — from the pending snapshot.  Keeping those
rows between decisions only moved the same work into the pending list's
append/remove path: measured end to end on the Fig. 8 regime it saved
nothing, so the rebuild is the only path.  Inside one compute, the
step-3 search prices each tape's prefixes with one call to the timing
model's pricing kernel (:func:`~repro.core.cost.pricing_kernel`), keeps
each tape's candidate list and result across rounds until its envelope
or candidate set moves, and the absorb rescan after an extension only
visits requests whose replica on the extended tape newly fell inside
the envelope — the only requests whose absorption status can change.

The decision then reads each tape's satisfiable set off those rows
(:meth:`EnvelopeComputer.satisfiable_rows`): the rows are sorted by
position and float addition is monotone, so the requests a tape
satisfies within the upper envelope are a prefix of its rows, its
block positions are that prefix without repeats, and the winner's
requests return to arrival order with one filter of the snapshot.  An
arrival during a sweep can only join it through the mounted tape, so a
block without a copy there goes straight to the pending list; otherwise
the kernel's one-block extension bandwidth prices the copies outside
their envelopes until one beats the mounted copy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..layout.catalog import BlockCatalog, Replica
from ..tape.timing import DriveTimingModel
from ..workload.requests import Request
from .base import MajorDecision, Scheduler, SchedulerContext, coalesce_entries
from .cost import HelicalKernel, MethodKernel, pricing_kernel
from .policies import SelectionContext, TapeSelectionPolicy, jukebox_order
from .sweep import ServiceEntry

#: A candidate row: one pending request's copy on one tape.
_Row = Tuple[float, int, Request, Replica]

#: Sort/bisect key of a candidate row
#: ``(position_mb, request_id, request, replica)``.
_row_position = itemgetter(0)


@lru_cache(maxsize=256)
def _rank_after(tape_count: int, start_at: int) -> Dict[int, int]:
    """``tape_id -> rank`` in jukebox order starting at ``start_at``.

    Ranks depend only on ``(tape_count, start_at)``, so the dicts are
    shared across computers and calls.  Callers must treat the returned
    dict as read-only.
    """
    return {
        tape_id: rank
        for rank, tape_id in enumerate(jukebox_order(tape_count, start_at))
    }


@dataclass
class EnvelopeState:
    """The upper envelope and the per-request replica assignment."""

    #: Per-tape envelope position: the head position after reading the
    #: highest scheduled block on that tape (0 when the tape is untouched).
    envelope: Dict[int, float] = field(default_factory=dict)
    #: request_id -> the replica chosen to satisfy it.
    assignment: Dict[int, Replica] = field(default_factory=dict)
    #: Per-tape count of requests currently assigned to it.
    scheduled_count: Dict[int, int] = field(default_factory=dict)

    def assign(self, request: Request, replica: Replica) -> None:
        """Bind ``request`` to ``replica``, updating the per-tape counts."""
        previous = self.assignment.get(request.request_id)
        if previous is not None:
            self.scheduled_count[previous.tape_id] -= 1
        self.assignment[request.request_id] = replica
        self.scheduled_count[replica.tape_id] = (
            self.scheduled_count.get(replica.tape_id, 0) + 1
        )


class EnvelopeComputer:
    """Runs steps 1-6 of the major rescheduler's envelope construction."""

    def __init__(
        self,
        timing: DriveTimingModel,
        catalog: BlockCatalog,
        tape_count: int,
        mounted_id: Optional[int],
        head_mb: float,
        enable_shrink: bool = True,
    ) -> None:
        self._timing = timing
        self._catalog = catalog
        self._tape_count = tape_count
        self._mounted_id = mounted_id
        self._head_mb = head_mb
        self._block_mb = catalog.block_mb
        #: Step 5 (envelope shrinking) can be disabled for ablation
        #: studies of the algorithm's design choices.
        self._enable_shrink = enable_shrink
        # Per-compute working state, rebuilt at the top of ``compute``.
        self._request_index: Dict[int, Request] = {}
        self._replicas_of: Dict[int, Tuple[Replica, ...]] = {}
        self._by_tape: Dict[int, List[_Row]] = {}

    # -- helpers --------------------------------------------------------
    def _rank_after_mounted(self) -> Dict[int, int]:
        anchor = self._mounted_id if self._mounted_id is not None else -1
        return _rank_after(self._tape_count, anchor + 1)

    def _inside(self, replica: Replica, state: EnvelopeState) -> bool:
        return replica.position_mb + self._block_mb <= state.envelope.get(
            replica.tape_id, 0.0
        )

    def _choose_absorption_replica(
        self, candidates: List[Replica], state: EnvelopeState, rank: Dict[int, int]
    ) -> Replica:
        """Step 2 tie-break: mounted tape first, else max scheduled count,
        then first in jukebox order after the mounted tape."""
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

    def _build_working_state(self, requests: Sequence[Request]) -> None:
        """Replica cache + per-tape rows sorted by ``(position, request_id)``.

        A request has at most one row per tape, so request ids are
        unique within a tape's rows and the natural tuple order never
        compares past the id.
        """
        catalog = self._catalog
        replicas_of: Dict[int, Tuple[Replica, ...]] = {}
        by_tape: Dict[int, List[_Row]] = {}
        for request in requests:
            block_id = request.block_id
            replicas = replicas_of.get(block_id)
            if replicas is None:
                replicas = replicas_of[block_id] = catalog.replicas_of(block_id)
            for replica in replicas:
                by_tape.setdefault(replica.tape_id, []).append(
                    (replica.position_mb, request.request_id, request, replica)
                )
        for rows in by_tape.values():
            rows.sort()
        self._replicas_of = replicas_of
        self._by_tape = by_tape

    # -- the algorithm ---------------------------------------------------
    def compute(self, requests: Sequence[Request]) -> EnvelopeState:
        """Compute the upper envelope covering all ``requests``.

        ``requests`` is not copied: the single defensive copy in the
        scheduling path is the caller's ``pending.snapshot()`` (or an
        equivalent list the caller owns).  Pass a sequence that will not
        be mutated while this call runs — do **not** wrap the argument
        in another ``list(...)``.

        Replica lookups are resolved against the catalog once, up
        front; the catalog cannot change during this synchronous call,
        so the cached answers are exactly what per-step queries would
        have returned.
        """
        self._request_index = {request.request_id: request for request in requests}
        self._build_working_state(requests)
        replicas_of = self._replicas_of
        by_tape = self._by_tape

        state = EnvelopeState(
            envelope={tape_id: 0.0 for tape_id in range(self._tape_count)}
        )
        rank = self._rank_after_mounted()
        block_mb = self._block_mb

        # Step 1: pin the envelope with the highest non-replicated request
        # per tape, and with the current head on the mounted tape.
        for request in requests:
            replicas = replicas_of[request.block_id]
            if len(replicas) == 1:
                replica = replicas[0]
                end = replica.position_mb + block_mb
                if end > state.envelope[replica.tape_id]:
                    state.envelope[replica.tape_id] = end
        if self._mounted_id is not None:
            state.envelope[self._mounted_id] = max(
                state.envelope[self._mounted_id], self._head_mb
            )

        # Step 2: absorb everything already inside the envelope.  With a
        # single copy the tie-break trivially returns it, so the common
        # unreplicated case skips the candidate scan entirely.  All
        # assignments here are first-time (nothing is assigned yet), so
        # the ``state.assign`` bookkeeping inlines to two dict writes —
        # the same applies to every absorb/extend assignment below
        # (only step 5's *re*-assignments need the full method).
        envelope = state.envelope
        assignment = state.assignment
        counts = state.scheduled_count
        counts_get = counts.get
        mounted = self._mounted_id
        unscheduled: List[Request] = []
        for request in requests:
            replicas = replicas_of[request.block_id]
            if len(replicas) == 1:
                replica = replicas[0]
                tape = replica.tape_id
                if replica.position_mb + block_mb <= envelope[tape]:
                    assignment[request.request_id] = replica
                    counts[tape] = counts_get(tape, 0) + 1
                else:
                    unscheduled.append(request)
                continue
            chosen_replica = None
            chosen_key = None
            for replica in replicas:
                tape = replica.tape_id
                if replica.position_mb + block_mb <= envelope[tape]:
                    if tape == mounted:
                        chosen_replica = replica
                        break
                    key = (counts_get(tape, 0), -rank[tape])
                    if chosen_key is None or key > chosen_key:
                        chosen_key = key
                        chosen_replica = replica
            if chosen_replica is not None:
                tape = chosen_replica.tape_id
                assignment[request.request_id] = chosen_replica
                counts[tape] = counts_get(tape, 0) + 1
            else:
                unscheduled.append(request)

        # Steps 3-6: extend until every request is covered.  Between
        # extensions, only the just-extended tape's envelope grew
        # (shrinking only lowers other tapes), so a request can newly
        # fall inside the envelope only through a replica on that tape
        # whose end landed in the extended window — ``newly`` names
        # those candidates and the rescan skips everything else.  On
        # first entry nothing has been extended since step 2 checked the
        # very same envelope, so the rescan is skipped entirely.
        #
        # The step-3 search is likewise incremental across rounds: a
        # tape's candidate list and best (bandwidth, prefix length) only
        # change when its envelope moved (extension or shrink) or when a
        # request with a replica on it left the unscheduled set.
        # ``extension_cache`` keeps per-tape (live rows, bandwidth,
        # length); ``stale`` maps each tape the next round must redo to
        # *how* its inputs moved — "ids" (requests left: refilter the
        # cached list), "grew" (envelope advanced: bisect + refilter),
        # "full" (envelope receded: rescan the tape's rows).  ``None``
        # means everything is stale (first round).
        newly: Optional[Set[int]] = None
        extension_cache: Dict[int, tuple] = {}
        stale: Optional[Dict[int, str]] = None
        while unscheduled:
            if newly:
                still_outside: List[Request] = []
                for request in unscheduled:
                    if request.request_id not in newly:
                        still_outside.append(request)
                        continue
                    replicas = replicas_of[request.block_id]
                    chosen_replica = None
                    chosen_key = None
                    for replica in replicas:
                        tape = replica.tape_id
                        if replica.position_mb + block_mb <= envelope[tape]:
                            if tape == mounted:
                                chosen_replica = replica
                                break
                            key = (counts_get(tape, 0), -rank[tape])
                            if chosen_key is None or key > chosen_key:
                                chosen_key = key
                                chosen_replica = replica
                    if chosen_replica is not None:
                        tape = chosen_replica.tape_id
                        assignment[request.request_id] = chosen_replica
                        counts[tape] = counts_get(tape, 0) + 1
                        if stale is not None:
                            # An absorbed request leaves the unscheduled
                            # set; tapes where its replicas sat at or
                            # beyond the envelope see a different scan.
                            for replica in replicas:
                                if replica.position_mb >= envelope[replica.tape_id]:
                                    stale.setdefault(replica.tape_id, "ids")
                    else:
                        still_outside.append(request)
                unscheduled = still_outside
            if not unscheduled:
                break

            chosen = self._best_extension(
                unscheduled, state, rank, extension_cache, stale
            )
            if chosen is None:  # pragma: no cover - every request has a replica
                raise RuntimeError("unscheduled requests with no extension candidates")
            tape_id, prefix = chosen

            # Step 4: extend the envelope through the chosen prefix.
            old_envelope = envelope[tape_id]
            new_envelope = prefix[-1][0] + block_mb
            envelope[tape_id] = new_envelope
            stale = {tape_id: "grew"}
            all_stale = self._tape_count == 1
            prefix_ids = set()
            for row in prefix:
                request_id = row[1]
                assignment[request_id] = row[3]
                prefix_ids.add(request_id)
                if all_stale:
                    continue
                # A scheduled request leaves every other tape's candidate
                # pool; only tapes scanning past its replica notice.
                for replica in replicas_of[row[2].block_id]:
                    if replica.position_mb >= envelope[replica.tape_id]:
                        stale.setdefault(replica.tape_id, "ids")
                all_stale = len(stale) == self._tape_count
            counts[tape_id] = counts_get(tape_id, 0) + len(prefix)
            unscheduled = [
                request
                for request in unscheduled
                if request.request_id not in prefix_ids
            ]

            # Candidates for the next absorb rescan: rows on the
            # extended tape whose end moved inside.  The bisect bound is
            # deliberately slack (rounding-proof); membership uses the
            # exact inequality the absorb pass applies.
            newly = set()
            rows = by_tape.get(tape_id)
            if rows:
                low = bisect_left(
                    rows, old_envelope - 2.0 * block_mb, key=_row_position
                )
                for row_index in range(low, len(rows)):
                    position = rows[row_index][0]
                    end = position + block_mb
                    if end > new_envelope:
                        break
                    if end > old_envelope:
                        newly.add(rows[row_index][1])

            # Step 5: shrink other tapes' envelopes where the extension
            # made a cheaper copy reachable.  A donor's envelope moved
            # *backwards*, so rows re-enter its candidate window and the
            # cached list cannot be refiltered — full rescan.
            if self._enable_shrink:
                for donor in self._shrink(state, tape_id, old_envelope, rank):
                    stale[donor] = "full"

        return state

    def _best_extension(
        self,
        unscheduled: List[Request],
        state: EnvelopeState,
        rank: Dict[int, int],
        cache: Optional[Dict[int, tuple]] = None,
        stale: Optional[Dict[int, str]] = None,
    ) -> Optional[Tuple[int, List[_Row]]]:
        """Step 3: the (tape, prefix) with maximal incremental bandwidth.

        Each tape's candidates go through the pricing kernel's prefix
        scan once.  Within a tape the scheduled-count and rank
        tie-break keys are constants, so the per-tape winner is the
        first length attaining the maximum bandwidth — the same element
        a per-length scan over ``(bandwidth, count, -rank)`` selects.

        ``cache`` holds, per tape, ``(live_rows, bandwidth, length)``
        from earlier rounds of the same compute — ``live_rows`` being
        the tape's candidate rows beyond its envelope restricted to
        then-unscheduled requests.  ``stale`` says how each dirty
        tape's inputs moved since its cache entry: requests only ever
        *leave* the unscheduled set and an advanced envelope only
        *narrows* the window, so "ids"/"grew" tapes refilter their own
        (shrinking) cached list; only a receded envelope ("full", after
        step-5 shrinking) or the first round rereads the tape's rows.
        The arithmetic consumes the identical filtered sequence either
        way.  The cross-tape tie-break (scheduled count, jukebox rank)
        is re-evaluated every round from live state, cached or not.
        """
        best_prefix = pricing_kernel(self._timing, self._block_mb).best_prefix
        mounted = self._mounted_id
        scheduled_count = state.scheduled_count
        state_envelope = state.envelope

        unscheduled_ids = {request.request_id for request in unscheduled}
        by_tape = self._by_tape
        if cache is None:
            cache = {}
            stale = None
        rescan = range(self._tape_count) if stale is None else stale
        for tape_id in rescan:
            envelope = state_envelope[tape_id]
            mode = "full" if stale is None else stale[tape_id]
            if mode == "full":
                rows = by_tape.get(tape_id)
                if not rows:
                    cache[tape_id] = ((), None, 0)
                    continue
                start = bisect_left(rows, envelope, key=_row_position)
                live = [
                    row
                    for row in rows[start:]
                    if row[1] in unscheduled_ids
                ]
            else:
                rows = cache[tape_id][0]
                if mode == "grew":
                    start = bisect_left(rows, envelope, key=_row_position)
                    live = [
                        row
                        for row in rows[start:]
                        if row[1] in unscheduled_ids
                    ]
                else:  # "ids"
                    live = [row for row in rows if row[1] in unscheduled_ids]
            if not live:
                cache[tape_id] = ((), None, 0)
                continue
            bandwidth, length = best_prefix(
                envelope,
                envelope == 0.0 and tape_id != mounted,
                map(_row_position, live),
            )
            cache[tape_id] = (live, bandwidth, length)

        best_key: Optional[Tuple[float, int, int]] = None
        best_tape = -1
        best_length = 0
        for tape_id in range(self._tape_count):
            entry = cache.get(tape_id)
            if entry is None or entry[1] is None:
                continue
            key = (entry[1], scheduled_count.get(tape_id, 0), -rank[tape_id])
            if best_key is None or key > best_key:
                best_key = key
                best_tape = tape_id
                best_length = entry[2]
        if best_key is None:
            return None
        # The winning prefix, straight off the cached live rows (losing
        # tapes never materialize anything beyond their live list).
        return best_tape, cache[best_tape][0][:best_length]

    def _shrink(
        self,
        state: EnvelopeState,
        extended_tape: int,
        old_envelope: float,
        rank: Dict[int, int],
    ) -> Set[int]:
        """Step 5: move edge requests into the just-extended region of
        ``extended_tape`` and pull other envelopes back.

        Returns the set of donor tapes whose envelopes were recomputed
        (so the caller can invalidate their cached extension results).
        """
        block_mb = self._block_mb
        new_envelope = state.envelope[extended_tape]
        donors: Set[int] = set()
        while True:
            candidates: List[Tuple[int, int, int, Request, Replica]] = []
            for request_id, replica in state.assignment.items():
                tape_id = replica.tape_id
                if tape_id == extended_tape:
                    continue
                if replica.position_mb + block_mb != state.envelope.get(tape_id, 0.0):
                    continue  # not at the outer edge
                request = self._assigned_request(request_id)
                if request is None:
                    continue
                other = None
                for candidate in self._replicas_of[request.block_id]:
                    if candidate.tape_id == extended_tape:
                        other = candidate
                        break
                if other is None:
                    continue
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
                return donors
            # Fewest scheduled requests first; ties to the lowest slot id.
            candidates.sort(key=lambda item: (item[0], item[1]))
            _count, tape_id, _rank, request, target = candidates[0]
            state.assign(request, target)
            self._recompute_envelope(state, tape_id)
            donors.add(tape_id)

    def _recompute_envelope(self, state: EnvelopeState, tape_id: int) -> None:
        """Pull ``tape_id``'s envelope back to its highest remaining block."""
        block_mb = self._block_mb
        floor = self._head_mb if tape_id == self._mounted_id else 0.0
        highest = floor
        for replica in state.assignment.values():
            if replica.tape_id == tape_id:
                highest = max(highest, replica.position_mb + block_mb)
        state.envelope[tape_id] = highest

    def _assigned_request(self, request_id: int) -> Optional[Request]:
        """Resolve a request id back to its object (set by compute())."""
        return self._request_index.get(request_id)

    def satisfiable_rows(self, envelope: Dict[int, float]) -> Dict[int, List[_Row]]:
        """Per tape, the rows of the last :meth:`compute` that ``envelope``
        covers: ``(position_mb, request_id, request, replica)`` with
        ``position_mb + block_mb <= envelope[tape]``, sorted by
        ``(position, request_id)``.  Tapes without such a row are left out.

        A tape's rows are sorted by position and float addition is
        monotone, so the covered rows are a prefix of them: a bisect
        finds its end up to rounding, and the exact inequality settles
        the boundary.  A request has at most one row per tape.
        """
        block_mb = self._block_mb
        satisfiable: Dict[int, List[_Row]] = {}
        for tape_id, rows in self._by_tape.items():
            limit = envelope.get(tape_id, 0.0)
            end = bisect_right(rows, limit - block_mb, key=_row_position)
            count = len(rows)
            while end < count and rows[end][0] + block_mb <= limit:
                end += 1
            while end and rows[end - 1][0] + block_mb > limit:
                end -= 1
            if end:
                satisfiable[tape_id] = rows[:end]
        return satisfiable


class EnvelopeScheduler(Scheduler):
    """Envelope-extension major rescheduler + envelope-aware incremental.

    ``policy`` chooses which tape inside the upper envelope to visit
    first (oldest-request / max-requests / max-bandwidth, Section 3.2).
    """

    def __init__(self, policy: TapeSelectionPolicy, enable_shrink: bool = True) -> None:
        self._policy = policy
        self._enable_shrink = enable_shrink
        self.name = f"envelope-{policy.name}"
        if not enable_shrink:
            self.name += "-noshrink"
        #: Upper envelope in effect during the current sweep.
        self._active_envelope: Dict[int, float] = {}

    @property
    def policy(self) -> TapeSelectionPolicy:
        """The tape-selection policy in use."""
        return self._policy

    # ------------------------------------------------------------------
    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        requests = context.pending.snapshot()
        lost = context.pending.lost()
        if lost:
            # A request with no live copy (a closed-loop replacement
            # drawn for a lost block) cannot be covered by any envelope;
            # it stays pending until the service loop fails it.
            lost_ids = {request.request_id for request in lost}
            requests = [
                request for request in requests if request.request_id not in lost_ids
            ]
        if not requests:
            return None
        computer = EnvelopeComputer(
            timing=context.pricing_timing,
            catalog=context.catalog,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            enable_shrink=self._enable_shrink,
        )
        state = computer.compute(requests)

        # For each tape: every request satisfiable within the upper
        # envelope (a superset of the per-tape assignment), in position
        # order.  The policies read only each tape's multiset of
        # requests and of block positions, never their order.
        satisfiable = computer.satisfiable_rows(state.envelope)

        def positions_for(tape_id: int) -> List[float]:
            # One position per distinct block: equal positions on one
            # tape are one block (extents on a tape never overlap), and
            # the sorted rows hold them next to each other.
            positions = []
            previous = None
            for row in satisfiable.get(tape_id, ()):
                position = row[0]
                if position != previous:
                    positions.append(position)
                    previous = position
            return positions

        selection = SelectionContext(
            timing=context.pricing_timing,
            block_mb=context.block_mb,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            candidates={
                tape_id: [row[2] for row in rows]
                for tape_id, rows in satisfiable.items()
            },
            positions_for=positions_for,
            resolve_oldest=context.pending.oldest,
        )
        tape_id = self._policy.select(selection)
        if tape_id is None:  # pragma: no cover - envelope covers all requests
            return None

        # The sweep takes the winner's requests in arrival order.
        chosen_ids = {row[1] for row in satisfiable[tape_id]}
        chosen = [request for request in requests if request.request_id in chosen_ids]
        context.pending.remove_many(chosen)
        entries = coalesce_entries(chosen, tape_id, context.catalog)
        self._active_envelope = dict(state.envelope)
        return MajorDecision(tape_id=tape_id, entries=entries)

    # ------------------------------------------------------------------
    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        service = context.service
        mounted = context.mounted_id
        if service is None or mounted is None:
            context.pending.append(request)
            return False
        catalog = context.catalog
        block_mb = catalog.block_mb
        envelope = self._active_envelope

        # Satisfiable on the current tape within the upper envelope:
        # insert into the sweep as the dynamic incremental scheduler does.
        replica: Optional[Replica] = None
        if catalog.has_replica_on(request.block_id, mounted):
            replica = catalog.replica_on(request.block_id, mounted)
            if replica.position_mb + block_mb <= envelope.get(mounted, 0.0):
                if self._insert_into_sweep(service, request, replica):
                    return True
                context.pending.append(request)
                return False

        # Otherwise apply steps 3-5 for this single request: the sweep
        # takes it only when extending the mounted tape's envelope is the
        # cheapest extension covering it.
        if replica is not None and self._mounted_copy_wins(
            pricing_kernel(context.pricing_timing, block_mb),
            catalog.replicas_of(request.block_id),
            replica,
            block_mb,
        ):
            if self._insert_into_sweep(service, request, replica):
                envelope[mounted] = max(
                    envelope.get(mounted, 0.0), replica.position_mb + block_mb
                )
                return True
        context.pending.append(request)
        return False

    def _mounted_copy_wins(
        self,
        kernel: Union[HelicalKernel, MethodKernel],
        replicas: Sequence[Replica],
        mounted_copy: Replica,
        block_mb: float,
    ) -> bool:
        """Whether the mounted tape's copy, outside its envelope, is the
        cheapest extension covering its block.

        Steps 3-5 for one request keep the first copy with the greatest
        ``(bandwidth, -rank)``, ranking tapes in jukebox order after the
        mounted one, which ranks the mounted tape last.  So the mounted
        copy wins exactly when its bandwidth is strictly greater than
        every other copy's, a copy inside its tape's envelope counting
        as infinite, and no rank is needed.  Schedulers price with a
        clean model (:attr:`SchedulerContext.pricing_timing`), so the
        kernel's one-block bandwidth is pure and the scan stops at the
        first copy that wins.
        """
        envelope = self._active_envelope
        mounted = mounted_copy.tape_id
        extension_bandwidth = kernel.extension_bandwidth
        target = extension_bandwidth(
            envelope.get(mounted, 0.0), False, mounted_copy.position_mb
        )
        for replica in replicas:
            tape_id = replica.tape_id
            if tape_id == mounted:
                continue
            tape_envelope = envelope.get(tape_id, 0.0)
            if replica.position_mb + block_mb <= tape_envelope:
                return False
            bandwidth = extension_bandwidth(
                tape_envelope, tape_envelope == 0.0, replica.position_mb
            )
            if bandwidth >= target:
                return False
        return True

    def _insert_into_sweep(self, service, request: Request, replica: Replica) -> bool:
        existing = service.find_block(request.block_id)
        if existing is not None:
            existing.attach(request)
            return True
        entry = ServiceEntry(
            position_mb=replica.position_mb,
            block_id=request.block_id,
            requests=[request],
        )
        return service.insert(entry)

    def on_sweep_complete(self, context: SchedulerContext) -> None:
        self._active_envelope = {}
