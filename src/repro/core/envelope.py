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
3-6 degenerate to absorbing each request on its only tape, and the
algorithm behaves exactly like the corresponding dynamic algorithm —
matching the paper's remark that max-bandwidth envelope "degenerates
into the dynamic max-bandwidth algorithm" without replicas.

Performance model
-----------------
Every major reschedule used to rebuild the computer's working state —
the per-block replica cache and the per-tape candidate rows, sorted by
``(position, request_id)`` — from the full pending set, which made the
envelope family the slowest scheduler by a wide margin.  Two layers fix
that without changing a single scheduling decision:

* :class:`EnvelopeIndex` keeps the candidate rows *incrementally*: it
  subscribes to the :class:`~repro.core.pending.PendingList`, absorbs
  each arrival into the affected tapes' rows (dirty-marking just those
  tapes for a cheap near-sorted re-sort at the next compute), and
  tombstones removals so completed sweeps shrink only the tapes they
  touched (a full compaction runs when dead rows outnumber live ones).
  :meth:`EnvelopeComputer.compute` then starts from the maintained
  index instead of re-deriving it, and falls back to a full rebuild
  whenever the index cannot vouch for itself (fault-masked catalogs,
  request-count mismatch, or no index at all).  The algorithm proper is
  re-run over identical inputs either way, so the resulting
  :class:`EnvelopeState` is bit-identical by construction — a property
  the equivalence suite asserts over random interleavings.

* Inside one compute, the step-3 search evaluates incremental
  bandwidth through flattened timing constants
  (:func:`~repro.core.cost.extension_constants`) instead of per-length
  tracker calls, and the absorb rescan after an extension only visits
  requests whose replica on the extended tape newly fell inside the
  envelope — the only requests whose absorption status can change.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..layout.catalog import BlockCatalog, Replica
from ..tape.timing import DriveTimingModel
from ..workload.requests import Request
from .base import MajorDecision, Scheduler, SchedulerContext, coalesce_entries
from .cost import MB, ExtensionCostTracker, extension_constants
from .pending import PendingList
from .policies import SelectionContext, TapeSelectionPolicy, jukebox_order
from .sweep import ServiceEntry

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


class EnvelopeIndex:
    """Incrementally maintained candidate rows over a pending list.

    The index mirrors the pending list's membership as per-tape rows
    ``(position_mb, request_id, request, replica)`` sorted by
    ``(position, request_id)`` — exactly the working state
    :meth:`EnvelopeComputer.compute` used to rebuild per call:

    * **Arrival** appends the request's replicas to the affected tapes'
      add-buffers and dirty-marks those tapes; the next compute merges
      and re-sorts only dirty tapes (timsort on a nearly-sorted list).
    * **Removal** (a scheduled sweep, QoS expiry, a fault losing a
      tape) tombstones the request ids; rows are a *superset* of the
      live pending set, and every consumer already filters rows against
      the live request-id set, so stale rows are invisible.  When dead
      rows outnumber live ones the index compacts — a single amortized
      rebuild of the tapes that shrank.
    * **Re-appearance** (a fault-requeued request id) just clears the
      tombstone: with a static catalog the physical rows are unchanged.

    The index disables itself on catalogs whose replica answers can
    change mid-run (``dynamic_replicas``, i.e. fault masking): there an
    append-time row could go stale, so the computer keeps the original
    rebuild-per-compute path.  ``live_count`` lets the computer verify
    the index covers exactly the request set it was handed and fall
    back otherwise.
    """

    #: Compact only past this many dead rows (skip trivial churn).
    _COMPACT_FLOOR = 512

    def __init__(self, pending: PendingList) -> None:
        self.pending = pending
        self.catalog: BlockCatalog = pending.catalog
        #: False when the catalog's replica map can change mid-run.
        self.enabled = not bool(getattr(self.catalog, "dynamic_replicas", False))
        #: block_id -> replicas, resolved once per block (static catalog).
        self.block_replicas: Dict[int, Tuple[Replica, ...]] = {}
        #: tape_id -> sorted rows (may contain tombstoned entries).
        self.rows: Dict[int, List[Tuple[float, int, Request, Replica]]] = {}
        self._adds: Dict[int, List[Tuple[float, int, Request, Replica]]] = {}
        self._dirty: Set[int] = set()
        self._dead: Set[int] = set()
        self._dead_rows = 0
        self._live_rows = 0
        #: Live (non-tombstoned) request count — must equal the pending
        #: list's length whenever the index is consistent.
        self.live_count = 0
        #: Compactions performed (observability for tests/benchmarks).
        self.compactions = 0
        if self.enabled:
            for request in pending:
                self.on_pending_append(request)
            pending.add_listener(self)

    def detach(self) -> None:
        """Unsubscribe from the pending list (when the scheduler moves on)."""
        if self.enabled:
            self.pending.remove_listener(self)

    def _replicas(self, block_id: int) -> Tuple[Replica, ...]:
        replicas = self.block_replicas.get(block_id)
        if replicas is None:
            replicas = self.block_replicas[block_id] = self.catalog.replicas_of(
                block_id
            )
        return replicas

    # -- PendingList listener protocol ----------------------------------
    def on_pending_append(self, request: Request) -> None:
        """Absorb one arrival into the affected tapes' rows."""
        request_id = request.request_id
        replicas = self._replicas(request.block_id)
        self.live_count += 1
        self._live_rows += len(replicas)
        if request_id in self._dead:
            # A requeued request id: its rows are still physically
            # present under a tombstone, and the catalog is static, so
            # clearing the tombstone restores them verbatim.
            self._dead.discard(request_id)
            self._dead_rows -= len(replicas)
            return
        adds = self._adds
        dirty = self._dirty
        for replica in replicas:
            tape_id = replica.tape_id
            bucket = adds.get(tape_id)
            if bucket is None:
                bucket = adds[tape_id] = []
            bucket.append((replica.position_mb, request_id, request, replica))
            dirty.add(tape_id)

    def on_pending_remove(self, requests: Sequence[Request]) -> None:
        """Tombstone removed requests; their rows die lazily."""
        dead = self._dead
        for request in requests:
            degree = len(self._replicas(request.block_id))
            dead.add(request.request_id)
            self._dead_rows += degree
            self._live_rows -= degree
            self.live_count -= 1

    # -- consumption -----------------------------------------------------
    def refresh(self, requests: Sequence[Request]) -> None:
        """Make the rows current: merge dirty tapes, compact if bloated.

        ``requests`` is the live pending snapshot the caller is about
        to compute over; it doubles as the row source for compaction.
        """
        if self._dirty:
            rows = self.rows
            adds = self._adds
            for tape_id in self._dirty:
                fresh = adds.pop(tape_id)
                bucket = rows.get(tape_id)
                if bucket is None:
                    fresh.sort()
                    rows[tape_id] = fresh
                else:
                    bucket.extend(fresh)
                    bucket.sort()
            self._dirty.clear()
        if self._dead_rows > self._COMPACT_FLOOR and self._dead_rows > self._live_rows:
            self._compact(requests)

    def _compact(self, requests: Sequence[Request]) -> None:
        """Drop tombstoned rows by rebuilding from the live snapshot."""
        rows: Dict[int, List[Tuple[float, int, Request, Replica]]] = {}
        live_rows = 0
        for request in requests:
            request_id = request.request_id
            replicas = self._replicas(request.block_id)
            live_rows += len(replicas)
            for replica in replicas:
                tape_id = replica.tape_id
                bucket = rows.get(tape_id)
                if bucket is None:
                    bucket = rows[tape_id] = []
                bucket.append((replica.position_mb, request_id, request, replica))
        for bucket in rows.values():
            bucket.sort()
        self.rows = rows
        self._adds = {}
        self._dirty.clear()
        self._dead.clear()
        self._dead_rows = 0
        self._live_rows = live_rows
        self.live_count = len(requests)
        self.compactions += 1


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
        """The rebuild-from-scratch path: replica cache + sorted rows."""
        catalog = self._catalog
        replicas_of: Dict[int, Tuple[Replica, ...]] = {}
        by_tape: Dict[int, List[Tuple[float, int, Request, Replica]]] = {}
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
            rows.sort(key=lambda row: (row[0], row[1]))
        self._replicas_of = replicas_of
        self._by_tape = by_tape

    # -- the algorithm ---------------------------------------------------
    def compute(
        self, requests: Sequence[Request], index: Optional[EnvelopeIndex] = None
    ) -> EnvelopeState:
        """Compute the upper envelope covering all ``requests``.

        ``requests`` is not copied: the single defensive copy in the
        scheduling path is the caller's ``pending.snapshot()`` (or an
        equivalent list the caller owns).  Pass a sequence that will not
        be mutated while this call runs — do **not** wrap the argument
        in another ``list(...)``.

        ``index`` may supply an :class:`EnvelopeIndex` maintained over
        the same pending membership as ``requests``; the computer then
        reuses its replica cache and presorted rows instead of
        rebuilding them.  The index is used only when it can vouch for
        itself (enabled, same catalog, live count matching
        ``len(requests)``); otherwise this call silently falls back to
        the full rebuild.  Either way the algorithm runs over identical
        inputs, so the returned state is bit-identical.

        Replica lookups are resolved against the catalog once, up
        front; the catalog cannot change during this synchronous call,
        so the cached answers are exactly what per-step queries would
        have returned.
        """
        self._request_index = {request.request_id: request for request in requests}
        if (
            index is not None
            and index.enabled
            and index.catalog is self._catalog
            and index.live_count == len(requests)
        ):
            index.refresh(requests)
            self._replicas_of = index.block_replicas
            self._by_tape = index.rows
        else:
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
        # "full" (envelope receded: rescan the index rows).  ``None``
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
    ) -> Optional[Tuple[int, List[Tuple[float, int, Request, Replica]]]]:
        """Step 3: the (tape, prefix) with maximal incremental bandwidth.

        The fast path flattens the timing model into constants and runs
        the per-length bandwidth recurrence call-free, evaluating the
        exact float expressions :class:`ExtensionCostTracker` would
        have.  Prefix lengths ending on a coalesced duplicate position
        are skipped outright: they add a request but no read, so their
        key equals the previous length's and a strict comparison could
        never have selected them.  Within a tape the scheduled-count
        and rank tie-break keys are constants, so the per-tape winner
        is the first length attaining the maximum bandwidth — the same
        element the per-length scan selected.

        ``cache`` holds, per tape, ``(live_rows, bandwidth, length)``
        from earlier rounds of the same compute — ``live_rows`` being
        the tape's candidate rows beyond its envelope restricted to
        then-unscheduled requests.  ``stale`` says how each dirty
        tape's inputs moved since its cache entry: requests only ever
        *leave* the unscheduled set and an advanced envelope only
        *narrows* the window, so "ids"/"grew" tapes refilter their own
        (shrinking) cached list; only a receded envelope ("full", after
        step-5 shrinking) or the first round rereads the index rows.
        The arithmetic consumes the identical filtered sequence either
        way.  The cross-tape tie-break (scheduled count, jukebox rank)
        is re-evaluated every round from live state, cached or not.
        """
        constants = extension_constants(self._timing, self._block_mb)
        if constants is None:
            return self._best_extension_tracked(unscheduled, state, rank)
        block_mb = self._block_mb
        thr = constants.short_threshold_mb
        fwd_short_b = constants.forward_short_startup
        fwd_short_r = constants.forward_short_rate
        fwd_long_b = constants.forward_long_startup
        fwd_long_r = constants.forward_long_rate
        rev_short_b = constants.reverse_short_startup
        rev_short_r = constants.reverse_short_rate
        rev_long_b = constants.reverse_long_startup
        rev_long_r = constants.reverse_long_rate
        bot_s = constants.bot_overhead_s
        read_plain = constants.read_plain_s
        read_startup = constants.read_startup_s
        full_switch = constants.switch_s
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
            switch_s = (
                full_switch if envelope == 0.0 and tape_id != mounted else 0.0
            )
            lands_on_bot = envelope == 0
            head = envelope
            startup_pending = True
            outbound = 0.0
            reads = 0
            length = 0
            tape_best_bandwidth: Optional[float] = None
            tape_best_length = 0
            previous_position: Optional[float] = None
            for row in live:
                position = row[0]
                length += 1
                if position == previous_position:
                    continue  # same physical block: identical cost and reads
                previous_position = position
                if position < head - block_mb:
                    raise ValueError(
                        f"extension list not sorted: {position} behind head {head}"
                    )
                distance = position - head
                if distance > 0:
                    outbound += (
                        fwd_short_b + fwd_short_r * distance
                        if distance <= thr
                        else fwd_long_b + fwd_long_r * distance
                    )
                    startup_pending = True
                outbound += read_startup if startup_pending else read_plain
                startup_pending = False
                head = position + block_mb
                reads += 1
                return_distance = head - envelope
                return_s = (
                    rev_short_b + rev_short_r * return_distance
                    if return_distance <= thr
                    else rev_long_b + rev_long_r * return_distance
                )
                if lands_on_bot:
                    return_s += bot_s
                cost = (switch_s + outbound) + return_s
                bandwidth = (
                    reads * block_mb * MB / cost if cost > 0 else float("inf")
                )
                if tape_best_bandwidth is None or bandwidth > tape_best_bandwidth:
                    tape_best_bandwidth = bandwidth
                    tape_best_length = length
            cache[tape_id] = (live, tape_best_bandwidth, tape_best_length)

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

    def _best_extension_tracked(
        self,
        unscheduled: List[Request],
        state: EnvelopeState,
        rank: Dict[int, int],
    ) -> Optional[Tuple[int, List[Tuple[float, int, Request, Replica]]]]:
        """The tracker-based step-3 scan (non-standard timing models)."""
        best_key: Optional[Tuple[float, int, int]] = None
        best: Optional[Tuple[int, List[Tuple[float, int, Request, Replica]]]] = None
        unscheduled_ids = {request.request_id for request in unscheduled}
        by_tape = self._by_tape
        for tape_id in range(self._tape_count):
            rows = by_tape.get(tape_id)
            if not rows:
                continue
            envelope = state.envelope[tape_id]
            start = bisect_left(rows, envelope, key=_row_position)
            extension = [row for row in rows[start:] if row[1] in unscheduled_ids]
            if not extension:
                continue
            charge_switch = envelope == 0.0 and tape_id != self._mounted_id
            tracker = ExtensionCostTracker(
                self._timing, envelope, self._block_mb, charge_switch
            )
            for length in range(1, len(extension) + 1):
                position = extension[length - 1][0]
                # Coalesced duplicate blocks add requests but only one read.
                if length >= 2 and position == extension[length - 2][0]:
                    pass  # same physical block: no extra read cost
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

    # ------------------------------------------------------------------
    # Per-compute working state (set at the top of ``compute``).
    _request_index: Dict[int, Request] = {}
    _replicas_of: Dict[int, Tuple[Replica, ...]] = {}
    _by_tape: Dict[int, List[Tuple[float, int, Request, Replica]]] = {}

    def _assigned_request(self, request_id: int) -> Optional[Request]:
        """Resolve a request id back to its object (set by compute())."""
        return self._request_index.get(request_id)


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
        #: Incremental candidate index bound to the run's pending list
        #: (None when the pending list or catalog cannot support one).
        self._index: Optional[EnvelopeIndex] = None
        self._index_pending: Optional[object] = None

    @property
    def policy(self) -> TapeSelectionPolicy:
        """The tape-selection policy in use."""
        return self._policy

    # ------------------------------------------------------------------
    def _index_for(self, context: SchedulerContext) -> Optional[EnvelopeIndex]:
        """The incremental index for this run, created on first use.

        Requires a pending list that broadcasts membership changes
        (:meth:`~repro.core.pending.PendingList.add_listener`) and a
        static catalog shared between the pending list and the
        scheduling context.  Multi-drive pending views and fault-masked
        catalogs return ``None`` — those runs keep the full
        rebuild-per-compute path.
        """
        pending = context.pending
        if self._index_pending is pending:
            return self._index
        if self._index is not None:
            self._index.detach()
        self._index_pending = pending
        self._index = None
        if (
            callable(getattr(pending, "add_listener", None))
            and callable(getattr(pending, "remove_listener", None))
            and pending.catalog is context.catalog
        ):
            index = EnvelopeIndex(pending)
            if index.enabled:
                self._index = index
        return self._index

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
            timing=context.jukebox.timing,
            catalog=context.catalog,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            enable_shrink=self._enable_shrink,
        )
        state = computer.compute(requests, index=self._index_for(context))
        block_mb = context.block_mb

        # For each tape: every request satisfiable within the upper
        # envelope (a superset of the per-tape assignment).  The computer
        # already resolved every request's replicas against the catalog
        # during this synchronous call, so its cache answers the same
        # queries without re-touching the catalog.
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
                # A block has at most one copy per tape, so the first
                # cached replica on ``tape_id`` is the ``replica_on``
                # answer.
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
        if tape_id is None:  # pragma: no cover - envelope covers all requests
            return None

        chosen = satisfiable[tape_id]
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
        block_mb = context.block_mb
        envelope = self._active_envelope

        # Satisfiable on the current tape within the upper envelope:
        # insert into the sweep as the dynamic incremental scheduler does.
        if context.catalog.has_replica_on(request.block_id, mounted):
            replica = context.catalog.replica_on(request.block_id, mounted)
            if replica.position_mb + block_mb <= envelope.get(mounted, 0.0):
                if self._insert_into_sweep(service, request, replica):
                    return True
                context.pending.append(request)
                return False

        # Otherwise apply steps 3-5 for this single request: find the
        # cheapest envelope extension covering it.
        best_tape: Optional[int] = None
        best_key: Optional[Tuple[float, int]] = None
        best_replica: Optional[Replica] = None
        rank = _rank_after(context.tape_count, mounted + 1)
        for replica in context.catalog.replicas_of(request.block_id):
            tape_envelope = envelope.get(replica.tape_id, 0.0)
            if replica.position_mb + block_mb <= tape_envelope:
                # Inside another tape's envelope: servicing it there needs
                # no extension, so prefer that tape outright when no
                # current-tape extension wins; treated as infinite
                # incremental bandwidth.
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
