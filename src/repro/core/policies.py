"""Tape-selection policies (paper Section 3.1).

A policy answers "which tape should the major rescheduler service next?"
given, for each tape, the set of pending requests that tape can satisfy.
The same five policies parameterize the static family, the dynamic
family, and (three of them) the envelope-extension algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, List, Mapping, Optional

from ..tape.timing import DriveTimingModel
from ..workload.requests import Request
from .cost import MB, pricing_kernel


def jukebox_order(tape_count: int, start_at: int) -> List[int]:
    """Circular slot order beginning *at* ``start_at`` (inclusive)."""
    if tape_count <= 0:
        return []
    start = start_at % tape_count
    return [(start + offset) % tape_count for offset in range(tape_count)]


@dataclass
class SelectionContext:
    """Everything a tape-selection policy may inspect.

    ``candidates`` maps each tape to the pending requests it can satisfy
    (usually the pending list's live view, so a policy reads it and
    never keeps it); ``positions_for`` resolves the physical positions
    those requests would be read from on that tape, in the same order
    (the envelope algorithm restricts this to the upper envelope).
    ``resolve_oldest`` returns the oldest pending request; it is called
    only when a policy reads :attr:`oldest`, so policies that ignore
    request age never pay for it.
    """

    timing: DriveTimingModel
    block_mb: float
    tape_count: int
    mounted_id: Optional[int]
    head_mb: float
    candidates: Mapping[int, Collection[Request]]
    positions_for: Callable[[int], Collection[float]]
    resolve_oldest: Callable[[], Optional[Request]]

    @property
    def oldest(self) -> Optional[Request]:
        """The oldest pending request (``None`` when there is none)."""
        return self.resolve_oldest()

    @property
    def anchor(self) -> int:
        """Slot from which tie-break enumeration starts (mounted or 0)."""
        return self.mounted_id if self.mounted_id is not None else 0

    def tapes_with_requests(self) -> List[int]:
        """Tapes with at least one candidate, in tie-break order."""
        return [
            tape_id
            for tape_id in jukebox_order(self.tape_count, self.anchor)
            if self.candidates.get(tape_id)
        ]


class TapeSelectionPolicy:
    """Base class; subclasses implement :meth:`select`."""

    #: Short name used in scheduler registry keys.
    name = "abstract"

    def select(self, context: SelectionContext) -> Optional[int]:
        """Return the tape to service next, or ``None`` if no candidates."""
        raise NotImplementedError


class RoundRobin(TapeSelectionPolicy):
    """Next tape in jukebox order *after* the mounted one with requests."""

    name = "round-robin"

    def select(self, context: SelectionContext) -> Optional[int]:
        order = jukebox_order(context.tape_count, context.anchor + 1)
        for tape_id in order:
            if context.candidates.get(tape_id):
                return tape_id
        return None


class MaxRequests(TapeSelectionPolicy):
    """Tape with the most candidate requests; ties favour the mounted slot."""

    name = "max-requests"

    def select(self, context: SelectionContext) -> Optional[int]:
        best: Optional[int] = None
        best_count = 0
        for tape_id in context.tapes_with_requests():
            count = len(context.candidates[tape_id])
            if count > best_count:
                best, best_count = tape_id, count
        return best


class MaxBandwidth(TapeSelectionPolicy):
    """Tape with the highest effective bandwidth for its candidate schedule.

    Every candidate is priced in one pass straight off ``positions_for``
    with the timing model's pricing kernel and the switch overhead, both
    taken once per decision: each tape costs one kernel sweep plus the
    seconds and bandwidth expressions of
    :func:`~repro.core.cost.schedule_time` and
    :func:`~repro.core.cost.effective_bandwidth`, in the same order, so
    every bandwidth is bit-identical to theirs.  Candidates are visited
    in the mapping's order and ranked by jukebox order, so the first
    strict maximum in jukebox order wins.
    """

    name = "max-bandwidth"

    def select(self, context: SelectionContext) -> Optional[int]:
        timing = context.timing
        block_mb = context.block_mb
        sweep = pricing_kernel(timing, block_mb).sweep
        candidates = context.candidates
        positions_for = context.positions_for
        mounted_id = context.mounted_id
        head_mb = context.head_mb
        # Switching to any unmounted tape rewinds the mounted one from
        # the same head, so the overhead is one figure per decision.
        switch_s = timing.switch_with_rewind(
            head_mb if mounted_id is not None else 0.0
        )
        # A tape's rank in ``jukebox_order(tape_count, anchor)``, the
        # tie-break order, is ``(tape_id - start) % tape_count``.
        tape_count = context.tape_count
        start = context.anchor % tape_count if tape_count > 0 else 0
        best: Optional[int] = None
        best_rank = 0
        best_bandwidth = -1.0
        for tape_id in candidates:
            if not 0 <= tape_id < tape_count:
                continue
            rank = (tape_id - start) % tape_count
            positions = positions_for(tape_id)
            if positions:
                if tape_id == mounted_id:
                    locate_s, read_s, _ = sweep(head_mb, sorted(positions), True)
                    seconds = locate_s + read_s
                else:
                    locate_s, read_s, _ = sweep(0.0, sorted(positions), True)
                    seconds = switch_s + (locate_s + read_s)
                if seconds <= 0:
                    bandwidth = float("inf")
                else:
                    bandwidth = len(positions) * block_mb * MB / seconds
            elif candidates[tape_id]:
                bandwidth = 0.0  # what ``effective_bandwidth`` charges
            else:
                continue
            if bandwidth > best_bandwidth or (
                bandwidth == best_bandwidth and rank < best_rank
            ):
                best, best_rank, best_bandwidth = tape_id, rank, bandwidth
        return best


class _OldestFirst(TapeSelectionPolicy):
    """Restrict candidates to tapes satisfying the oldest request, then delegate."""

    def __init__(self, inner: TapeSelectionPolicy) -> None:
        self._inner = inner

    def select(self, context: SelectionContext) -> Optional[int]:
        oldest = context.oldest
        if oldest is None:
            return self._inner.select(context)
        eligible = {
            tape_id: requests
            for tape_id, requests in context.candidates.items()
            if any(request.request_id == oldest.request_id for request in requests)
        }
        if not eligible:
            return self._inner.select(context)
        narrowed = SelectionContext(
            timing=context.timing,
            block_mb=context.block_mb,
            tape_count=context.tape_count,
            mounted_id=context.mounted_id,
            head_mb=context.head_mb,
            candidates=eligible,
            positions_for=context.positions_for,
            resolve_oldest=lambda: oldest,
        )
        return self._inner.select(narrowed)


class OldestRequestMaxRequests(_OldestFirst):
    """Satisfy the oldest request; break ties by max requests."""

    name = "oldest-max-requests"

    def __init__(self) -> None:
        super().__init__(MaxRequests())


class OldestRequestMaxBandwidth(_OldestFirst):
    """Satisfy the oldest request; break ties by max bandwidth."""

    name = "oldest-max-bandwidth"

    def __init__(self) -> None:
        super().__init__(MaxBandwidth())


#: All five named policies from Section 3.1, keyed by registry name.
POLICIES = {
    policy.name: policy
    for policy in (
        RoundRobin(),
        MaxRequests(),
        MaxBandwidth(),
        OldestRequestMaxRequests(),
        OldestRequestMaxBandwidth(),
    )
}
