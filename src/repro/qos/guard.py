"""Starvation guard: bound the tail without touching scheduler internals.

The paper's greedy tape-selection policies (max-requests, max-bandwidth)
knowingly trade worst-case response time for throughput: a request on an
unpopular tape can be deferred sweep after sweep.  The guard wraps any
:class:`~repro.core.base.Scheduler` and intercepts only the major
reschedule: when the oldest pending request has aged past the threshold,
the wrapped scheduler is bypassed for one sweep and the drive is sent
straight to a tape holding that request — the request is force-promoted
into the next sweep's envelope.  Every other call (incremental
insertion, service-list construction, sweep-completion hooks) delegates
to the wrapped scheduler, so static, dynamic, envelope, and
ordering-ablation schedulers all work unmodified.

Worst-case bound: an admitted request waits at most ``age_threshold_s``
plus one sweep interval before its tape is mounted.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..core.base import MajorDecision, Scheduler, SchedulerContext, coalesce_entries
from ..core.sweep import ServiceEntry
from ..workload.requests import Request


class StarvationGuardScheduler(Scheduler):
    """Wraps a scheduler; force-promotes requests older than a threshold."""

    def __init__(
        self,
        inner: Scheduler,
        age_threshold_s: float,
        now_fn: Callable[[], float],
        on_promote: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        if age_threshold_s <= 0:
            raise ValueError(
                f"age_threshold_s must be positive, got {age_threshold_s!r}"
            )
        self.inner = inner
        self.age_threshold_s = age_threshold_s
        self._now_fn = now_fn
        self._on_promote = on_promote
        self.name = inner.name

    # ------------------------------------------------------------------
    def _starving(self, context: SchedulerContext, now: float) -> Optional[Request]:
        """The oldest pending request, if it has aged past the threshold."""
        oldest = context.pending.oldest()
        if oldest is None or now - oldest.arrival_s <= self.age_threshold_s:
            return None
        return oldest

    def _forced_decision(
        self, context: SchedulerContext, starving: Request
    ) -> Optional[MajorDecision]:
        """Send the drive to the most useful tape holding ``starving``.

        Among the starving request's replica tapes that are in service
        (and, multi-drive, not claimed elsewhere — the pending view
        already hides those), pick the one with the most pending
        requests so the forced sweep wastes as little bandwidth as
        possible; ties break to the lowest tape id for determinism.
        """
        pending = context.pending
        best_tape: Optional[int] = None
        best_count = 0
        for replica in context.catalog.replicas_of(starving.block_id):
            tape_id = replica.tape_id
            if not context.tape_available(tape_id):
                continue
            count = len(pending.requests_for_tape(tape_id))
            if not count:
                continue
            if best_tape is None or count > best_count or (
                count == best_count and tape_id < best_tape
            ):
                best_tape = tape_id
                best_count = count
        if best_tape is None:
            return None
        # The views empty on removal, so coalesce from them first.
        chosen = pending.requests_for_tape(best_tape)
        entries: List[ServiceEntry] = coalesce_entries(
            chosen, best_tape, context.catalog, pending.positions_on(best_tape)
        )
        pending.remove_many(chosen)
        return MajorDecision(tape_id=best_tape, entries=entries, forced=True)

    # ------------------------------------------------------------------
    # Scheduler interface (delegation with one interception point)
    # ------------------------------------------------------------------
    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        """Force a sweep to a starving request's tape, else delegate."""
        now = self._now_fn()
        starving = self._starving(context, now)
        if starving is not None:
            decision = self._forced_decision(context, starving)
            if decision is not None:
                if self._on_promote is not None:
                    self._on_promote(decision.request_count, now)
                return decision
        return self.inner.major_reschedule(context)

    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        """Incremental scheduling is the wrapped scheduler's business."""
        return self.inner.on_arrival(context, request)

    def build_service_list(self, entries: List[ServiceEntry], head_mb: float):
        """Preserve the wrapped scheduler's sweep ordering."""
        return self.inner.build_service_list(entries, head_mb)

    def on_sweep_complete(self, context: SchedulerContext) -> None:
        """Forward the end-of-sweep hook."""
        self.inner.on_sweep_complete(context)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StarvationGuardScheduler {self.name!r} "
            f"age>{self.age_threshold_s:g}s over {self.inner!r}>"
        )
