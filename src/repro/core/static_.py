"""The static scheduling family (paper Section 3.1).

A static algorithm's major rescheduler applies a tape-selection policy,
then services *all* pending requests that the chosen tape can satisfy,
sorted into a single sweep.  Newly arriving requests are always deferred
to the pending list, even when they are for the current tape.
"""

from __future__ import annotations

from typing import Optional

from .base import MajorDecision, Scheduler, SchedulerContext, coalesce_entries
from .policies import SelectionContext, TapeSelectionPolicy


class StaticScheduler(Scheduler):
    """Static algorithm parameterized by a tape-selection policy.

    ``ordering`` selects the intra-tape execution order: ``"sweep"``
    (the paper's forward-then-reverse pass, default) or ``"nearest"``
    (greedy nearest-neighbor, for the ordering ablation).
    """

    def __init__(self, policy: TapeSelectionPolicy, ordering: str = "sweep") -> None:
        if ordering not in ("sweep", "nearest"):
            raise ValueError(f"unknown ordering {ordering!r}")
        self._policy = policy
        self._ordering = ordering
        self.name = f"static-{policy.name}"
        if ordering != "sweep":
            self.name += f"-{ordering}"

    def build_service_list(self, entries, head_mb: float):
        if self._ordering == "nearest":
            from .ordering import NearestNeighborServiceList

            return NearestNeighborServiceList(entries, head_mb=head_mb)
        return super().build_service_list(entries, head_mb=head_mb)

    @property
    def policy(self) -> TapeSelectionPolicy:
        """The tape-selection policy in use."""
        return self._policy

    def _selection_context(self, context: SchedulerContext) -> SelectionContext:
        pending = context.pending
        return SelectionContext(
            timing=context.jukebox.timing,
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
        entries = coalesce_entries(chosen, tape_id, context.catalog)
        return MajorDecision(tape_id=tape_id, entries=entries)
