"""Scheduler interface: major rescheduler + incremental scheduler.

A scheduling algorithm is specified by a *major rescheduler* that at tape
switch time chooses a tape and forms a retrieval schedule, and an
*incremental scheduler* that handles newly arriving requests — either
inserting them into the in-progress sweep or deferring them to the
pending list (paper Section 2.2).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..layout.catalog import BlockCatalog
from ..tape.jukebox import Jukebox
from ..workload.requests import Request
from .pending import PendingList
from .sweep import ServiceEntry, ServiceList


@dataclass
class SchedulerContext:
    """Mutable scheduling state shared between simulator and scheduler."""

    jukebox: Jukebox
    catalog: BlockCatalog
    pending: PendingList
    service: Optional[ServiceList] = None
    #: Tapes taken out of service by the fault layer.  The fault-aware
    #: simulator shares the injector's live set here, so schedulers (and
    #: the masked pending-list view) always see the current mask.
    masked_tapes: Set[int] = field(default_factory=set)
    #: Drives serving this pending pool (1 except under the multi-drive
    #: service).  Cost-model schedulers use it to discount deferral:
    #: requests this drive defers are drained concurrently by the others.
    drive_count: int = 1
    #: Tape being exchanged into the drive for ``service``, or ``None``.
    #: While it is set the scheduler sees it as mounted with the head at
    #: BOT, so requests arriving mid-exchange are planned against the
    #: tape the sweep will read, not the one on its way out.
    incoming: Optional[int] = None

    def tape_available(self, tape_id: int) -> bool:
        """True when ``tape_id`` is in service (not masked out)."""
        return tape_id not in self.masked_tapes

    @property
    def mounted_id(self) -> Optional[int]:
        """Currently mounted tape id (the incoming one mid-exchange)."""
        if self.incoming is not None:
            return self.incoming
        return self.jukebox.mounted_id

    @property
    def head_mb(self) -> float:
        """Current head position (MB); BOT mid-exchange."""
        if self.incoming is not None:
            return 0.0
        return self.jukebox.head_mb

    @property
    def block_mb(self) -> float:
        """Logical block size (MB)."""
        return self.catalog.block_mb

    @property
    def tape_count(self) -> int:
        """Number of tapes in the jukebox."""
        return self.jukebox.tape_count


@dataclass
class MajorDecision:
    """Outcome of a major reschedule: the tape and its retrieval schedule."""

    tape_id: int
    entries: List[ServiceEntry] = field(default_factory=list)
    #: True when a policy overrode the underlying scheduler's choice
    #: (e.g. the starvation guard force-promoting an aged request).
    #: Surfaced in the observability layer's decision log.
    forced: bool = False

    @property
    def request_count(self) -> int:
        """Requests satisfied by this schedule (after coalescing)."""
        return sum(len(entry.requests) for entry in self.entries)


def coalesce_entries(
    requests: List[Request],
    tape_id: int,
    catalog: BlockCatalog,
) -> List[ServiceEntry]:
    """Build one :class:`ServiceEntry` per distinct block on ``tape_id``.

    Multiple outstanding requests for the same logical block share a
    single physical read.
    """
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


class Scheduler(abc.ABC):
    """A complete scheduling algorithm (major + incremental)."""

    #: Registry name, e.g. ``"dynamic-max-bandwidth"``.
    name: str = "abstract"

    @abc.abstractmethod
    def major_reschedule(self, context: SchedulerContext) -> Optional[MajorDecision]:
        """Choose the next tape and extract its schedule from the pending list.

        Returns ``None`` when the pending list is empty.  The chosen
        requests are removed from ``context.pending``; the simulator
        mounts the tape and executes the entries as one sweep.
        """

    def on_arrival(self, context: SchedulerContext, request: Request) -> bool:
        """Handle a request arriving during the current sweep.

        Returns True if the request was absorbed into the in-progress
        service list; otherwise the request is appended to the pending
        list and False is returned.  The base implementation is the
        *static* behaviour: always defer.
        """
        context.pending.append(request)
        return False

    def build_service_list(self, entries: List[ServiceEntry], head_mb: float):
        """Construct the execution order for a schedule.

        The paper's algorithms all use the forward-then-reverse sweep;
        ordering-ablation schedulers override this (see
        :mod:`repro.core.ordering`).
        """
        return ServiceList(entries, head_mb=head_mb)

    def on_sweep_complete(self, context: SchedulerContext) -> None:
        """Hook invoked when the service list drains (sweep ends)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
