"""The pending-list view each drive of a multi-drive jukebox schedules from.

``D`` drives share one pending list, and a tape can be in at most one
drive at a time: a drive *claims* a tape from the start of its exchange
until the tape leaves it.  Each drive's scheduler sees the shared list
through a :class:`ClaimFilteredPending` that hides the tapes other drives
have claimed, so every scheduler family that plans through the pending
list's per-tape queries runs unchanged on any number of drives.  The
service loop itself is :class:`~repro.service.simulator.JukeboxSimulator`.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Optional

from ..core.pending import CandidateTapes, PendingList
from ..layout.catalog import BlockCatalog
from ..workload.requests import Request


class ClaimFilteredPending(PendingList):
    """A pending-list view that hides tapes claimed by other drives.

    Schedulers group requests by candidate tape through
    :meth:`candidate_tapes` / :meth:`requests_for_tape`; filtering here
    keeps every scheduler family multi-drive-safe without changes.  The
    filtered queries return the shared list's own views (nothing is
    copied), minus the tapes other drives hold.
    """

    def __init__(self, inner: PendingList, claims: Dict[int, int], drive_index: int) -> None:
        self._inner = inner
        self._claims = claims
        self._drive_index = drive_index

    def _visible(self, tape_id: int) -> bool:
        """Unclaimed, or claimed by this drive."""
        return self._claims.get(tape_id, self._drive_index) == self._drive_index

    # Delegate the mutating / arrival-ordered interface.
    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self):
        return iter(self._inner)

    def __contains__(self, request: Request) -> bool:
        return request in self._inner

    @property
    def catalog(self) -> BlockCatalog:
        """The shared block catalog."""
        return self._inner.catalog

    def append(self, request: Request) -> None:
        """Defer ``request`` to the shared pending list."""
        self._inner.append(request)

    def remove_many(self, requests: Iterable[Request]) -> None:
        """Remove scheduled requests from the shared pending list."""
        self._inner.remove_many(requests)

    def snapshot(self) -> List[Request]:
        """Arrival-ordered copy of the shared list, claims ignored."""
        return self._inner.snapshot()

    def lost(self) -> List[Request]:
        """Requests with no live copy on any tape, claims ignored."""
        return self._inner.lost()

    # Filtered candidate queries.
    def oldest(self) -> Optional[Request]:
        """Oldest request servable by a tape visible to this drive."""
        for request in self._inner:
            replicas = self.catalog.replicas_of(request.block_id)
            if any(self._visible(replica.tape_id) for replica in replicas):
                return request
        return None

    def requests_for_tape(self, tape_id: int) -> Collection[Request]:
        """Pending requests on ``tape_id`` if it is visible, else ()."""
        if not self._visible(tape_id):
            return ()
        return self._inner.requests_for_tape(tape_id)

    def positions_on(self, tape_id: int) -> Collection[float]:
        """Copy positions on ``tape_id`` if it is visible, else ()."""
        # ``_visible`` inlined: a max-bandwidth decision calls this once
        # per candidate tape.
        if self._claims.get(tape_id, self._drive_index) != self._drive_index:
            return ()
        return self._inner.positions_on(tape_id)

    def candidate_tapes(self) -> CandidateTapes:
        """Per-tape pending requests, excluding other drives' claims."""
        return self._inner.candidate_tapes().for_drive(self._claims, self._drive_index)
