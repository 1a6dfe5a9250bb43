"""The pending list: requests not yet scheduled for retrieval.

The pending list is arrival-ordered (paper Section 2.2): "oldest request"
policies look at its head.  Schedulers query it by tape; those queries
used to be linear scans over all pending requests, which made every
``candidate_tapes()``/``requests_for_tape()`` call O(n·replicas).  The
list now maintains a per-tape index updated on append/remove, so by-tape
queries are proportional to their result size.  The index also stores
each copy's position, resolved once at append, for the schedulers'
bandwidth estimates (:meth:`PendingList.positions_on`).

The index is built from the catalog's replica map at append time.  With
fault masking (a catalog declaring ``dynamic_replicas``) the catalog's
answers can change *after* a request is appended, so the list subscribes
to mask growth through the catalog's ``add_mask_listener`` and deletes
each newly hidden (request, tape) entry the moment its tape fails or its
copy is condemned.  Masks only ever grow during a run (tapes fail,
replicas are discovered bad; nothing recovers), so the pruned index
holds exactly the copies the live masked catalog still shows, in the
same arrival order, without re-checking the masks per query.  A request
whose last live copy is pruned, or that arrives with none, is recorded
as lost (:meth:`PendingList.lost`) for the recovery layer to fail.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from ..layout.catalog import BlockCatalog
from ..workload.requests import Request


class PendingList:
    """Arrival-ordered collection of unscheduled requests."""

    def __init__(self, catalog: BlockCatalog) -> None:
        self._catalog = catalog
        self._requests: List[Request] = []
        self._by_id: Dict[int, Request] = {}
        #: tape_id -> {request_id: request}; insertion order == arrival
        #: order, so dict values enumerate in the order the old linear
        #: scan produced.
        self._by_tape: Dict[int, Dict[int, Request]] = {}
        #: tape_id -> {request_id: position_mb}, keyed and ordered
        #: exactly like ``_by_tape[tape_id]``.
        self._positions: Dict[int, Dict[int, float]] = {}
        #: request_id -> tapes still holding a live indexed copy.
        self._tapes_of: Dict[int, Set[int]] = {}
        #: Ids of pending requests with no live copy left.
        self._lost: Set[int] = set()
        if getattr(catalog, "dynamic_replicas", False):
            subscribe = getattr(catalog, "add_mask_listener", None)
            if subscribe is None:
                raise TypeError(
                    "a catalog with dynamic_replicas must provide "
                    "add_mask_listener so the pending index can follow its masks"
                )
            subscribe(self)
        #: Membership listeners (e.g. the envelope scheduler's
        #: :class:`~repro.core.envelope.EnvelopeIndex`).  Every mutation
        #: path — scheduler removals, QoS expiry, starvation promotion,
        #: fault requeues — funnels through :meth:`append` /
        #: :meth:`remove_many`, so a listener sees the exact membership
        #: history no matter which subsystem mutated the list.
        self._listeners: List[object] = []

    def add_listener(self, listener: object) -> None:
        """Subscribe ``listener`` to membership changes.

        The listener must expose ``on_pending_append(request)`` and
        ``on_pending_remove(requests)``; both are invoked synchronously
        after the list has been updated.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: object) -> None:
        """Unsubscribe a listener previously added (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __contains__(self, request: Request) -> bool:
        return request.request_id in self._by_id

    @property
    def catalog(self) -> BlockCatalog:
        """The block catalog used to resolve candidate tapes."""
        return self._catalog

    def append(self, request: Request) -> None:
        """Add a newly deferred request at the tail (arrival order)."""
        request_id = request.request_id
        if request_id in self._by_id:
            raise ValueError(f"request {request_id} already pending")
        self._requests.append(request)
        self._by_id[request_id] = request
        tapes = self._tapes_of[request_id] = set()
        by_tape = self._by_tape
        positions = self._positions
        for replica in self._catalog.replicas_of(request.block_id):
            tape_id = replica.tape_id
            tapes.add(tape_id)
            bucket = by_tape.get(tape_id)
            if bucket is None:
                bucket = by_tape[tape_id] = {}
                positions[tape_id] = {}
            bucket[request_id] = request
            positions[tape_id][request_id] = replica.position_mb
        if not tapes:
            self._lost.add(request_id)
        for listener in self._listeners:
            listener.on_pending_append(request)

    def oldest(self) -> Optional[Request]:
        """The request at the head of the list, or ``None`` when empty."""
        return self._requests[0] if self._requests else None

    def requests_for_tape(self, tape_id: int) -> List[Request]:
        """Pending requests with a live replica on ``tape_id`` (arrival order)."""
        bucket = self._by_tape.get(tape_id)
        return list(bucket.values()) if bucket else []

    def positions_on(self, tape_id: int) -> List[float]:
        """Positions of :meth:`requests_for_tape`'s copies, in the same order."""
        bucket = self._positions.get(tape_id)
        return list(bucket.values()) if bucket else []

    def candidate_tapes(self) -> Dict[int, List[Request]]:
        """Map ``tape_id -> pending requests with a live replica there``."""
        return {
            tape_id: list(bucket.values())
            for tape_id, bucket in self._by_tape.items()
            if bucket
        }

    def lost(self) -> List[Request]:
        """Pending requests with no live copy left, in arrival order."""
        lost = self._lost
        if not lost:
            return []
        return [request for request in self._requests if request.request_id in lost]

    def remove_many(self, requests: List[Request]) -> None:
        """Remove ``requests`` (they have been scheduled for service)."""
        removing = {request.request_id for request in requests}
        missing = removing - self._by_id.keys()
        if missing:
            raise KeyError(f"requests not pending: {sorted(missing)}")
        self._requests = [
            request for request in self._requests if request.request_id not in removing
        ]
        by_tape = self._by_tape
        positions = self._positions
        for request_id in removing:
            del self._by_id[request_id]
            for tape_id in self._tapes_of.pop(request_id):
                del by_tape[tape_id][request_id]
                del positions[tape_id][request_id]
        self._lost -= removing
        for listener in self._listeners:
            listener.on_pending_remove(requests)

    def snapshot(self) -> List[Request]:
        """Copy of the pending requests in arrival order."""
        return list(self._requests)

    # -- mask listener (fault-masked catalogs) --------------------------
    def on_tape_failed(self, tape_id: int) -> None:
        """Drop every indexed copy on ``tape_id`` (the tape left service)."""
        self._positions.pop(tape_id, None)
        bucket = self._by_tape.pop(tape_id, None)
        if bucket:
            self._hide(tape_id, bucket.values())

    def on_replica_condemned(self, tape_id: int, block_id: int) -> None:
        """Drop the indexed copies of ``block_id`` on ``tape_id``."""
        bucket = self._by_tape.get(tape_id)
        if not bucket:
            return
        hidden = [
            request for request in bucket.values() if request.block_id == block_id
        ]
        positions = self._positions[tape_id]
        for request in hidden:
            del bucket[request.request_id]
            del positions[request.request_id]
        self._hide(tape_id, hidden)

    def _hide(self, tape_id: int, requests: Iterable[Request]) -> None:
        """Unlink ``tape_id`` from ``requests``; record the ones now lost."""
        tapes_of = self._tapes_of
        for request in requests:
            tapes = tapes_of[request.request_id]
            tapes.remove(tape_id)
            if not tapes:
                self._lost.add(request.request_id)
