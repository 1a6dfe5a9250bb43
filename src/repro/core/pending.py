"""The pending list: requests not yet scheduled for retrieval.

The pending list is arrival-ordered (paper Section 2.2): "oldest request"
policies look at its head.  Arrival order lives in ``_by_id``, a dict
keyed by request id: an append lands at its end, a removal deletes in
place, and a request put back (a requeue or failover) lands at the end
again, so the dict's insertion order *is* the arrival order and removing
a decision's requests costs only their own deletions.

Schedulers query the list by tape through a per-tape index updated on
append/remove, so by-tape queries are proportional to their result size
and never scan the whole list.  The index also stores each copy's
position, resolved once at append, for the schedulers' bandwidth
estimates and for the entries of the chosen sweep.  Tapes with no
pending request are dropped from the index at once, so its keys are
exactly the candidate tapes.

The by-tape queries return read-only *views* of the index, not copies:
:meth:`PendingList.candidate_tapes` a live :class:`CandidateTapes`
mapping ``tape_id -> requests``, :meth:`PendingList.requests_for_tape`
and :meth:`PendingList.positions_on` the index's own value views (an
empty tuple for a tape with nothing pending).  A decision prices every
candidate tape straight off them.  A view follows the list, so a caller
that keeps one across :meth:`PendingList.remove_many` (or any other
mutation) copies it first, e.g. ``list(pending.requests_for_tape(t))``.

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

from typing import (
    Collection,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    ValuesView,
)

from ..layout.catalog import BlockCatalog
from ..workload.requests import Request


class CandidateTapes(Mapping):
    """Read-only live view ``tape_id -> pending requests there``.

    Each value is the index bucket's own values view, in arrival order.
    With ``claims`` given, tapes claimed by a drive other than
    ``drive_index`` are hidden (the multi-drive claim filter).
    """

    __slots__ = ("_buckets", "_claims", "_drive_index")

    def __init__(
        self,
        buckets: Dict[int, Dict[int, Request]],
        claims: Optional[Dict[int, int]] = None,
        drive_index: int = 0,
    ) -> None:
        self._buckets = buckets
        self._claims = claims
        self._drive_index = drive_index

    def for_drive(self, claims: Dict[int, int], drive_index: int) -> "CandidateTapes":
        """The same view, hiding tapes ``claims`` gives to other drives."""
        return CandidateTapes(self._buckets, claims, drive_index)

    def _hidden(self, tape_id: int) -> bool:
        """Claimed by another drive (unclaimed and own tapes are visible)."""
        claims = self._claims
        drive_index = self._drive_index
        return bool(claims) and claims.get(tape_id, drive_index) != drive_index

    def __getitem__(self, tape_id: int) -> ValuesView[Request]:
        bucket = self._buckets[tape_id]
        if self._hidden(tape_id):
            raise KeyError(tape_id)
        return bucket.values()

    def get(self, tape_id: int, default=None):
        bucket = self._buckets.get(tape_id)
        if bucket is None or self._hidden(tape_id):
            return default
        return bucket.values()

    def __contains__(self, tape_id: object) -> bool:
        return tape_id in self._buckets and not self._hidden(tape_id)

    def __iter__(self) -> Iterator[int]:
        claims = self._claims
        if not claims:
            return iter(self._buckets)
        drive_index = self._drive_index
        return iter(
            [
                tape_id
                for tape_id in self._buckets
                if claims.get(tape_id, drive_index) == drive_index
            ]
        )

    def __len__(self) -> int:
        if not self._claims:
            return len(self._buckets)
        return sum(1 for _ in self)


class PendingList:
    """Arrival-ordered collection of unscheduled requests."""

    def __init__(self, catalog: BlockCatalog) -> None:
        self._catalog = catalog
        #: request_id -> request; insertion order == arrival order.
        self._by_id: Dict[int, Request] = {}
        #: tape_id -> {request_id: request}, only for tapes with a
        #: pending copy; insertion order == arrival order, so dict values
        #: enumerate in the order a linear scan would produce.
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

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._by_id.values())

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

    def oldest(self) -> Optional[Request]:
        """The request at the head of the list, or ``None`` when empty."""
        return next(iter(self._by_id.values()), None)

    def requests_for_tape(self, tape_id: int) -> Collection[Request]:
        """Pending requests with a live copy on ``tape_id`` (arrival order).

        A live read-only view; copy it to keep it across a mutation.
        """
        bucket = self._by_tape.get(tape_id)
        return bucket.values() if bucket is not None else ()

    def positions_on(self, tape_id: int) -> Collection[float]:
        """Positions of :meth:`requests_for_tape`'s copies, in the same order.

        A live read-only view; copy it to keep it across a mutation.
        """
        bucket = self._positions.get(tape_id)
        return bucket.values() if bucket is not None else ()

    def candidate_tapes(self) -> CandidateTapes:
        """Live view ``tape_id -> pending requests with a live copy there``."""
        return CandidateTapes(self._by_tape)

    def lost(self) -> List[Request]:
        """Pending requests with no live copy left, in arrival order."""
        lost = self._lost
        if not lost:
            return []
        return [
            request for request_id, request in self._by_id.items() if request_id in lost
        ]

    def remove_many(self, requests: Iterable[Request]) -> None:
        """Remove ``requests`` (they have been scheduled for service).

        ``requests`` is read once, before anything is removed, so one of
        this list's own views may be passed.
        """
        removing = {request.request_id for request in requests}
        by_id = self._by_id
        missing = removing - by_id.keys()
        if missing:
            raise KeyError(f"requests not pending: {sorted(missing)}")
        by_tape = self._by_tape
        positions = self._positions
        tapes_of = self._tapes_of
        for request_id in removing:
            del by_id[request_id]
            for tape_id in tapes_of.pop(request_id):
                bucket = by_tape[tape_id]
                del bucket[request_id]
                if bucket:
                    del positions[tape_id][request_id]
                else:
                    del by_tape[tape_id]
                    del positions[tape_id]
        if self._lost:
            self._lost -= removing

    def snapshot(self) -> List[Request]:
        """Copy of the pending requests in arrival order."""
        return list(self._by_id.values())

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
        if not bucket:
            del self._by_tape[tape_id]
            del self._positions[tape_id]
        self._hide(tape_id, hidden)

    def _hide(self, tape_id: int, requests: Iterable[Request]) -> None:
        """Unlink ``tape_id`` from ``requests``; record the ones now lost."""
        tapes_of = self._tapes_of
        for request in requests:
            tapes = tapes_of[request.request_id]
            tapes.remove(tape_id)
            if not tapes:
                self._lost.add(request.request_id)
