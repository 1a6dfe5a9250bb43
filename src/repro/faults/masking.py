"""Scheduler-visible masking of failed hardware.

Schedulers discover a request's candidate copies through the block
catalog — directly (envelope, FIFO) or via the pending list's candidate
queries (static, dynamic).  :class:`FaultMaskedCatalog` is a live view
of the real catalog that hides every copy on an out-of-service tape, so
giving the scheduler context (and its pending list) the masked view
makes every scheduler family fault-aware without per-algorithm changes.

The masks are the injector's mutable ``failed_tapes`` and ``known_bad``
sets, shared by reference: a tape or copy condemned mid-run disappears
from the very next catalog query.  Consumers that index copies ahead of
time cannot rely on a live view alone, so the view also forwards
:meth:`FaultMaskedCatalog.add_mask_listener` to the injector, which
announces each growth of a mask.  The pending list subscribes when it
is built over a view declaring ``dynamic_replicas`` and deletes the
newly hidden (request, tape) entries from its per-tape index at once,
so its by-tape queries never re-check the masks.

Requests whose every copy is masked must be failed by the recovery
layer before rescheduling (the simulators' ``_drop_lost_requests``,
which reads them from :meth:`~repro.core.pending.PendingList.lost`),
since a masked ``replicas_of`` may be empty.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Set, Tuple

from ..layout.catalog import BlockCatalog, Replica


class FaultMaskedCatalog:
    """A read-only catalog view hiding dead copies and failed tapes."""

    #: Replica answers can change between calls (masks grow as faults
    #: are discovered).  Consumers that index replicas at insertion time
    #: (the pending list) check this flag and subscribe through
    #: :meth:`add_mask_listener`.
    dynamic_replicas = True

    def __init__(
        self,
        inner: BlockCatalog,
        failed_tapes: Set[int],
        known_bad: Optional[Set[Tuple[int, int]]] = None,
        notifier: Optional[object] = None,
    ) -> None:
        self._inner = inner
        self._failed = failed_tapes
        self._known_bad = known_bad if known_bad is not None else set()
        #: The owner of the mask sets that announces their growth
        #: (a :class:`~repro.faults.injector.FaultInjector`), if any.
        self._notifier = notifier
        if notifier is not None and not self._failed and not self._known_bad:
            # Nothing is masked yet and masks only grow, announced by the
            # notifier: until the first growth the replica queries are
            # the inner catalog's own, with no per-call mask checks.
            self.replicas_of = inner.replicas_of
            self.replica_on = inner.replica_on
            self.has_replica_on = inner.has_replica_on
            notifier.add_mask_listener(self)

    def add_mask_listener(self, listener: object) -> None:
        """Subscribe ``listener`` to mask growth (forwarded to the notifier).

        Raises ``TypeError`` when the view was built without a notifier:
        a consumer that indexes copies ahead of time would otherwise go
        stale silently.
        """
        if self._notifier is None:
            raise TypeError(
                "this masked catalog has no notifier; build it with "
                "notifier=<the FaultInjector owning its masks>"
            )
        self._notifier.add_mask_listener(listener)

    # -- mask listener: the first growth ends the pass-through ----------
    def on_tape_failed(self, tape_id: int) -> None:
        """A mask grew: answer through the mask checks from now on."""
        self._unbind_inner()

    def on_replica_condemned(self, tape_id: int, block_id: int) -> None:
        """A mask grew: answer through the mask checks from now on."""
        self._unbind_inner()

    def _unbind_inner(self) -> None:
        for name in ("replicas_of", "replica_on", "has_replica_on"):
            self.__dict__.pop(name, None)

    # -- pass-through block geometry ------------------------------------
    @property
    def block_mb(self) -> float:
        """Logical block size in MB."""
        return self._inner.block_mb

    @property
    def n_blocks(self) -> int:
        """Number of logical blocks."""
        return self._inner.n_blocks

    @property
    def n_hot(self) -> int:
        """Number of hot logical blocks."""
        return self._inner.n_hot

    @property
    def n_cold(self) -> int:
        """Number of cold logical blocks."""
        return self._inner.n_cold

    def is_hot(self, block_id: int) -> bool:
        """True when ``block_id`` is a hot block."""
        return self._inner.is_hot(block_id)

    def _masked(self, tape_id: int, block_id: int) -> bool:
        return tape_id in self._failed or (tape_id, block_id) in self._known_bad

    # -- masked replica queries -----------------------------------------
    def replicas_of(self, block_id: int) -> Tuple[Replica, ...]:
        """Surviving copies of ``block_id`` (may be empty)."""
        return tuple(
            replica
            for replica in self._inner.replicas_of(block_id)
            if not self._masked(replica.tape_id, block_id)
        )

    def replica_on(self, block_id: int, tape_id: int) -> Replica:
        """The copy on ``tape_id``; ``KeyError`` if absent or masked."""
        if self._masked(tape_id, block_id):
            raise KeyError(f"block {block_id} has no live copy on tape {tape_id}")
        return self._inner.replica_on(block_id, tape_id)

    def has_replica_on(self, block_id: int, tape_id: int) -> bool:
        """True when ``block_id`` has a surviving copy on ``tape_id``."""
        if self._masked(tape_id, block_id):
            return False
        return self._inner.has_replica_on(block_id, tape_id)

    def replication_degree(self, block_id: int) -> int:
        """Number of copies of ``block_id`` on surviving tapes."""
        return len(self.replicas_of(block_id))

    # -- masked per-tape queries ----------------------------------------
    @property
    def tape_ids(self) -> Iterable[int]:
        """Surviving tape ids holding at least one block."""
        return [
            tape_id for tape_id in self._inner.tape_ids if tape_id not in self._failed
        ]

    def tape_contents(self, tape_id: int) -> Tuple[Tuple[float, int], ...]:
        """Live contents of ``tape_id`` (empty when it is out of service)."""
        if tape_id in self._failed:
            return ()
        return tuple(
            (position_mb, block_id)
            for position_mb, block_id in self._inner.tape_contents(tape_id)
            if (tape_id, block_id) not in self._known_bad
        )

    def blocks_on_tape(self, tape_id: int) -> List[int]:
        """Live blocks on ``tape_id`` (empty when it is out of service)."""
        if tape_id in self._failed:
            return []
        return [
            block_id
            for block_id in self._inner.blocks_on_tape(tape_id)
            if (tape_id, block_id) not in self._known_bad
        ]

    def total_copies(self) -> int:
        """Total copies across surviving tapes."""
        return sum(
            len(self.replicas_of(block_id)) for block_id in range(self.n_blocks)
        )

    def as_mapping(self) -> Mapping[int, Tuple[Replica, ...]]:
        """Read-only ``block_id -> surviving replicas`` view."""
        return {
            block_id: self.replicas_of(block_id) for block_id in range(self.n_blocks)
        }
