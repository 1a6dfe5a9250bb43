"""Block catalog: the mapping from logical blocks to physical replicas.

The unit of storage and I/O is a fixed-size logical block.  A logical
block may be replicated on multiple tapes with at most one copy per tape
(paper Section 2.2).  The catalog is immutable once built and is shared
by the workload generator (to draw block ids) and the schedulers (to
enumerate a request's candidate replicas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


@dataclass(frozen=True, order=True)
class Replica:
    """One physical copy of a logical block."""

    tape_id: int
    position_mb: float


class BlockCatalog:
    """Immutable logical-block -> replica map with per-tape indexes.

    Logical block ids are dense integers ``0..n_blocks-1``; ids below
    ``n_hot`` are the hot blocks (the builder arranges this).
    """

    def __init__(
        self,
        block_mb: float,
        n_hot: int,
        replicas_by_block: Sequence[Sequence[Replica]],
    ) -> None:
        if block_mb <= 0:
            raise ValueError(f"block_mb must be positive, got {block_mb!r}")
        if n_hot < 0 or n_hot > len(replicas_by_block):
            raise ValueError(
                f"n_hot={n_hot} outside [0, {len(replicas_by_block)}]"
            )
        self._block_mb = float(block_mb)
        self._n_hot = n_hot
        self._replicas: Tuple[Tuple[Replica, ...], ...] = tuple(
            tuple(sorted(replica_list)) for replica_list in replicas_by_block
        )
        on_tape: List[Dict[int, Replica]] = []
        by_tape: Dict[int, List[Tuple[float, int]]] = {}
        for block_id, replica_list in enumerate(self._replicas):
            if not replica_list:
                raise ValueError(f"logical block {block_id} has no replicas")
            copies = {}
            for replica in replica_list:
                tape_id = replica.tape_id
                copies[tape_id] = replica
                entries = by_tape.get(tape_id)
                if entries is None:
                    entries = by_tape[tape_id] = []
                entries.append((replica.position_mb, block_id))
            if len(copies) != len(replica_list):
                raise ValueError(
                    f"logical block {block_id} has multiple copies on one tape"
                )
            on_tape.append(copies)
        #: Per-block ``tape_id -> Replica`` maps for O(1) lookups.
        self._on_tape: Tuple[Dict[int, Replica], ...] = tuple(on_tape)
        self._by_tape: Dict[int, Tuple[Tuple[float, int], ...]] = {
            tape_id: tuple(sorted(entries)) for tape_id, entries in by_tape.items()
        }

    # ------------------------------------------------------------------
    @property
    def block_mb(self) -> float:
        """Logical block size in MB."""
        return self._block_mb

    @property
    def n_blocks(self) -> int:
        """Number of logical blocks."""
        return len(self._replicas)

    @property
    def n_hot(self) -> int:
        """Number of hot logical blocks (ids ``0..n_hot-1``)."""
        return self._n_hot

    @property
    def n_cold(self) -> int:
        """Number of cold logical blocks (ids ``n_hot..n_blocks-1``)."""
        return self.n_blocks - self._n_hot

    def is_hot(self, block_id: int) -> bool:
        """True when ``block_id`` is a hot block."""
        return 0 <= block_id < self._n_hot

    def replicas_of(self, block_id: int) -> Tuple[Replica, ...]:
        """All physical copies of ``block_id`` (sorted by tape then position)."""
        return self._replicas[block_id]

    def replica_on(self, block_id: int, tape_id: int) -> Replica:
        """The copy of ``block_id`` on ``tape_id``; raises ``KeyError`` if none."""
        replica = self._on_tape[block_id].get(tape_id)
        if replica is None:
            raise KeyError(f"block {block_id} has no copy on tape {tape_id}")
        return replica

    def has_replica_on(self, block_id: int, tape_id: int) -> bool:
        """True when ``block_id`` has a copy on ``tape_id``."""
        return tape_id in self._on_tape[block_id]

    def replication_degree(self, block_id: int) -> int:
        """Number of physical copies of ``block_id``."""
        return len(self._replicas[block_id])

    # ------------------------------------------------------------------
    @property
    def tape_ids(self) -> Iterable[int]:
        """Tape ids that hold at least one block."""
        return self._by_tape.keys()

    def tape_contents(self, tape_id: int) -> Tuple[Tuple[float, int], ...]:
        """Sorted ``(position_mb, block_id)`` pairs stored on ``tape_id``."""
        return self._by_tape.get(tape_id, ())

    def blocks_on_tape(self, tape_id: int) -> List[int]:
        """Logical block ids stored on ``tape_id``, in position order."""
        return [block_id for _pos, block_id in self.tape_contents(tape_id)]

    def total_copies(self) -> int:
        """Total physical copies across all tapes."""
        return sum(len(replica_list) for replica_list in self._replicas)

    def as_mapping(self) -> Mapping[int, Tuple[Replica, ...]]:
        """Read-only view ``block_id -> replicas`` (for reports/tests)."""
        return {block_id: self._replicas[block_id] for block_id in range(self.n_blocks)}
