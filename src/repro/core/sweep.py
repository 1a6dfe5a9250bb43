"""The service list: a retrieval schedule executed as one sweep.

A schedule over one tape is executed in a single *sweep* (paper
Section 2.2): starting from the head position at sweep start, a *forward
phase* reads the scheduled blocks at or above the head in ascending
position order, then a *reverse phase* reads the remaining blocks in
descending order.  Dynamic schedulers may insert newly arrived requests
into the part of the sweep the head has not yet passed.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional

from ..workload.requests import Request


@dataclass
class ServiceEntry:
    """One block read in the sweep; coalesces all requests for that block."""

    position_mb: float
    block_id: int
    requests: List[Request] = field(default_factory=list)

    def attach(self, request: Request) -> None:
        """Coalesce another request onto this scheduled read."""
        self.requests.append(request)


_position = attrgetter("position_mb")


def _negated_position(entry: ServiceEntry) -> float:
    return -entry.position_mb


class SweepPhase(enum.Enum):
    """Which part of the sweep the head is currently executing."""

    FORWARD = "forward"
    REVERSE = "reverse"
    DONE = "done"


class ServiceList:
    """A sweep-ordered schedule with on-the-fly insertion support.

    Invariants:

    * the forward phase holds entries at positions ``>= start_head_mb``
      in ascending order; the reverse phase holds entries below the start
      head in descending order;
    * an insertion never lands at or behind the sweep's progress: once a
      forward read at position ``q`` has started, forward insertions must
      be strictly above ``q``; once the reverse phase has started, forward
      insertions are rejected and reverse insertions must be strictly
      below the last started reverse position.
    """

    def __init__(self, entries: List[ServiceEntry], head_mb: float) -> None:
        self.start_head_mb = float(head_mb)
        # One stable ascending sort: the forward phase is its tail, the
        # reverse phase its head read backwards.  Reading backwards
        # reverses equal positions, so only then is the head re-sorted
        # descending, stable in the given order.
        ordered = sorted(entries, key=_position)
        split = bisect.bisect_left(ordered, head_mb, key=_position)
        self._forward: List[ServiceEntry] = ordered[split:]
        reverse = ordered[split - 1 :: -1] if split else []
        if split > 1 and len(set(map(_position, reverse))) < split:
            reverse = sorted(ordered[:split], key=_negated_position)
        self._reverse: List[ServiceEntry] = reverse
        self._in_flight: Optional[ServiceEntry] = None
        #: Position of the deepest forward read started (sweep progress).
        self._forward_bound: Optional[float] = None
        #: Position of the deepest reverse read started.
        self._reverse_bound: Optional[float] = None
        self._reverse_started = False
        #: block_id -> not-yet-started entries for that block, maintained
        #: by pop_next/insert.  Schedulers coalesce to one entry per
        #: block, so buckets almost always hold a single entry; the list
        #: keeps hand-built schedules with duplicates working.
        self._by_block: Dict[int, List[ServiceEntry]] = {}
        for entry in self._forward:
            self._by_block.setdefault(entry.block_id, []).append(entry)
        for entry in self._reverse:
            self._by_block.setdefault(entry.block_id, []).append(entry)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._forward) + len(self._reverse)

    @property
    def is_empty(self) -> bool:
        """True when no reads remain to be started."""
        return not self._forward and not self._reverse

    @property
    def in_flight(self) -> Optional[ServiceEntry]:
        """The entry currently being read, if any."""
        return self._in_flight

    @property
    def phase(self) -> SweepPhase:
        """The phase the *next* pop will execute in."""
        if self._forward:
            return SweepPhase.FORWARD
        if self._reverse:
            return SweepPhase.REVERSE
        return SweepPhase.DONE

    def remaining(self) -> List[ServiceEntry]:
        """Entries not yet started, in execution order."""
        return list(self._forward) + list(self._reverse)

    def remaining_positions(self) -> List[float]:
        """Positions of not-yet-started entries, in execution order."""
        return [entry.position_mb for entry in self.remaining()]

    def find_block(self, block_id: int) -> Optional[ServiceEntry]:
        """A not-yet-started entry for ``block_id``, or ``None``.

        With duplicate entries for one block the earliest in execution
        order wins — the same entry a scan of forward-then-reverse in
        phase order would have returned.
        """
        entries = self._by_block.get(block_id)
        if not entries:
            return None
        if len(entries) == 1:
            return entries[0]
        head = self.start_head_mb
        return min(
            entries,
            key=lambda entry: (0.0, entry.position_mb)
            if entry.position_mb >= head
            else (1.0, -entry.position_mb),
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pop_next(self) -> ServiceEntry:
        """Dequeue the next read and mark it in-flight."""
        if self._forward:
            entry = self._forward.pop(0)
            self._forward_bound = entry.position_mb
        elif self._reverse:
            entry = self._reverse.pop(0)
            self._reverse_started = True
            self._reverse_bound = entry.position_mb
        else:
            raise IndexError("pop from an empty service list")
        bucket = self._by_block[entry.block_id]
        for index, candidate in enumerate(bucket):
            if candidate is entry:
                del bucket[index]
                break
        if not bucket:
            del self._by_block[entry.block_id]
        self._in_flight = entry
        return entry

    def finish_in_flight(self) -> None:
        """Mark the in-flight read complete."""
        self._in_flight = None

    # ------------------------------------------------------------------
    # Insertion (dynamic incremental scheduling)
    # ------------------------------------------------------------------
    def can_insert(self, position_mb: float) -> bool:
        """True if a read at ``position_mb`` is still ahead of the sweep."""
        if position_mb >= self.start_head_mb:
            if self._reverse_started:
                return False  # the sweep will never move forward again
            if self._forward_bound is None:
                return True
            return position_mb > self._forward_bound
        # Below the sweep's start head: reverse-phase territory.
        if not self._reverse_started:
            return True
        assert self._reverse_bound is not None
        return position_mb < self._reverse_bound

    def insert(self, entry: ServiceEntry) -> bool:
        """Insert ``entry`` into the not-yet-executed part of the sweep.

        Returns ``False`` (schedule unchanged) when the head has already
        passed the entry's position in sweep order.
        """
        if not self.can_insert(entry.position_mb):
            return False
        position_mb = entry.position_mb
        if position_mb >= self.start_head_mb:
            index = bisect.bisect_left(self._forward, position_mb, key=_position)
            self._forward.insert(index, entry)
        else:
            index = bisect.bisect_left(
                self._reverse, -position_mb, key=_negated_position
            )
            self._reverse.insert(index, entry)
        self._by_block.setdefault(entry.block_id, []).append(entry)
        return True
