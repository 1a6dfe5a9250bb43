"""Delta-file write-back: idle-time and piggybacked writes.

The paper's workload section assumes "writes would be directed to
disk-resident delta files, occasionally written to tape during idle
time or piggybacked on the read schedule".  This module implements that
mechanism:

* a :class:`DeltaBuffer` stages dirty logical blocks on disk — one
  pending write item per physical copy (a replicated block is clean
  only when every copy has been rewritten);
* a :class:`WritebackSimulator` extends the service loop so that

  - each read sweep is **piggybacked** with the staged writes destined
    for the mounted tape (they join the same forward/reverse sweep, so
    they ride on positioning the schedule pays for anyway), and
  - when the jukebox goes **idle** with writes outstanding, the drive
    performs a pure write sweep on the tape with the most staged writes
    instead of sitting still.

Transfer cost of a write equals a read of the same size (helical-scan
overwrite-in-place simplification; the paper's delta-file design makes
the same assumption implicitly by piggybacking writes on read sweeps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.sweep import ServiceEntry, ServiceList
from ..layout.catalog import BlockCatalog
from ..stats import RunningStats
from ..workload.requests import Request
from .simulator import JukeboxSimulator


@dataclass(frozen=True)
class WriteItem:
    """One pending physical write: a block copy on a specific tape."""

    block_id: int
    tape_id: int
    position_mb: float
    staged_s: float


@dataclass
class DeltaBuffer:
    """Disk-resident staging area for not-yet-hardened writes."""

    catalog: BlockCatalog
    #: (block_id, tape_id) -> staged item, so re-dirtying coalesces.
    _items: Dict[tuple, WriteItem] = field(default_factory=dict)
    staged_total: int = 0
    written_total: int = 0
    write_latency: RunningStats = field(default_factory=RunningStats)

    def stage(self, block_id: int, now: float) -> int:
        """Mark ``block_id`` dirty; returns how many copies need writing."""
        replicas = self.catalog.replicas_of(block_id)
        for replica in replicas:
            key = (block_id, replica.tape_id)
            if key not in self._items:
                self._items[key] = WriteItem(
                    block_id=block_id,
                    tape_id=replica.tape_id,
                    position_mb=replica.position_mb,
                    staged_s=now,
                )
        self.staged_total += 1
        return len(replicas)

    def __len__(self) -> int:
        return len(self._items)

    def items_for_tape(self, tape_id: int) -> List[WriteItem]:
        """Staged writes whose target copy lives on ``tape_id``."""
        return sorted(
            (item for item in self._items.values() if item.tape_id == tape_id),
            key=lambda item: item.position_mb,
        )

    def backlog_by_tape(self) -> Dict[int, int]:
        """tape_id -> number of staged writes targeting it."""
        backlog: Dict[int, int] = {}
        for item in self._items.values():
            backlog[item.tape_id] = backlog.get(item.tape_id, 0) + 1
        return backlog

    def complete(self, item: WriteItem, now: float) -> None:
        """A copy was written to tape; record its staging latency."""
        self._items.pop((item.block_id, item.tape_id), None)
        self.written_total += 1
        self.write_latency.add(now - item.staged_s)


class _WriteEntry(ServiceEntry):
    """A sweep entry that writes instead of reads (no waiting requests)."""

    def __init__(self, item: WriteItem) -> None:
        super().__init__(position_mb=item.position_mb, block_id=item.block_id)
        self.write_item = item


class WritebackSimulator(JukeboxSimulator):
    """Service model with piggybacked and idle-time write-back.

    ``write_interarrival_s`` adds a Poisson stream of block updates
    (drawn by the same skew as reads, from ``write_rng``); pass ``None``
    and call :meth:`delta.stage` directly for scripted writes.
    """

    def __init__(
        self,
        *args,
        write_interarrival_s: Optional[float] = None,
        write_rng=None,
        piggyback: bool = True,
        idle_flush: bool = True,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if len(self.contexts) > 1:
            raise ValueError("write-back runs on a single drive")
        self.delta = DeltaBuffer(catalog=self.catalog)
        self.write_interarrival_s = write_interarrival_s
        self.write_rng = write_rng
        self.piggyback = piggyback
        self.idle_flush = idle_flush
        self.piggybacked_writes = 0
        self.idle_flush_sweeps = 0
        if write_interarrival_s is not None and write_rng is None:
            raise ValueError("write_interarrival_s requires write_rng")

    # ------------------------------------------------------------------
    def start(self, horizon_s: float) -> None:
        """Start the read machinery plus the write arrival stream."""
        super().start(horizon_s)
        if self.write_interarrival_s is not None:
            self.env.process(self._write_arrival_process(horizon_s))

    def _write_arrival_process(self, horizon_s: float):
        skew = getattr(self.source, "skew", None)
        while True:
            delay = self.write_rng.expovariate(1.0 / self.write_interarrival_s)
            if self.env.now + delay > horizon_s:
                return
            yield delay
            if skew is not None:
                block_id = skew.draw_block(self.write_rng, self.catalog)
            else:
                block_id = self.write_rng.randrange(self.catalog.n_blocks)
            self.delta.stage(block_id, self.env.now)
            self._wake_idle_drives()

    # ------------------------------------------------------------------
    def _drive_process(self, drive: int):
        """The four-step loop, with write piggybacking and idle flushes."""
        context = self.contexts[drive]
        block_mb = context.catalog.block_mb
        while True:
            while len(context.pending) == 0:
                if self.idle_flush and len(self.delta) > 0:
                    yield from self._flush_sweep(block_mb)
                    if len(context.pending) > 0:
                        break
                    continue
                self._wakeups[drive] = self.env.event()
                yield self._wakeups[drive]
            if len(context.pending) == 0:
                continue

            decision = self.schedulers[drive].major_reschedule(context)
            if decision is None:  # pragma: no cover - pending non-empty
                continue

            jukebox = self.bays[drive]
            switching = decision.tape_id != jukebox.mounted_id
            start_head = 0.0 if switching else jukebox.head_mb
            entries: List[ServiceEntry] = list(decision.entries)
            if self.piggyback:
                scheduled_blocks = {entry.block_id for entry in entries}
                for item in self.delta.items_for_tape(decision.tape_id):
                    if item.block_id in scheduled_blocks:
                        continue  # a read of the same block passes anyway
                    entries.append(_WriteEntry(item))
                    self.piggybacked_writes += 1
            service = ServiceList(entries, head_mb=start_head)
            context.service = service
            if switching:
                duration = jukebox.switch_to(decision.tape_id)
                yield self._timed(duration)
                self.metrics.on_tape_switch(self.env.now)

            yield from self._execute_sweep(service, block_mb)
            context.service = None
            self.schedulers[drive].on_sweep_complete(context)

    def _execute_sweep(self, service: ServiceList, block_mb: float):
        while not service.is_empty:
            entry = service.pop_next()
            duration = self.bays[0].access(entry.position_mb, block_mb)
            yield self._timed(duration)
            service.finish_in_flight()
            if isinstance(entry, _WriteEntry):
                self.delta.complete(entry.write_item, self.env.now)
                continue
            for request in entry.requests:
                self.metrics.on_completion(request, self.env.now)
                if self.source.is_closed:
                    replacement = self.source.on_completion(self.env.now)
                    if replacement is not None:
                        self.submit(replacement)

    def _flush_sweep(self, block_mb: float):
        """Idle-time write sweep on the most write-laden tape."""
        backlog = self.delta.backlog_by_tape()
        if not backlog:
            return
        tape_id = max(sorted(backlog), key=backlog.get)
        items = self.delta.items_for_tape(tape_id)
        jukebox = self.bays[0]
        context = self.contexts[0]
        switching = tape_id != jukebox.mounted_id
        start_head = 0.0 if switching else jukebox.head_mb
        service = ServiceList([_WriteEntry(item) for item in items], head_mb=start_head)
        context.service = service
        self.idle_flush_sweeps += 1
        if switching:
            duration = jukebox.switch_to(tape_id)
            yield self._timed(duration)
            self.metrics.on_tape_switch(self.env.now)
        yield from self._execute_sweep(service, block_mb)
        context.service = None
        self.schedulers[0].on_sweep_complete(context)
