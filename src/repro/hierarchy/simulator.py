"""End-to-end storage hierarchy: memory -> disk -> tape jukebox.

Client requests are checked against the memory tier, then the disk
tier; only misses reach the jukebox (the paper's premise that jukeboxes
see "relatively cold" traffic).  Blocks read from tape are promoted
into the disk cache, and disk hits are promoted into memory, so the
hierarchy shapes its own miss stream: sustained hot traffic is absorbed
above the jukebox, flattening the skew (RH) the tape tier observes —
exactly the operating regime the paper's jukebox study assumes.

The hierarchy builds its own tape tier, a :class:`JukeboxSimulator`
fed only by tape misses, and hears of each tape read through the tier's
metrics collector, the one recorder every run has.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core.base import Scheduler
from ..des import Environment
from ..layout.catalog import BlockCatalog
from ..service.metrics import MetricsCollector
from ..service.simulator import JukeboxSimulator
from ..stats import RunningStats
from ..tape.jukebox import Jukebox
from ..workload.requests import Request, RequestFactory
from ..workload.skew import HotColdSkew
from .cache import LRUCache
from .disk import DiskModel, MemoryModel


class _TapeOnlySource:
    """Inert source: the hierarchy injects requests itself."""

    is_closed = False

    def initial_requests(self, now: float = 0.0) -> list:
        return []

    def on_completion(self, now: float) -> None:
        return None

    def arrivals(self, horizon_s: float, start_s: float = 0.0):
        return iter(())


class _TapeTierMetrics(MetricsCollector):
    """The tape tier's metrics; each completion also finishes the
    hierarchy's client requests waiting on that block."""

    def __init__(self, block_mb: float, promote) -> None:
        super().__init__(block_mb=block_mb)
        self._promote = promote

    def on_completion(
        self, request: Request, now: float, service_s: float = None
    ) -> None:
        super().on_completion(request, now, service_s=service_s)
        self._promote(request, now)


@dataclass
class TierStats:
    """Per-tier hit counts and user-visible latency."""

    memory_hits: int = 0
    disk_hits: int = 0
    tape_misses: int = 0
    latency: RunningStats = field(default_factory=RunningStats)
    tape_latency: RunningStats = field(default_factory=RunningStats)

    @property
    def total(self) -> int:
        """All client requests served."""
        return self.memory_hits + self.disk_hits + self.tape_misses

    @property
    def jukebox_fraction(self) -> float:
        """Fraction of client traffic that reached the tape tier."""
        return self.tape_misses / self.total if self.total else 0.0


class HierarchySimulator:
    """Poisson client stream against a three-tier storage hierarchy."""

    def __init__(
        self,
        jukebox: Jukebox,
        catalog: BlockCatalog,
        scheduler: Scheduler,
        memory_blocks: int,
        disk_blocks: int,
        skew: HotColdSkew,
        rng: random.Random,
        mean_interarrival_s: float,
        disk: DiskModel = DiskModel(),
        memory: MemoryModel = MemoryModel(),
    ) -> None:
        if mean_interarrival_s <= 0:
            raise ValueError(
                f"mean_interarrival_s must be positive, got {mean_interarrival_s!r}"
            )
        self.env = Environment()
        self.catalog = catalog
        #: The tape tier: sees only the misses the caches forward.
        self.tape = JukeboxSimulator(
            env=self.env,
            jukebox=jukebox,
            catalog=catalog,
            scheduler=scheduler,
            source=_TapeOnlySource(),
            metrics=_TapeTierMetrics(catalog.block_mb, self._tape_completed),
        )
        self.memory_cache = LRUCache(memory_blocks)
        self.disk_cache = LRUCache(disk_blocks)
        self.skew = skew
        self.rng = rng
        self.mean_interarrival_s = mean_interarrival_s
        self.disk = disk
        self.memory = memory
        self.stats = TierStats()
        self._factory = RequestFactory()
        #: Blocks with a tape read in flight; coalesces concurrent misses.
        self._in_flight: dict = {}
        self.tape_request_blocks = RunningStats()  # hot=1 / cold=0 indicator

    # ------------------------------------------------------------------
    def run(self, horizon_s: float) -> TierStats:
        """Simulate client traffic until ``horizon_s``."""
        self.tape.start(horizon_s)
        self.env.process(self._client_process(horizon_s))
        self.env.run(until=horizon_s)
        self.tape.metrics.finalize(self.env.now)
        return self.stats

    # ------------------------------------------------------------------
    def _client_process(self, horizon_s: float):
        while True:
            delay = self.rng.expovariate(1.0 / self.mean_interarrival_s)
            if self.env.now + delay > horizon_s:
                return
            yield delay
            block_id = self.skew.draw_block(self.rng, self.catalog)
            self.env.process(self._serve(block_id, self.env.now))

    def _serve(self, block_id: int, arrival_s: float):
        block_mb = self.catalog.block_mb
        if self.memory_cache.access(block_id):
            self.stats.memory_hits += 1
            yield self.memory.service_s(block_mb)
            self.stats.latency.add(self.env.now - arrival_s)
            return
        if self.disk_cache.access(block_id):
            self.stats.disk_hits += 1
            yield self.disk.service_s(block_mb)
            self.memory_cache.insert(block_id)
            self.stats.latency.add(self.env.now - arrival_s)
            return
        # Tape miss: forward to the jukebox, coalescing with any read of
        # the same block already in flight.
        self.stats.tape_misses += 1
        self.tape_request_blocks.add(1.0 if self.catalog.is_hot(block_id) else 0.0)
        waiters = self._in_flight.get(block_id)
        if waiters is None:
            self._in_flight[block_id] = [arrival_s]
            request = self._factory.create(block_id, self.env.now)
            self.tape.submit(request)
        else:
            waiters.append(arrival_s)

    def _tape_completed(self, request: Request, now: float) -> None:
        """Promote the block and complete every waiting client request."""
        self.disk_cache.insert(request.block_id)
        waiters = self._in_flight.pop(request.block_id, [])
        for arrival_s in waiters:
            self.stats.latency.add(now - arrival_s)
            self.stats.tape_latency.add(now - arrival_s)

    # ------------------------------------------------------------------
    @property
    def observed_tape_skew(self) -> float:
        """Percent of jukebox requests that were for hot blocks.

        Compare against the client RH to see how much skew the upper
        tiers absorbed before traffic reached the tape.
        """
        return 100.0 * self.tape_request_blocks.mean
