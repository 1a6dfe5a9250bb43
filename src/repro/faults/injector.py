"""The fault injector: seeded, typed fault decisions for drive ops.

The injector sits beside the timing model (it composes with
:class:`~repro.tape.noisy.NoisyTimingModel`, which perturbs *durations*,
whereas this layer decides *outcomes*): the simulator performs an
operation, then asks the injector whether it actually succeeded.

All randomness is drawn from :class:`~repro.rng.RandomStreams` under the
fault seed, one named stream per fault class, so fault patterns are
reproducible and independent of both the workload streams and each
other.  Permanent bad-block regions are sampled once, up front, from the
catalog, so the same seed always condemns the same physical copies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..layout.catalog import BlockCatalog, Replica
from ..rng import RandomStreams
from .config import FaultConfig
from .errors import BadBlockError, FaultError, MediaError, RobotPickError


class FaultInjector:
    """Raises seeded, typed faults against drive/robot operations.

    One injector serves a whole simulation (all drives); per-drive
    failure clocks use per-drive random streams.  The mutable
    :attr:`failed_tapes` and :attr:`bad_replicas` sets are shared with
    the scheduler-visible masking layer, so recovery code marking a tape
    or copy dead immediately hides it from future scheduling decisions.
    Mask listeners (:meth:`add_mask_listener`) hear of every growth of
    those masks as it happens.
    """

    def __init__(
        self,
        config: FaultConfig,
        catalog: BlockCatalog,
        drive_count: int = 1,
    ) -> None:
        if drive_count < 1:
            raise ValueError(f"drive_count must be >= 1, got {drive_count!r}")
        self.config = config
        self.catalog = catalog
        streams = RandomStreams(config.seed)
        self._media_rng = streams.stream("media-errors")
        self._robot_rng = streams.stream("robot-pick")
        self._drive_rngs = [
            streams.stream(f"drive-failures:{index}") for index in range(drive_count)
        ]
        #: Ground truth: ``(tape_id, block_id)`` copies sitting in
        #: permanently unreadable regions, seeded from ``bad_replica_rate``.
        #: The *system* does not see this set — it discovers bad copies
        #: by reading them.
        self.bad_replicas: Set[Tuple[int, int]] = set()
        if config.bad_replica_rate > 0.0:
            bad_rng = streams.stream("bad-blocks")
            for block_id in range(catalog.n_blocks):
                for replica in catalog.replicas_of(block_id):
                    if bad_rng.random() < config.bad_replica_rate:
                        self.bad_replicas.add((replica.tape_id, block_id))
        #: Copies the recovery layer has *discovered* to be unreadable
        #: (failed permanent reads, exhausted transient-retry budgets).
        #: Failover and lost-block decisions use only this knowledge.
        self.known_bad: Set[Tuple[int, int]] = set()
        #: Tapes taken out of service (robot damage, stuck cartridge).
        self.failed_tapes: Set[int] = set()
        #: Subscribers told when a mask grows (see :meth:`add_mask_listener`).
        self._mask_listeners: List[object] = []
        #: Blocks below this id are known to have no surviving copy.
        self._first_live_block = 0
        #: Per-drive absolute time of the next hardware failure.
        self._next_failure_s: List[float] = [
            self._sample_failure_delay(index, 0.0) for index in range(drive_count)
        ]
        #: Injected-fault counts by fault ``kind``.
        self.injected: Dict[str, int] = {}
        #: Optional :class:`~repro.obs.Tracer`; wired by the simulator
        #: when tracing is on.  The injector has no environment handle,
        #: so its events read the tracer's bound clock (``now=None``).
        self.obs = None

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def read_fault(self, tape_id: int, block_id: int) -> Optional[FaultError]:
        """Outcome of a just-performed read; ``None`` means success."""
        if (tape_id, block_id) in self.bad_replicas or (
            tape_id,
            block_id,
        ) in self.known_bad:
            return self._count(
                BadBlockError(
                    f"block {block_id} unreadable on tape {tape_id}",
                    tape_id=tape_id,
                    block_id=block_id,
                )
            )
        rate = self.config.media_rate_for(tape_id)
        if rate > 0.0 and self._media_rng.random() < rate:
            return self._count(
                MediaError(
                    f"soft error reading block {block_id} on tape {tape_id}",
                    tape_id=tape_id,
                    block_id=block_id,
                )
            )
        return None

    def add_mask_listener(self, listener: object) -> None:
        """Subscribe ``listener`` to growth of the scheduler-visible masks.

        The listener must expose ``on_tape_failed(tape_id)`` and
        ``on_replica_condemned(tape_id, block_id)``; each is invoked
        synchronously after the mask has grown, and only when it
        actually grew (re-failing a failed tape is silent).
        """
        self._mask_listeners.append(listener)

    def condemn_replica(self, tape_id: int, block_id: int) -> None:
        """Record a copy as known-unreadable (discovered or escalated)."""
        key = (tape_id, block_id)
        if key not in self.known_bad:
            self.known_bad.add(key)
            for listener in self._mask_listeners:
                listener.on_replica_condemned(tape_id, block_id)
        if self.obs is not None:
            self.obs.event(
                None, "replica-condemned", tape_id=tape_id, block_id=block_id
            )

    # ------------------------------------------------------------------
    # Robot path
    # ------------------------------------------------------------------
    def robot_pick_fault(self, tape_id: int) -> Optional[RobotPickError]:
        """Outcome of one robot pick attempt; ``None`` means success."""
        rate = self.config.robot_pick_error_rate
        if rate > 0.0 and self._robot_rng.random() < rate:
            return self._count(
                RobotPickError(f"robot failed to pick tape {tape_id}", tape_id=tape_id)
            )
        return None

    def fail_tape(self, tape_id: int) -> None:
        """Take ``tape_id`` permanently out of service (masks it)."""
        if tape_id not in self.failed_tapes:
            self.failed_tapes.add(tape_id)
            for listener in self._mask_listeners:
                listener.on_tape_failed(tape_id)
        if self.obs is not None:
            self.obs.event(None, "tape-failed", tape_id=tape_id)

    def tape_failed(self, tape_id: int) -> bool:
        """True when ``tape_id`` has been taken out of service."""
        return tape_id in self.failed_tapes

    # ------------------------------------------------------------------
    # Drive failure clock (MTBF/MTTR)
    # ------------------------------------------------------------------
    def drive_failure_due(self, drive_index: int, now: float) -> bool:
        """True when drive ``drive_index``'s next failure time has passed."""
        return now >= self._next_failure_s[drive_index]

    def begin_repair(self, drive_index: int, now: float) -> float:
        """Start repairing a failed drive; return the repair duration.

        Also re-arms the drive's failure clock: the next failure is
        sampled from the MTBF distribution *after* the repair completes.
        """
        self._count_kind("drive-failure")
        rng = self._drive_rngs[drive_index]
        repair_s = rng.expovariate(1.0 / self.config.drive_mttr_s)
        self._next_failure_s[drive_index] = self._sample_failure_delay(
            drive_index, now + repair_s
        )
        return repair_s

    def _sample_failure_delay(self, drive_index: int, after_s: float) -> float:
        if self.config.drive_mtbf_s is None:
            return float("inf")
        rng = self._drive_rngs[drive_index]
        return after_s + rng.expovariate(1.0 / self.config.drive_mtbf_s)

    # ------------------------------------------------------------------
    # Failover support
    # ------------------------------------------------------------------
    def surviving_replicas(self, block_id: int) -> List[Replica]:
        """Copies of ``block_id`` not known-bad and not on failed tapes.

        This is the *system's* view: copies that are bad but not yet
        discovered still count as survivors — failover may land on one
        and discover it the hard way, exactly like a real I/O stack.
        """
        return [
            replica
            for replica in self.catalog.replicas_of(block_id)
            if (replica.tape_id, block_id) not in self.known_bad
            and replica.tape_id not in self.failed_tapes
        ]

    def block_lost(self, block_id: int) -> bool:
        """True when every copy of ``block_id`` is known to be gone."""
        return not self.surviving_replicas(block_id)

    def all_blocks_lost(self) -> bool:
        """True when no block has a surviving copy: nothing is readable.

        Masks only grow, so a block once lost stays lost and the scan
        resumes at the first block it has not yet seen lost.
        """
        while self._first_live_block < self.catalog.n_blocks:
            if self.surviving_replicas(self._first_live_block):
                return False
            self._first_live_block += 1
        return True

    # ------------------------------------------------------------------
    def _count(self, fault: FaultError) -> FaultError:
        self._count_kind(fault.kind)
        return fault

    def _count_kind(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
