"""Multi-drive jukebox extension (the paper's stated future work).

The paper studies jukeboxes with a single drive and notes that "future
work could extend this to multiple drives".  This module provides that
extension: ``D`` drives share one robot arm, one pool of tapes, and one
pending list.  Each drive runs the four-step service loop with its own
scheduler instance; a tape can be mounted in at most one drive at a
time (drives *claim* tapes), and robot swaps serialize on the shared
arm (a :class:`~repro.des.Resource`).

Scope: the FIFO, static, and dynamic scheduler families are supported.
The envelope-extension algorithm plans globally across all tapes and
would need a redesign to coordinate several drives' envelopes — that
remains future work here too, as in the paper.

When a :class:`~repro.faults.FaultInjector` is attached the fleet runs
in *degraded mode* under faults: a failed drive releases its claimed
tape (the surviving drives' schedulers immediately see it and pick up
the re-queued sweep remainder), faulted reads retry then fail over to
surviving copies through the shared pending list, and robot picks can
fail while the arm is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.base import Scheduler, SchedulerContext
from ..core.envelope import EnvelopeScheduler
from ..core.pending import PendingList
from ..core.sweep import ServiceEntry, ServiceList
from ..des import Environment, Event, Resource
from ..faults.injector import FaultInjector
from ..faults.masking import FaultMaskedCatalog
from ..faults.retry import RetryPolicy
from ..layout.catalog import BlockCatalog
from ..obs.tracer import Tracer
from ..qos.manager import QoSManager
from ..tape.drive import TapeDrive
from ..tape.tape import TapePool
from ..tape.timing import DriveTimingModel, EXB_8505XL
from ..workload.requests import Request
from .metrics import MetricsCollector, MetricsReport


class ClaimFilteredPending(PendingList):
    """A pending-list view that hides tapes claimed by other drives.

    Schedulers group requests by candidate tape through
    :meth:`candidate_tapes` / :meth:`requests_for_tape`; filtering here
    keeps every scheduler family multi-drive-safe without changes.
    """

    def __init__(self, inner: PendingList, claims: Dict[int, int], drive_index: int) -> None:
        self._inner = inner
        self._claims = claims
        self._drive_index = drive_index

    def _visible(self, tape_id: int) -> bool:
        owner = self._claims.get(tape_id)
        return owner is None or owner == self._drive_index

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

    def remove_many(self, requests: List[Request]) -> None:
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

    def requests_for_tape(self, tape_id: int) -> List[Request]:
        """Pending requests on ``tape_id`` if it is visible, else []."""
        if not self._visible(tape_id):
            return []
        return self._inner.requests_for_tape(tape_id)

    def positions_on(self, tape_id: int) -> List[float]:
        """Copy positions on ``tape_id`` if it is visible, else []."""
        if not self._visible(tape_id):
            return []
        return self._inner.positions_on(tape_id)

    def candidate_tapes(self) -> Dict[int, List[Request]]:
        """Per-tape pending requests, excluding other drives' claims."""
        return {
            tape_id: requests
            for tape_id, requests in self._inner.candidate_tapes().items()
            if self._visible(tape_id)
        }


@dataclass
class DriveView:
    """The slice of jukebox state one drive's scheduler may see."""

    drive: TapeDrive
    tape_count: int

    @property
    def timing(self) -> DriveTimingModel:
        """Drive timing model."""
        return self.drive.timing

    @property
    def mounted_id(self) -> Optional[int]:
        """Tape mounted in this drive."""
        return self.drive.mounted_id

    @property
    def head_mb(self) -> float:
        """This drive's head position."""
        return self.drive.head_mb


class MultiDriveSimulator:
    """``D`` drives + one robot arm over a shared tape pool."""

    def __init__(
        self,
        env: Environment,
        catalog: BlockCatalog,
        source,
        metrics: MetricsCollector,
        scheduler_factory,
        drive_count: int = 2,
        tape_count: int = 10,
        capacity_mb: float = 7.0 * 1024,
        timing: DriveTimingModel = EXB_8505XL,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        qos: Optional[QoSManager] = None,
        obs: Optional[Tracer] = None,
    ) -> None:
        if drive_count <= 0:
            raise ValueError(f"drive_count must be positive, got {drive_count!r}")
        if drive_count > tape_count:
            raise ValueError("cannot have more drives than tapes")
        self.env = env
        self.catalog = catalog
        self.source = source
        self.metrics = metrics
        self.faults = faults
        self.qos = qos
        #: Optional structured tracer (see :mod:`repro.obs`); every call
        #: site is guarded so ``obs=None`` runs stay bit-identical.
        self.obs = obs
        if obs is not None:
            obs.bind_clock(lambda: env.now)
            if qos is not None:
                qos.obs = obs
            if faults is not None:
                faults.obs = obs
        if retry is None and faults is not None:
            retry = faults.config.retry
        self.retry = retry
        self.pool = TapePool.uniform(tape_count, capacity_mb)
        self.robot = Resource(env, capacity=1)
        self.robot_swap_s = timing.robot_swap_s
        masked_tapes = set()
        scheduler_catalog = catalog
        if faults is not None:
            masked_tapes = faults.failed_tapes
            scheduler_catalog = FaultMaskedCatalog(
                catalog, masked_tapes, faults.known_bad, notifier=faults
            )
        #: Catalog as the schedulers see it (fault-masked when enabled).
        self.catalog_view = scheduler_catalog
        self.pending = PendingList(scheduler_catalog)
        #: tape_id -> index of the drive that claimed it.
        self.claims: Dict[int, int] = {}
        self.tape_switches = 0
        self._started = False
        self._wakeups: List[Optional[Event]] = [None] * drive_count

        self.drives: List[TapeDrive] = []
        self.schedulers: List[Scheduler] = []
        self.contexts: List[SchedulerContext] = []
        for drive_index in range(drive_count):
            scheduler = scheduler_factory()
            if isinstance(scheduler, EnvelopeScheduler):
                raise ValueError(
                    "the envelope-extension algorithm is single-drive; "
                    "use a static or dynamic scheduler for multi-drive runs"
                )
            if qos is not None:
                scheduler = qos.wrap_scheduler(scheduler)
            drive = TapeDrive(timing=timing)
            view = DriveView(drive=drive, tape_count=tape_count)
            filtered = ClaimFilteredPending(self.pending, self.claims, drive_index)
            context = SchedulerContext(
                jukebox=view,  # duck-typed: mounted_id / head_mb / timing / tape_count
                catalog=scheduler_catalog,
                pending=filtered,
                masked_tapes=masked_tapes,
                drive_count=drive_count,
            )
            self.drives.append(drive)
            self.schedulers.append(scheduler)
            self.contexts.append(context)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Route an arrival to some drive's incremental scheduler.

        The first drive whose in-progress sweep covers a replica of the
        requested block gets the insertion attempt; otherwise (or if the
        attempt fails) the request joins the shared pending list.
        """
        self.metrics.on_arrival(request, self.env.now)
        if self.obs is not None:
            self.obs.on_arrival(request, self.env.now)
        if self.qos is not None and not self.qos.admit(request, len(self.pending)):
            # Shed at the boundary: the request never reaches the shared
            # pending list or any drive's scheduler (and sheds do not
            # spawn closed-population replacements).
            return
        for drive_index, context in enumerate(self.contexts):
            if context.service is None or context.mounted_id is None:
                continue
            if not self.catalog_view.has_replica_on(
                request.block_id, context.mounted_id
            ):
                continue
            self.schedulers[drive_index].on_arrival(context, request)
            # Either inserted into that drive's sweep, or deferred to the
            # shared pending list by the scheduler itself.
            self._wake_idle_drives()
            return
        self.pending.append(request)
        self._wake_idle_drives()

    def _wake_idle_drives(self) -> None:
        for drive_index, wakeup in enumerate(self._wakeups):
            if wakeup is not None and not wakeup.triggered:
                wakeup.succeed()
                self._wakeups[drive_index] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self, horizon_s: float) -> MetricsReport:
        """Run to ``horizon_s`` and report shared steady-state metrics."""
        if self._started:
            raise RuntimeError("simulator already started")
        self._started = True
        for request in self.source.initial_requests(self.env.now):
            if self.qos is not None:
                # Route through admission (no sweeps are in progress yet,
                # so admitted requests land on the shared pending list).
                self.submit(request)
            else:
                self.pending.append(request)
                self.metrics.on_arrival(request, self.env.now)
                if self.obs is not None:
                    self.obs.on_arrival(request, self.env.now)
        for drive_index in range(len(self.drives)):
            self.env.process(self._drive_process(drive_index))
        if not self.source.is_closed:
            self.env.process(self._arrival_process(horizon_s))
        self.env.run(until=horizon_s)
        self.metrics.finalize(self.env.now)
        return self.metrics.report()

    def _arrival_process(self, horizon_s: float):
        for arrival_s, request in self.source.arrivals(horizon_s, self.env.now):
            delay = arrival_s - self.env.now
            if delay > 0:
                yield delay
            self.submit(request)

    # ------------------------------------------------------------------
    # Per-drive service loop
    # ------------------------------------------------------------------
    def _timed(self, duration_s: float) -> float:
        self.metrics.on_drive_busy(self.env.now, duration_s)
        return duration_s

    def _drive_process(self, drive_index: int):
        context = self.contexts[drive_index]
        scheduler = self.schedulers[drive_index]
        drive = self.drives[drive_index]
        block_mb = self.catalog.block_mb
        while True:
            if self.faults is not None:
                if self.faults.drive_failure_due(drive_index, self.env.now):
                    yield from self._repair_drive(drive_index)
                    continue
                self._drop_lost_requests()

            # Expiry-on-dequeue: purge requests whose TTL has already
            # passed so no drive plans undeliverable work.
            if self.qos is not None and len(self.pending):
                self._expire_from_pending()

            decision = (
                scheduler.major_reschedule(context) if len(self.pending) else None
            )
            if decision is None:
                idle_start = self.env.now
                wakeup = self.env.event()
                self._wakeups[drive_index] = wakeup
                yield wakeup
                if self.obs is not None:
                    self.obs.on_op(
                        drive_index, "idle", idle_start, self.env.now - idle_start
                    )
                continue
            if self.obs is not None:
                self.obs.on_decision(
                    self.env.now,
                    drive_index,
                    scheduler.name,
                    decision,
                    len(self.pending),
                )

            switching = decision.tape_id != drive.mounted_id
            start_head = 0.0 if switching else drive.head_mb
            service = ServiceList(decision.entries, head_mb=start_head)
            context.service = service

            if switching:
                # Claim the new tape first so no other drive grabs it
                # while this one rewinds and waits for the arm.
                self.claims[decision.tape_id] = drive_index
                switch_start = self.env.now
                old_tape = drive.mounted_id
                if drive.is_loaded:
                    yield self._timed(drive.rewind())
                    yield self._timed(drive.eject())
                mounted = yield from self._swap_tape(drive_index, decision.tape_id)
                if old_tape is not None:
                    del self.claims[old_tape]
                    self._wake_idle_drives()  # the old tape is free again
                if not mounted:
                    # The pick never succeeded: the tape is out of
                    # service; its planned sweep has been failed over.
                    del self.claims[decision.tape_id]
                    context.service = None
                    self._wake_idle_drives()
                    continue
                yield self._timed(drive.load(self.pool[decision.tape_id]))
                self.tape_switches += 1
                self.metrics.on_tape_switch(self.env.now)
                if self.obs is not None:
                    # One span covers the whole exchange: rewind + eject
                    # + arm wait + swap + load.
                    self.obs.on_op(
                        drive_index,
                        "switch",
                        switch_start,
                        self.env.now - switch_start,
                        tape_id=decision.tape_id,
                    )
            if self.obs is not None:
                self.obs.on_exchange(
                    (
                        request
                        for entry in decision.entries
                        for request in entry.requests
                    ),
                    self.env.now,
                )

            drive_failed = False
            while not service.is_empty:
                if self.faults is not None and self.faults.drive_failure_due(
                    drive_index, self.env.now
                ):
                    # Degraded mode: the unread remainder returns to the
                    # shared pending list, so a surviving drive can pick
                    # it up while this one repairs.
                    self._requeue_entries(service.remaining())
                    while not service.is_empty:
                        service.pop_next()
                    service.finish_in_flight()
                    drive_failed = True
                    break
                entry = service.pop_next()
                if self.qos is not None:
                    live, expired = self.qos.split_expired(
                        entry.requests, self.env.now
                    )
                    if expired:
                        for request in expired:
                            self._expire_request(request)
                        if not live:
                            # Every requester's TTL has passed: skip the
                            # physical read entirely.
                            service.finish_in_flight()
                            continue
                        entry.requests[:] = live
                read_start = self.env.now
                head_before = drive.head_mb if self.obs is not None else 0.0
                duration = drive.access(entry.position_mb, block_mb)
                yield self._timed(duration)
                if self.obs is not None:
                    self.obs.on_op(
                        drive_index,
                        "read",
                        read_start,
                        duration,
                        tape_id=drive.mounted_id,
                        block_id=entry.block_id,
                        position_mb=entry.position_mb,
                    )
                fault = (
                    self.faults.read_fault(drive.mounted_id, entry.block_id)
                    if self.faults is not None
                    else None
                )
                if fault is None:
                    service.finish_in_flight()
                    self._deliver(
                        entry,
                        duration,
                        locate_s=self._locate_of(drive, head_before, entry),
                    )
                else:
                    yield from self._recover_read(drive_index, entry, fault)
                    service.finish_in_flight()

            context.service = None
            scheduler.on_sweep_complete(context)
            if self.qos is not None:
                self.qos.on_progress(len(self.pending))
            if drive_failed:
                yield from self._repair_drive(drive_index)

    # ------------------------------------------------------------------
    # Completion and fault recovery
    # ------------------------------------------------------------------
    def _locate_of(
        self, drive: TapeDrive, head_before_mb: float, entry: ServiceEntry
    ) -> float:
        """Locate component of the access that just served ``entry``
        (pure recomputation; only called when a tracer is attached)."""
        if self.obs is None:
            return 0.0
        return drive.timing.locate(head_before_mb, entry.position_mb)

    def _deliver(
        self, entry: ServiceEntry, service_s: float, locate_s: float = 0.0
    ) -> None:
        """Complete every request coalesced onto a successful read."""
        for request in entry.requests:
            self.metrics.on_completion(request, self.env.now, service_s=service_s)
            if self.obs is not None:
                self.obs.on_complete(
                    request, self.env.now, locate_s, service_s - locate_s
                )
            if self.source.is_closed:
                replacement = self.source.on_completion(self.env.now)
                if replacement is not None:
                    self.submit(replacement)

    def _swap_tape(self, drive_index: int, tape_id: int):
        """Acquire the arm and swap; False when the pick never succeeds."""
        attempts = 0
        while True:
            grant = self.robot.acquire()
            yield grant
            try:
                fault = (
                    self.faults.robot_pick_fault(tape_id)
                    if self.faults is not None
                    else None
                )
                if fault is None:
                    yield self._timed(self.robot_swap_s)
                    return True
                # The failed pick wastes one arm motion with the arm held.
                self.metrics.on_fault(fault.kind, self.env.now)
                if self.qos is not None:
                    self.qos.on_fault()
                if self.obs is not None:
                    self.obs.event(
                        self.env.now,
                        fault.kind,
                        drive=drive_index,
                        tape_id=tape_id,
                    )
                yield self._timed(self.robot_swap_s)
            finally:
                self.robot.release()
            attempts += 1
            if self.retry is not None and self.retry.allows(attempts):
                self.metrics.on_retry(self.env.now)
                backoff_s = self.retry.backoff_s(attempts - 1)
                if backoff_s > 0:
                    yield backoff_s
                continue
            # The cartridge is stuck: mask the tape and fail over the
            # sweep planned against it.
            self.faults.fail_tape(tape_id)
            service = self.contexts[drive_index].service
            if service is not None:
                for entry in service.remaining():
                    self._resolve_replica_failure(entry)
                while not service.is_empty:
                    service.pop_next()
                service.finish_in_flight()
            self._drop_lost_requests()
            return False

    def _recover_read(self, drive_index: int, entry: ServiceEntry, fault):
        """Retry a faulted read in place; escalate to failover if futile."""
        drive = self.drives[drive_index]
        tape_id = drive.mounted_id
        block_mb = self.catalog.block_mb
        attempts = 1
        if self.obs is not None:
            self.obs.on_fault(entry.requests, self.env.now)
        while True:
            self.metrics.on_fault(fault.kind, self.env.now)
            if self.qos is not None:
                self.qos.on_fault()
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    fault.kind,
                    drive=drive_index,
                    tape_id=tape_id,
                    block_id=entry.block_id,
                )
            if not (
                fault.transient
                and self.retry is not None
                and self.retry.allows(attempts)
            ):
                break
            backoff_s = self.retry.backoff_s(attempts - 1)
            self.metrics.on_retry(self.env.now)
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    "retry",
                    drive=drive_index,
                    block_id=entry.block_id,
                    attempt=attempts,
                )
            if backoff_s > 0:
                backoff_start = self.env.now
                yield backoff_s
                if self.obs is not None:
                    self.obs.on_op(
                        drive_index,
                        "backoff",
                        backoff_start,
                        backoff_s,
                        tape_id=tape_id,
                        block_id=entry.block_id,
                    )
            read_start = self.env.now
            head_before = drive.head_mb if self.obs is not None else 0.0
            duration = drive.access(entry.position_mb, block_mb)
            yield self._timed(duration)
            if self.obs is not None:
                self.obs.on_op(
                    drive_index,
                    "read",
                    read_start,
                    duration,
                    tape_id=tape_id,
                    block_id=entry.block_id,
                    position_mb=entry.position_mb,
                    detail="retry",
                )
            attempts += 1
            fault = self.faults.read_fault(tape_id, entry.block_id)
            if fault is None:
                self._deliver(
                    entry,
                    duration,
                    locate_s=self._locate_of(drive, head_before, entry),
                )
                return
        # Permanent fault, or the retry budget ran out: this copy is done.
        self.faults.condemn_replica(tape_id, entry.block_id)
        self._resolve_replica_failure(entry)

    def _resolve_replica_failure(self, entry: ServiceEntry) -> None:
        """Fail over ``entry``'s requests to a surviving copy, or fail them."""
        if self.faults.surviving_replicas(entry.block_id):
            self.metrics.on_failover(len(entry.requests), self.env.now)
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    "failover",
                    block_id=entry.block_id,
                    requests=len(entry.requests),
                )
                self.obs.on_requeue(entry.requests, self.env.now, "failover")
            for request in entry.requests:
                self.pending.append(request)
            self._wake_idle_drives()
        else:
            for request in entry.requests:
                self._fail_request(request)

    def _fail_request(self, request: Request) -> None:
        """Permanently fail ``request`` (keeps a closed population going)."""
        self.metrics.on_request_failed(request, self.env.now)
        if self.obs is not None:
            self.obs.on_failed(request, self.env.now)
        if self.source.is_closed:
            replacement = self.source.on_completion(self.env.now)
            if replacement is not None:
                self.submit(replacement)

    def _expire_request(self, request: Request) -> None:
        """Expire ``request`` (keeps a closed population going)."""
        self.metrics.on_expired(request, self.env.now)
        if self.obs is not None:
            self.obs.on_expired(request, self.env.now)
        if self.source.is_closed:
            replacement = self.source.on_completion(self.env.now)
            if replacement is not None:
                self.submit(replacement)

    def _expire_from_pending(self) -> None:
        """Remove and expire pending requests whose TTL has passed."""
        for request in self.qos.expired_pending(self.pending, self.env.now):
            self._expire_request(request)

    def _requeue_entries(self, entries: List[ServiceEntry]) -> None:
        """Return un-read sweep entries to the shared pending list."""
        for entry in entries:
            if self.obs is not None:
                self.obs.on_requeue(entry.requests, self.env.now, "drive-repair")
            for request in entry.requests:
                self.pending.append(request)
        self._wake_idle_drives()

    def _drop_lost_requests(self) -> None:
        """Fail pending requests whose every known copy is gone."""
        lost = self.pending.lost()
        if lost:
            self.pending.remove_many(lost)
            for request in lost:
                self._fail_request(request)

    def _repair_drive(self, drive_index: int):
        """Take one drive down for repair while the rest keep serving."""
        drive = self.drives[drive_index]
        failure_start = self.env.now
        self.metrics.on_drive_failure(failure_start)
        self.metrics.on_fault("drive-failure", failure_start)
        if self.qos is not None:
            self.qos.on_fault()
        repair_s = self.faults.begin_repair(drive_index, failure_start)
        self.metrics.on_drive_repair(failure_start, repair_s)
        if self.obs is not None:
            self.obs.event(
                failure_start, "drive-failure", drive=drive_index, repair_s=repair_s
            )
            self.obs.on_op(
                drive_index, "repair", failure_start, repair_s, detail="drive-failure"
            )
        mounted = drive.mounted_id
        drive.force_unload()
        if mounted is not None and self.claims.get(mounted) == drive_index:
            # Release the claim so surviving drives can mount this tape.
            del self.claims[mounted]
            self._wake_idle_drives()
        yield repair_s
