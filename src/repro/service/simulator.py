"""The service model (paper Section 2.2) as a discrete-event process.

Each drive repeatedly cycles through the paper's four steps:

1. invoke the major rescheduler on the pending list;
2. switch to the selected tape if it is not already loaded;
3. execute the service list, handing requests that arrive mid-sweep to
   the incremental scheduler;
4. if the pending list is empty, wait for a request to arrive.

The paper studies a single drive and names multiple drives as future
work.  Pass one scheduler per drive and ``D`` drives share the robot
arm, the tape pool and the pending list, each running the loop with its
own scheduler.  A tape is in at most one drive at a time (drives *claim*
tapes, and each drive's scheduler sees the pending list through a claim
filter), and robot swaps serialize on the shared arm.  The
envelope-extension algorithm plans globally across all tapes and stays
single-drive, as in the paper.  Only the physical exchange depends on
the drive count: one drive charges :meth:`Jukebox.switch_to` as a single
duration, several drives stage rewind, eject, arm, swap and load.
Subclasses add work through one hook, ``_next_decision``, which may
amend or replace each decision (see :mod:`repro.service.writeback`).

Operation durations come from the jukebox's timing model; state changes
are committed at operation start and the simulated clock advances by the
returned duration, so a request arriving during an operation sees the
operation as already committed (it may only affect the not-yet-started
remainder of the sweep).  While a drive exchanges tapes its scheduler
sees the incoming tape as mounted.

When a :class:`~repro.faults.FaultInjector` is attached, each physical
operation may fail: transient faults are retried under the
:class:`~repro.faults.RetryPolicy` (backoff waits elapse in simulated
time with the drive idle), permanent ones trigger *replica failover* —
the failed read's requests re-enter the pending list and the schedulers,
consulting the catalog through the fault-masked view, re-plan them onto
a surviving copy.  Requests whose every copy is lost fail permanently.
A failed drive releases its tape, so surviving drives can pick up its
re-queued sweep while it is repaired.  Without an injector every fault
branch is skipped outright, so fault-free runs are bit-identical to the
pre-fault simulator.

Every block read runs the same short path: one ``Jukebox.access``, one
``MetricsCollector.on_drive_busy``, the yield, and ``_deliver``, which
completes the coalesced requests and replenishes a closed population.
The drive process looks up what that path needs once when it starts,
and the tracer is called only when one is attached.  The cold paths
(exchange, faults, backoff, repair) go through ``_timed`` and ``_log``.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from ..core.base import MajorDecision, Scheduler, SchedulerContext
from ..core.pending import PendingList
from ..core.sweep import ServiceEntry
from ..des import Environment, Event, Resource
from ..layout.catalog import BlockCatalog
from ..tape.jukebox import Jukebox
from ..workload.requests import Request
from .metrics import MetricsCollector, MetricsReport
from .multidrive import ClaimFilteredPending

if TYPE_CHECKING:
    from ..faults.injector import FaultInjector
    from ..faults.retry import RetryPolicy
    from ..obs.tracer import Tracer
    from ..qos.manager import QoSManager


class JukeboxSimulator:
    """Couples jukebox hardware, schedulers, and a request source.

    ``scheduler`` is one scheduler, or a sequence of them with one per
    drive; drives beyond the first are added to ``jukebox`` as bays
    sharing its tape pool (see :meth:`Jukebox.drive_bay`).
    """

    def __init__(
        self,
        env: Environment,
        jukebox: Jukebox,
        catalog: BlockCatalog,
        scheduler: Union[Scheduler, Sequence[Scheduler]],
        source,
        metrics: MetricsCollector,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        qos: Optional[QoSManager] = None,
        obs: Optional[Tracer] = None,
    ) -> None:
        schedulers = (
            list(scheduler) if isinstance(scheduler, (list, tuple)) else [scheduler]
        )
        drive_count = len(schedulers)
        if drive_count == 0:
            raise ValueError("need one scheduler per drive, got none")
        if drive_count > jukebox.tape_count:
            raise ValueError("cannot have more drives than tapes")
        # No scheduler can be an envelope scheduler before the module
        # that defines it is loaded, so other runs never import it.
        envelope = sys.modules.get("repro.core.envelope")
        if (
            drive_count > 1
            and envelope is not None
            and any(isinstance(each, envelope.EnvelopeScheduler) for each in schedulers)
        ):
            raise ValueError(
                "the envelope-extension algorithm is single-drive; "
                "use a static or dynamic scheduler for multi-drive runs"
            )
        self.env = env
        self.qos = qos
        #: Optional structured tracer (see :mod:`repro.obs`), the one
        #: recorder besides ``metrics``; it also keeps the per-drive
        #: operation timeline (``drive_spans``).  Every call site is
        #: guarded, so ``obs=None`` adds no work and runs stay
        #: bit-identical to an untraced build.
        self.obs = obs
        if obs is not None:
            obs.bind_clock(lambda: env.now)
            if qos is not None:
                qos.obs = obs
            if faults is not None:
                faults.obs = obs
        if qos is not None:
            # Starvation guard (when configured) intercepts only the
            # major reschedule; every other scheduler call delegates.
            schedulers = [qos.wrap_scheduler(each) for each in schedulers]
        self.schedulers = schedulers
        self.source = source
        self.metrics = metrics
        self.faults = faults
        if retry is None and faults is not None:
            retry = faults.config.retry
        self.retry = retry
        masked_tapes = set()
        if faults is not None:
            # Schedulers (and the pending list's candidate queries) see
            # the catalog through the fault mask, so a tape taken out of
            # service or a copy discovered bad vanishes from the next
            # scheduling decision.
            from ..faults.masking import FaultMaskedCatalog

            masked_tapes = faults.failed_tapes
            catalog = FaultMaskedCatalog(
                catalog, masked_tapes, faults.known_bad, notifier=faults
            )
        #: The catalog as the schedulers see it (fault-masked if enabled).
        self.catalog = catalog
        self.pending = PendingList(catalog)
        #: tape_id -> index of the drive holding or loading it.
        self.claims: Dict[int, int] = {}
        #: One jukebox per drive: ``jukebox`` itself, then its bays.
        self.bays: List[Jukebox] = [jukebox] + [
            jukebox.drive_bay() for _ in range(drive_count - 1)
        ]
        # One drive keeps the bare pending list (the envelope index
        # subscribes to it); several see it through their claim filters.
        views = (
            [self.pending]
            if drive_count == 1
            else [
                ClaimFilteredPending(self.pending, self.claims, drive)
                for drive in range(drive_count)
            ]
        )
        self.contexts: List[SchedulerContext] = [
            SchedulerContext(
                jukebox=bay,
                catalog=catalog,
                pending=view,
                masked_tapes=masked_tapes,
                drive_count=drive_count,
            )
            for bay, view in zip(self.bays, views)
        ]
        #: The robot arm, shared by the drives' staged exchanges.
        self.robot = Resource(env, capacity=1)
        self._exchange = (
            self._switch_tape if drive_count == 1 else self._staged_exchange
        )
        self._wakeups: List[Optional[Event]] = [None] * drive_count
        self._started = False
        #: Count of arrivals absorbed into an in-progress sweep.
        self.absorbed_arrivals = 0

    def _log(
        self, kind: str, drive: int, start_s: float, duration_s: float, **where
    ) -> None:
        if self.obs is not None:
            self.obs.on_op(drive, kind, start_s, duration_s, **where)

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """A request arrives: offer it to a sweep in progress, or defer it.

        The first drive whose sweep's tape (incoming or mounted) holds a
        copy gets the request, else the first drive with a sweep in
        progress; that drive's incremental scheduler absorbs or defers
        it.  With no sweep in progress it joins the pending list.
        """
        now = self.env._now
        self.metrics.on_arrival(request, now)
        if self.obs is not None:
            self.obs.on_arrival(request, now)
        if self.qos is not None and not self.qos.admit(request, len(self.pending)):
            # Shed at the boundary: the request never reaches the
            # pending list or the schedulers.  Shed requests do not
            # spawn closed-population replacements (re-offering a fresh
            # request at the same instant would be shed again forever).
            return
        target = None
        last = len(self.contexts) - 1
        for drive, context in enumerate(self.contexts):
            if context.service is None:
                continue
            if target is None:
                target = drive
                if drive == last:
                    break  # no other sweep could claim the request
            if self.catalog.has_replica_on(request.block_id, context.mounted_id):
                target = drive
                break
        if target is None:
            self.pending.append(request)
        elif self.schedulers[target].on_arrival(self.contexts[target], request):
            self.absorbed_arrivals += 1
        self._wake_idle_drives()

    def _wake_idle_drives(self) -> None:
        if not any(self._wakeups):
            return  # no drive is idle
        for drive, wakeup in enumerate(self._wakeups):
            if wakeup is not None:
                wakeup.succeed()
                self._wakeups[drive] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, horizon_s: float) -> None:
        """Inject initial requests and start the simulation processes."""
        if self._started:
            raise RuntimeError("simulator already started")
        self._started = True
        for request in self.source.initial_requests(self.env.now):
            self.submit(request)
        for drive in range(len(self.contexts)):
            self.env.process(self._drive_process(drive))
        if not self.source.is_closed:
            self.env.process(self._arrival_process(horizon_s))

    def run(self, horizon_s: float, finalize: bool = True) -> MetricsReport:
        """Run until ``horizon_s`` and return the metrics report."""
        self.start(horizon_s)
        self.env.run(until=horizon_s)
        if finalize:
            self.metrics.finalize(self.env.now)
        return self.metrics.report()

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _arrival_process(self, horizon_s: float):
        """Open-queueing Poisson arrival stream."""
        for arrival_s, request in self.source.arrivals(horizon_s, self.env.now):
            delay = arrival_s - self.env.now
            if delay > 0:
                yield delay
            self.submit(request)

    def _timed(self, duration_s: float) -> float:
        """Record drive busy time; return the delay for a bare yield."""
        self.metrics.on_drive_busy(self.env._now, duration_s)
        return duration_s

    def _drive_process(self, drive: int):
        """The paper's four-step service loop for one drive.

        What the read path uses is looked up once, when the process
        starts: within one run, never across runs, so instance patches
        and class wrappers made before :meth:`run` are still seen.  The
        read path yields exactly what ``_timed`` would return, so the
        event sequence is unchanged.
        """
        context = self.contexts[drive]
        scheduler = self.schedulers[drive]
        jukebox = self.bays[drive]
        pending = self.pending
        block_mb = self.catalog.block_mb
        env = self.env
        faults = self.faults
        qos = self.qos
        obs = self.obs
        on_drive_busy = self.metrics.on_drive_busy
        deliver = self._deliver
        while True:
            if faults is not None:
                if faults.drive_failure_due(drive, env.now):
                    yield from self._repair_drive(drive)
                    continue
                # Requests whose every known copy is gone can never be
                # scheduled (the masked catalog shows them no replicas).
                self._drop_lost_requests()

            # Expiry-on-dequeue: purge requests whose TTL has already
            # passed so the scheduler never plans undeliverable work.
            if qos is not None and len(pending):
                self._expire_from_pending()

            # Step 1: major reschedule; step 4: idle-wait for work.
            decision = scheduler.major_reschedule(context) if len(pending) else None
            decision = self._next_decision(drive, decision)
            if decision is None:
                # Anything still pending is on other drives' tapes, or
                # has no live copy left: the top of the loop fails the
                # latter, unless nothing is readable at all.
                if not pending.lost() or faults.all_blocks_lost():
                    idle_start = env.now
                    self._wakeups[drive] = env.event()
                    yield self._wakeups[drive]
                    idle_s = env.now - idle_start
                    self._log("idle", drive, idle_start, idle_s)
                continue
            if faults is not None and faults.tape_failed(decision.tape_id):
                # Backstop for schedulers that plan outside the masked
                # pending view (envelope): fail over the whole decision.
                for entry in decision.entries:
                    self._resolve_replica_failure(drive, entry)
                continue
            if obs is not None:
                obs.on_decision(env.now, drive, scheduler.name, decision, len(pending))

            # Step 2: switch tapes if necessary.  The service list exists
            # during the switch so arriving requests can be inserted.
            switching = decision.tape_id != jukebox.mounted_id
            start_head = 0.0 if switching else jukebox.head_mb
            service = scheduler.build_service_list(decision.entries, head_mb=start_head)
            context.service = service
            if switching:
                mounted = yield from self._exchange(drive, decision.tape_id)
                if not mounted:
                    continue  # the abandoned exchange retired the sweep
                if obs is not None:
                    obs.on_exchange(
                        (
                            request
                            for entry in decision.entries
                            for request in entry.requests
                        ),
                        env.now,
                    )

            # Step 3: execute the service list as one sweep.
            tape_id = decision.tape_id
            drive_failed = False
            while not service.is_empty:
                if faults is not None and faults.drive_failure_due(drive, env.now):
                    # The drive died mid-sweep: the unread remainder goes
                    # back to the pending list, for another drive or for
                    # this one after repair (nothing was lost).
                    self._requeue_entries(service.remaining())
                    while not service.is_empty:
                        service.pop_next()
                    service.finish_in_flight()
                    drive_failed = True
                    break
                entry = service.pop_next()
                if qos is not None:
                    live, expired = qos.split_expired(entry.requests, env.now)
                    if expired:
                        for request in expired:
                            self._expire_request(request)
                        if not live:
                            # Every requester's TTL has passed: skip the
                            # physical read entirely.
                            service.finish_in_flight()
                            continue
                        entry.requests[:] = live
                read_start = env.now
                duration = jukebox.access(entry.position_mb, block_mb)
                on_drive_busy(read_start, duration)
                yield duration
                if obs is not None:
                    obs.on_op(
                        drive,
                        "read",
                        read_start,
                        duration,
                        tape_id=tape_id,
                        position_mb=entry.position_mb,
                        block_id=entry.block_id,
                    )
                fault = (
                    faults.read_fault(tape_id, entry.block_id)
                    if faults is not None
                    else None
                )
                if fault is None:
                    service.finish_in_flight()
                    deliver(entry, duration, jukebox.drive.last_locate_s)
                else:
                    yield from self._recover_read(drive, entry, fault)
                    service.finish_in_flight()

            context.service = None
            scheduler.on_sweep_complete(context)
            if qos is not None:
                qos.on_progress(len(pending))
            if drive_failed:
                yield from self._repair_drive(drive)

    def _next_decision(
        self, drive: int, decision: Optional[MajorDecision]
    ) -> Optional[MajorDecision]:
        """Hook: what ``drive`` executes given the scheduler's decision
        (``None`` when nothing is pending for it); ``None`` idles it."""
        return decision

    # ------------------------------------------------------------------
    # Tape exchange
    # ------------------------------------------------------------------
    def _switch_tape(self, drive: int, tape_id: int):
        """One drive: failed robot picks, then the whole switch at once.

        The old tape stays in the drive until a pick succeeds, and each
        failed pick costs the drive one arm motion.  Returns True when
        ``tape_id`` is mounted.
        """
        jukebox = self.bays[drive]
        self.contexts[drive].incoming = tape_id
        attempts = 0
        while self.faults is not None:
            fault = self.faults.robot_pick_fault(tape_id)
            if fault is None:
                break
            attempts += 1
            self._count_fault(fault.kind)
            # The failed pick still wastes one arm motion.
            wasted_start = self.env.now
            yield self._timed(jukebox.timing.robot_swap_s)
            self._log(
                "fault",
                drive,
                wasted_start,
                jukebox.timing.robot_swap_s,
                tape_id=tape_id,
                detail=fault.kind,
            )
            if self.retry is None or not self.retry.allows(attempts):
                self._abandon_exchange(drive, tape_id)
                return False
            yield from self._backoff(drive, attempts, tape_id=tape_id)
        self.contexts[drive].incoming = None
        switch_start = self.env.now
        duration = jukebox.switch_to(tape_id)
        yield self._timed(duration)
        self.metrics.on_tape_switch(self.env.now)
        self._log("switch", drive, switch_start, duration, tape_id=tape_id)
        return True

    def _staged_exchange(self, drive: int, tape_id: int):
        """Several drives: rewind, eject, shared arm, swap, load.

        The drive claims ``tape_id`` first so no other drive grabs it
        while this one rewinds and waits for the arm; the old tape's
        claim is dropped once it is out.  A failed pick holds the arm
        for one wasted motion.  Returns True when ``tape_id`` is mounted.
        """
        jukebox = self.bays[drive]
        self.claims[tape_id] = drive
        self.contexts[drive].incoming = tape_id
        switch_start = self.env._now
        old_tape = jukebox.mounted_id
        if old_tape is not None:
            yield self._timed(jukebox.drive.rewind())
            yield self._timed(jukebox.drive.eject())
        attempts = 0
        while True:
            yield self.robot.acquire()
            fault = (
                self.faults.robot_pick_fault(tape_id)
                if self.faults is not None
                else None
            )
            if fault is None:
                yield self._timed(jukebox.robot.swap(tape_id))
                self.robot.release()
                break
            self._count_fault(fault.kind)
            wasted_start = self.env._now
            yield self._timed(jukebox.timing.robot_swap_s)
            self.robot.release()
            self._log(
                "fault",
                drive,
                wasted_start,
                jukebox.timing.robot_swap_s,
                tape_id=tape_id,
                detail=fault.kind,
            )
            attempts += 1
            if self.retry is None or not self.retry.allows(attempts):
                self._abandon_exchange(drive, tape_id)
                # The ejected cartridge goes back to its slot.
                jukebox.robot.return_to_slot()
                break
            yield from self._backoff(drive, attempts, tape_id=tape_id)
        if old_tape is not None:
            del self.claims[old_tape]
            self._wake_idle_drives()  # the old tape is free again
        if fault is not None:
            del self.claims[tape_id]
            self._wake_idle_drives()
            return False
        load_s = jukebox.drive.load(jukebox.pool[tape_id])
        self.contexts[drive].incoming = None
        yield self._timed(load_s)
        self.metrics.on_tape_switch(self.env._now)
        self._log(
            "switch",
            drive,
            switch_start,
            self.env._now - switch_start,
            tape_id=tape_id,
        )
        return True

    def _abandon_exchange(self, drive: int, tape_id: int) -> None:
        """The cartridge is stuck: take the tape out of service and fail
        over everything scheduled against it."""
        context = self.contexts[drive]
        context.incoming = None
        self.faults.fail_tape(tape_id)
        # Detach the sweep first: closed-loop replacements issued by the
        # failover must reach the pending list, not the doomed sweep.
        doomed = context.service.remaining()
        context.service = None
        for entry in doomed:
            self._resolve_replica_failure(drive, entry)
        self._drop_lost_requests()

    # ------------------------------------------------------------------
    # Completion and fault recovery
    # ------------------------------------------------------------------
    def _deliver(
        self, entry: ServiceEntry, service_s: float, locate_s: float = 0.0
    ) -> None:
        """Complete every request coalesced onto a successful read.

        Replenishes a closed population as :meth:`_replenish` does,
        inlined; the clock cannot move while this runs.
        """
        now = self.env.now
        on_completion = self.metrics.on_completion
        obs = self.obs
        source = self.source
        for request in entry.requests:
            on_completion(request, now, service_s=service_s)
            if obs is not None:
                obs.on_complete(request, now, locate_s, service_s - locate_s)
            if source.is_closed:
                replacement = source.on_completion(now)
                if replacement is not None:
                    self.submit(replacement)

    def _replenish(self) -> None:
        """A request left the system: keep a closed population constant."""
        if self.source.is_closed:
            replacement = self.source.on_completion(self.env.now)
            if replacement is not None:
                self.submit(replacement)

    def _count_fault(self, kind: str) -> None:
        self.metrics.on_fault(kind, self.env.now)
        if self.qos is not None:
            self.qos.on_fault()

    def _backoff(self, drive: int, attempts: int, **where):
        """Wait out the backoff before retry number ``attempts``."""
        backoff_s = self.retry.backoff_s(attempts - 1)
        self.metrics.on_retry(self.env.now)
        if self.obs is not None:
            self.obs.event(
                self.env.now, "retry", drive=drive, attempt=attempts, **where
            )
        if backoff_s > 0:
            backoff_start = self.env.now
            yield backoff_s
            self._log("backoff", drive, backoff_start, backoff_s, **where)

    def _recover_read(self, drive: int, entry: ServiceEntry, fault):
        """Retry a faulted read in place; escalate to failover if futile."""
        jukebox = self.bays[drive]
        tape_id = jukebox.mounted_id
        block_mb = self.catalog.block_mb
        attempts = 1
        if self.obs is not None:
            self.obs.on_fault(entry.requests, self.env.now)
        while True:
            self._count_fault(fault.kind)
            self._log(
                "fault",
                drive,
                self.env.now,
                0.0,
                tape_id=tape_id,
                position_mb=entry.position_mb,
                block_id=entry.block_id,
                detail=fault.kind,
            )
            if not (
                fault.transient
                and self.retry is not None
                and self.retry.allows(attempts)
            ):
                break
            yield from self._backoff(
                drive, attempts, tape_id=tape_id, block_id=entry.block_id
            )
            read_start = self.env.now
            duration = jukebox.access(entry.position_mb, block_mb)
            yield self._timed(duration)
            self._log(
                "read",
                drive,
                read_start,
                duration,
                tape_id=tape_id,
                position_mb=entry.position_mb,
                block_id=entry.block_id,
                detail="retry",
            )
            attempts += 1
            fault = self.faults.read_fault(tape_id, entry.block_id)
            if fault is None:
                self._deliver(
                    entry, duration, locate_s=jukebox.drive.last_locate_s
                )
                return
        # Permanent fault, or the retry budget ran out: this copy is done.
        self.faults.condemn_replica(tape_id, entry.block_id)
        self._resolve_replica_failure(drive, entry)

    def _resolve_replica_failure(self, drive: int, entry: ServiceEntry) -> None:
        """Fail over ``entry``'s requests to a surviving copy, or fail them."""
        if self.faults.surviving_replicas(entry.block_id):
            self.metrics.on_failover(len(entry.requests), self.env.now)
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    "failover",
                    drive=drive,
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
        self._replenish()

    def _expire_request(self, request: Request) -> None:
        """Expire ``request`` (keeps a closed population going)."""
        self.metrics.on_expired(request, self.env.now)
        if self.obs is not None:
            self.obs.on_expired(request, self.env.now)
        self._replenish()

    def _expire_from_pending(self) -> None:
        """Remove and expire pending requests whose TTL has passed."""
        for request in self.qos.expired_pending(self.pending, self.env.now):
            self._expire_request(request)

    def _requeue_entries(self, entries: List[ServiceEntry]) -> None:
        """Return un-read sweep entries to the pending list (no failover)."""
        for entry in entries:
            if self.obs is not None:
                self.obs.on_requeue(entry.requests, self.env.now, "drive-repair")
            for request in entry.requests:
                self.pending.append(request)
        self._wake_idle_drives()

    def _drop_lost_requests(self) -> None:
        """Fail pending requests whose every known copy is gone."""
        lost = self.pending.lost()
        # Once nothing is readable, failing a request only issues a
        # closed-loop replacement that is lost again.
        if lost and not self.faults.all_blocks_lost():
            self.pending.remove_many(lost)
            for request in lost:
                self._fail_request(request)

    def _repair_drive(self, drive: int):
        """Take one drive down for repair; re-arm its failure clock."""
        jukebox = self.bays[drive]
        failure_start = self.env.now
        self.metrics.on_drive_failure(failure_start)
        self._count_fault("drive-failure")
        repair_s = self.faults.begin_repair(drive, failure_start)
        self.metrics.on_drive_repair(failure_start, repair_s)
        if self.obs is not None:
            self.obs.event(
                failure_start, "drive-failure", drive=drive, repair_s=repair_s
            )
        mounted = jukebox.mounted_id
        jukebox.unload_for_repair()
        if self.claims.get(mounted) == drive:
            # Release the claim so surviving drives can mount this tape.
            del self.claims[mounted]
            self._wake_idle_drives()
        self._log("repair", drive, failure_start, repair_s, detail="drive-failure")
        yield repair_s
