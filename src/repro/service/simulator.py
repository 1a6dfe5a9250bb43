"""The service model (paper Section 2.2) as a discrete-event process.

The drive process repeatedly cycles through the paper's four steps:

1. invoke the major rescheduler on the pending list;
2. switch to the selected tape if it is not already loaded;
3. execute the service list, handing requests that arrive mid-sweep to
   the incremental scheduler;
4. if the pending list is empty, wait for a request to arrive.

Operation durations come from the jukebox's timing model; state changes
are committed at operation start and the simulated clock advances by the
returned duration, so a request arriving during an operation sees the
operation as already committed (it may only affect the not-yet-started
remainder of the sweep).

When a :class:`~repro.faults.FaultInjector` is attached, each physical
operation may fail: transient faults are retried under the
:class:`~repro.faults.RetryPolicy` (backoff waits elapse in simulated
time with the drive idle), permanent ones trigger *replica failover* —
the failed read's requests re-enter the pending list and the schedulers,
consulting the catalog through the fault-masked view, re-plan them onto
a surviving copy.  Requests whose every copy is lost fail permanently.
Without an injector every fault branch is skipped outright, so
fault-free runs are bit-identical to the pre-fault simulator.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.base import Scheduler, SchedulerContext
from ..core.pending import PendingList
from ..core.sweep import ServiceEntry
from ..des import Environment, Event
from ..faults.injector import FaultInjector
from ..faults.masking import FaultMaskedCatalog
from ..faults.retry import RetryPolicy
from ..layout.catalog import BlockCatalog
from ..obs.tracer import Tracer
from ..qos.manager import QoSManager
from ..tape.jukebox import Jukebox
from ..workload.requests import Request
from .metrics import MetricsCollector, MetricsReport
from .oplog import OpKind, Operation, OperationLog


class JukeboxSimulator:
    """Couples jukebox hardware, a scheduler, and a request source."""

    def __init__(
        self,
        env: Environment,
        jukebox: Jukebox,
        catalog: BlockCatalog,
        scheduler: Scheduler,
        source,
        metrics: MetricsCollector,
        oplog: Optional[OperationLog] = None,
        faults: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        qos: Optional[QoSManager] = None,
        obs: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.jukebox = jukebox
        self.qos = qos
        #: Optional structured tracer (see :mod:`repro.obs`).  Every
        #: call site is guarded, so ``obs=None`` adds no work and runs
        #: stay bit-identical to an untraced build.
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
            scheduler = qos.wrap_scheduler(scheduler)
        self.scheduler = scheduler
        self.source = source
        self.metrics = metrics
        self.faults = faults
        if retry is None and faults is not None:
            retry = faults.config.retry
        self.retry = retry
        masked_tapes = set()
        scheduler_catalog = catalog
        if faults is not None:
            # Schedulers (and the pending list's candidate queries) see
            # the catalog through the fault mask, so a tape taken out of
            # service or a copy discovered bad vanishes from the next
            # scheduling decision.
            masked_tapes = faults.failed_tapes
            scheduler_catalog = FaultMaskedCatalog(
                catalog, masked_tapes, faults.known_bad, notifier=faults
            )
        self.context = SchedulerContext(
            jukebox=jukebox,
            catalog=scheduler_catalog,
            pending=PendingList(scheduler_catalog),
            masked_tapes=masked_tapes,
        )
        self._wakeup: Optional[Event] = None
        self._started = False
        #: Count of arrivals absorbed into an in-progress sweep.
        self.absorbed_arrivals = 0
        #: Optional hook invoked as ``hook(request, now)`` after each
        #: completion (used by the storage-hierarchy tier to promote
        #: blocks into its caches and finish the user-visible request).
        self.on_request_complete = None
        #: Optional structured trace of drive operations.
        self.oplog = oplog

    def _log(self, kind: OpKind, start_s: float, duration_s: float, **where) -> None:
        if self.oplog is not None:
            self.oplog.append(
                Operation(kind=kind, start_s=start_s, duration_s=duration_s, **where)
            )
        if self.obs is not None:
            self.obs.on_op(
                0,
                kind.value,
                start_s,
                duration_s,
                tape_id=where.get("tape_id"),
                block_id=where.get("block_id"),
                position_mb=where.get("position_mb"),
                detail=where.get("detail"),
            )

    # ------------------------------------------------------------------
    # Request intake
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """A request arrives: incremental-schedule it or defer it."""
        self.metrics.on_arrival(request, self.env.now)
        if self.obs is not None:
            self.obs.on_arrival(request, self.env.now)
        if self.qos is not None and not self.qos.admit(
            request, len(self.context.pending)
        ):
            # Shed at the boundary: the request never reaches the
            # pending list or the schedulers.  Shed requests do not
            # spawn closed-population replacements (re-offering a fresh
            # request at the same instant would be shed again forever).
            return
        if self.context.service is not None:
            if self.scheduler.on_arrival(self.context, request):
                self.absorbed_arrivals += 1
        else:
            self.context.pending.append(request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

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
        self.env.process(self._drive_process())
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
        self.metrics.on_drive_busy(self.env.now, duration_s)
        return duration_s

    def _drive_process(self):
        """The paper's four-step service loop (fault-aware when enabled)."""
        context = self.context
        block_mb = context.catalog.block_mb
        while True:
            if self.faults is not None and self.faults.drive_failure_due(
                0, self.env.now
            ):
                yield from self._repair_drive()
                continue

            # Step 4: idle-wait for work.
            while len(context.pending) == 0:
                idle_start = self.env.now
                self._wakeup = self.env.event()
                yield self._wakeup
                self._wakeup = None
                self._log(OpKind.IDLE, idle_start, self.env.now - idle_start)

            # Requests whose every known copy is gone can never be
            # scheduled (the masked catalog shows them no replicas) —
            # fail them before planning, then re-check for work.
            if self.faults is not None:
                self._drop_lost_requests()
                if len(context.pending) == 0:
                    continue

            # Expiry-on-dequeue: purge requests whose TTL has already
            # passed so the scheduler never plans undeliverable work.
            if self.qos is not None:
                self._expire_from_pending()
                if len(context.pending) == 0:
                    continue

            # Step 1: major reschedule.
            decision = self.scheduler.major_reschedule(context)
            if decision is None:  # pragma: no cover - pending was non-empty
                continue
            if self.faults is not None and self.faults.tape_failed(decision.tape_id):
                # Backstop for schedulers that plan outside the masked
                # pending view (envelope): fail over the whole decision.
                for entry in decision.entries:
                    self._resolve_replica_failure(entry)
                continue
            if self.obs is not None:
                self.obs.on_decision(
                    self.env.now,
                    0,
                    self.scheduler.name,
                    decision,
                    len(context.pending),
                )

            # Step 2: switch tapes if necessary.  The service list exists
            # during the switch so arriving requests can be inserted.
            switching = decision.tape_id != self.jukebox.mounted_id
            start_head = 0.0 if switching else self.jukebox.head_mb
            service = self.scheduler.build_service_list(
                decision.entries, head_mb=start_head
            )
            context.service = service
            if switching:
                if self.faults is not None:
                    mounted = yield from self._switch_with_faults(decision.tape_id)
                    if not mounted:
                        context.service = None
                        continue
                else:
                    switch_start = self.env.now
                    duration = self.jukebox.switch_to(decision.tape_id)
                    yield self._timed(duration)
                    self.metrics.on_tape_switch(self.env.now)
                    self._log(
                        OpKind.SWITCH, switch_start, duration, tape_id=decision.tape_id
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

            # Step 3: execute the service list as one sweep.
            drive_failed = False
            while not service.is_empty:
                if self.faults is not None and self.faults.drive_failure_due(
                    0, self.env.now
                ):
                    # The drive died mid-sweep: the unread remainder goes
                    # back to the pending list to be re-planned after
                    # repair (same tape, same copies — nothing was lost).
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
                head_before = self.jukebox.head_mb if self.obs is not None else 0.0
                duration = self.jukebox.access(entry.position_mb, block_mb)
                yield self._timed(duration)
                self._log(
                    OpKind.READ,
                    read_start,
                    duration,
                    tape_id=self.jukebox.mounted_id,
                    position_mb=entry.position_mb,
                    block_id=entry.block_id,
                )
                fault = (
                    self.faults.read_fault(self.jukebox.mounted_id, entry.block_id)
                    if self.faults is not None
                    else None
                )
                if fault is None:
                    service.finish_in_flight()
                    self._deliver(
                        entry, duration, locate_s=self._locate_of(head_before, entry)
                    )
                else:
                    yield from self._recover_read(entry, fault)
                    service.finish_in_flight()

            context.service = None
            self.scheduler.on_sweep_complete(context)
            if self.qos is not None:
                self.qos.on_progress(len(context.pending))
            if drive_failed:
                yield from self._repair_drive()

    # ------------------------------------------------------------------
    # Completion and fault recovery
    # ------------------------------------------------------------------
    def _locate_of(self, head_before_mb: float, entry: ServiceEntry) -> float:
        """Locate component of the access that just served ``entry``.

        ``DriveTimingModel.locate`` is pure (and memoized), so this
        recomputes the exact figure the drive charged without touching
        any simulation state.  Only called when a tracer is attached.
        """
        if self.obs is None:
            return 0.0
        return self.jukebox.timing.locate(head_before_mb, entry.position_mb)

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
            if self.on_request_complete is not None:
                self.on_request_complete(request, self.env.now)
            if self.source.is_closed:
                replacement = self.source.on_completion(self.env.now)
                if replacement is not None:
                    self.submit(replacement)

    def _recover_read(self, entry: ServiceEntry, fault):
        """Retry a faulted read in place; escalate to failover if futile."""
        tape_id = self.jukebox.mounted_id
        block_mb = self.context.catalog.block_mb
        attempts = 1
        if self.obs is not None:
            self.obs.on_fault(entry.requests, self.env.now)
        while True:
            self.metrics.on_fault(fault.kind, self.env.now)
            if self.qos is not None:
                self.qos.on_fault()
            self._log(
                OpKind.FAULT,
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
            backoff_s = self.retry.backoff_s(attempts - 1)
            self.metrics.on_retry(self.env.now)
            if self.obs is not None:
                self.obs.event(
                    self.env.now,
                    "retry",
                    drive=0,
                    block_id=entry.block_id,
                    attempt=attempts,
                )
            if backoff_s > 0:
                backoff_start = self.env.now
                yield backoff_s
                self._log(
                    OpKind.BACKOFF,
                    backoff_start,
                    backoff_s,
                    tape_id=tape_id,
                    block_id=entry.block_id,
                )
            read_start = self.env.now
            head_before = self.jukebox.head_mb if self.obs is not None else 0.0
            duration = self.jukebox.access(entry.position_mb, block_mb)
            yield self._timed(duration)
            self._log(
                OpKind.READ,
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
                    entry, duration, locate_s=self._locate_of(head_before, entry)
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
                    drive=0,
                    block_id=entry.block_id,
                    requests=len(entry.requests),
                )
                self.obs.on_requeue(entry.requests, self.env.now, "failover")
            for request in entry.requests:
                self.context.pending.append(request)
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
        for request in self.qos.expired_pending(
            self.context.pending, self.env.now
        ):
            self._expire_request(request)

    def _requeue_entries(self, entries: List[ServiceEntry]) -> None:
        """Return un-read sweep entries to the pending list (no failover)."""
        for entry in entries:
            if self.obs is not None:
                self.obs.on_requeue(entry.requests, self.env.now, "drive-repair")
            for request in entry.requests:
                self.context.pending.append(request)

    def _drop_lost_requests(self) -> None:
        """Fail pending requests whose every known copy is gone."""
        lost = self.context.pending.lost()
        if lost:
            self.context.pending.remove_many(lost)
            for request in lost:
                self._fail_request(request)

    def _switch_with_faults(self, tape_id: int):
        """Mount ``tape_id`` under robot pick faults; True when mounted."""
        attempts = 0
        while True:
            fault = self.faults.robot_pick_fault(tape_id)
            if fault is None:
                switch_start = self.env.now
                duration = self.jukebox.switch_to(tape_id)
                yield self._timed(duration)
                self.metrics.on_tape_switch(self.env.now)
                self._log(OpKind.SWITCH, switch_start, duration, tape_id=tape_id)
                return True
            attempts += 1
            self.metrics.on_fault(fault.kind, self.env.now)
            if self.qos is not None:
                self.qos.on_fault()
            # The failed pick still wastes one arm motion.
            wasted_start = self.env.now
            yield self._timed(self.jukebox.timing.robot_swap_s)
            self._log(
                OpKind.FAULT,
                wasted_start,
                self.jukebox.timing.robot_swap_s,
                tape_id=tape_id,
                detail=fault.kind,
            )
            if self.retry is not None and self.retry.allows(attempts):
                backoff_s = self.retry.backoff_s(attempts - 1)
                self.metrics.on_retry(self.env.now)
                if backoff_s > 0:
                    backoff_start = self.env.now
                    yield backoff_s
                    self._log(OpKind.BACKOFF, backoff_start, backoff_s, tape_id=tape_id)
                continue
            # The cartridge is stuck: take the tape out of service and
            # fail over everything scheduled against it.
            self.faults.fail_tape(tape_id)
            service = self.context.service
            if service is not None:
                for entry in service.remaining():
                    self._resolve_replica_failure(entry)
                while not service.is_empty:
                    service.pop_next()
                service.finish_in_flight()
            self._drop_lost_requests()
            return False

    def _repair_drive(self):
        """Take the drive down for repair; re-arm its failure clock."""
        failure_start = self.env.now
        self.metrics.on_drive_failure(failure_start)
        self.metrics.on_fault("drive-failure", failure_start)
        if self.qos is not None:
            self.qos.on_fault()
        repair_s = self.faults.begin_repair(0, failure_start)
        self.metrics.on_drive_repair(failure_start, repair_s)
        if self.obs is not None:
            self.obs.event(
                failure_start, "drive-failure", drive=0, repair_s=repair_s
            )
        self.jukebox.unload_for_repair()
        self._log(OpKind.REPAIR, failure_start, repair_s, detail="drive-failure")
        yield repair_s
