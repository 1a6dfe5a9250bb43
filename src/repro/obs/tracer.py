"""The tracer: the single recording facade the simulators talk to.

One :class:`Tracer` per simulation run captures

* a :class:`~repro.obs.spans.RequestTrace` per admitted request (phase
  chain arrival → terminal outcome),
* a :class:`~repro.obs.spans.DriveSpan` timeline per drive (plus a
  :class:`~repro.des.UtilizationTimeline` for windowed utilization),
* a scheduler-decision log (:class:`~repro.obs.spans.DecisionRecord`),
* instantaneous :class:`~repro.obs.spans.TraceEvent` records (faults,
  retries, failovers, sheds, expiries, breaker trips, ...), and
* a :class:`~repro.obs.registry.MetricRegistry` of counters/gauges.

The simulators hold an ``Optional[Tracer]`` and guard every call with
``if self.obs is not None``; tracing never touches the RNG streams, the
event heap, or any metric, so an attached tracer observes a run that is
bit-identical to an untraced one (pinned by the golden-hash tests).

Memory: request traces and the decision log are unbounded (a trace is a
whole-run artifact); drive spans and events accept an optional capacity
after which they are dropped and counted.  The drive spans are the
run's operation timeline (``tape-jukebox run --trace N`` prints them).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from ..des.monitor import UtilizationTimeline
from ..workload.requests import Request
from .registry import MetricRegistry
from .spans import DecisionRecord, DriveSpan, RequestTrace, TraceEvent


class Tracer:
    """Span-based structured trace of one simulation run."""

    def __init__(
        self,
        max_drive_spans: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> None:
        self.requests: Dict[int, RequestTrace] = {}
        self.drive_spans: List[DriveSpan] = []
        self.events: List[TraceEvent] = []
        self.decisions: List[DecisionRecord] = []
        self.timeline = UtilizationTimeline()
        self.metrics = MetricRegistry()
        self.max_drive_spans = max_drive_spans
        self.max_events = max_events
        self.dropped_drive_spans = 0
        self.dropped_events = 0
        #: Optional clock for call sites without access to ``env.now``
        #: (e.g. the fault injector); bound by the runner.
        self._now_fn: Optional[Callable[[], float]] = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_clock(self, now_fn: Callable[[], float]) -> None:
        """Bind a ``now()`` source (usually ``lambda: env.now``)."""
        self._now_fn = now_fn

    def now(self) -> float:
        """The bound clock's current time (0.0 when unbound)."""
        return self._now_fn() if self._now_fn is not None else 0.0

    def trace_of(self, request: Request) -> Optional[RequestTrace]:
        """The trace of ``request``, or ``None`` if it never arrived."""
        return self.requests.get(request.request_id)

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def on_arrival(self, request: Request, now: float) -> None:
        """A request entered the system; opens its trace."""
        self.requests[request.request_id] = RequestTrace(
            request_id=request.request_id,
            block_id=request.block_id,
            arrival_s=now,
        )
        self.metrics.inc("requests.arrived")

    def on_shed(self, request: Request, now: float, reason: str) -> None:
        """Admission control (or degraded mode) turned the request away."""
        trace = self.requests.get(request.request_id)
        if trace is not None and not trace.is_terminal:
            trace.finish("shed", now)
        self.event(now, "shed", request_id=request.request_id, reason=reason)
        self.metrics.inc("requests.shed")
        self.metrics.inc(f"requests.shed.{reason}")

    def on_expired(self, request: Request, now: float) -> None:
        """The request's TTL passed before delivery."""
        trace = self.requests.get(request.request_id)
        if trace is not None and not trace.is_terminal:
            trace.finish("expired", now)
        self.event(now, "expired", request_id=request.request_id)
        self.metrics.inc("requests.expired")

    def on_failed(self, request: Request, now: float) -> None:
        """No readable copy of the request's block remains."""
        trace = self.requests.get(request.request_id)
        if trace is not None and not trace.is_terminal:
            trace.in_recovery = True  # residual time is fault handling
            trace.finish("failed", now)
        self.event(now, "request-failed", request_id=request.request_id)
        self.metrics.inc("requests.failed")

    def on_complete(
        self, request: Request, now: float, locate_s: float, read_s: float
    ) -> None:
        """The delivering read finished at ``now``.

        ``locate_s``/``read_s`` split the physical access that delivered
        the block; the interval before it is attributed to the trace's
        current wait phase (queue / sweep-wait / recovery).
        """
        trace = self.requests.get(request.request_id)
        if trace is None or trace.is_terminal:
            return
        access_start = now - locate_s - read_s
        trace.advance(trace.wait_phase(), access_start)
        trace.advance("locate", access_start + locate_s)
        trace.advance("read", now)
        trace.outcome = "complete"
        trace.end_s = now
        self.metrics.inc("requests.completed")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def on_decision(
        self,
        now: float,
        drive: int,
        scheduler: str,
        decision,
        pending_len: int,
    ) -> None:
        """A major reschedule chose a tape and a schedule.

        Every selected request's time-so-far is attributed to ``queue``
        and its trace flips to the scheduled state.
        """
        self.decisions.append(
            DecisionRecord(
                time_s=now,
                drive=drive,
                scheduler=scheduler,
                tape_id=decision.tape_id,
                entry_count=len(decision.entries),
                request_count=decision.request_count,
                pending_len=pending_len,
                forced=getattr(decision, "forced", False),
            )
        )
        self.metrics.inc("scheduler.decisions")
        if getattr(decision, "forced", False):
            self.metrics.inc("scheduler.forced_decisions")
        for entry in decision.entries:
            for request in entry.requests:
                trace = self.requests.get(request.request_id)
                if trace is None or trace.is_terminal:
                    continue
                trace.advance(trace.wait_phase(), now)
                trace.scheduled = True
                trace.in_recovery = False

    def on_exchange(
        self, requests: Iterable[Request], end_s: float
    ) -> None:
        """A tape switch for the current sweep completed at ``end_s``."""
        for request in requests:
            trace = self.requests.get(request.request_id)
            if trace is None or trace.is_terminal:
                continue
            trace.advance("exchange", end_s)

    def on_requeue(
        self, requests: Iterable[Request], now: float, reason: str
    ) -> None:
        """Requests went back to the pending list (failover / repair)."""
        count = 0
        for request in requests:
            count += 1
            trace = self.requests.get(request.request_id)
            if trace is None or trace.is_terminal:
                continue
            trace.in_recovery = True
            trace.advance("recovery", now)
            trace.scheduled = False
            trace.in_recovery = False
        if count:
            self.event(now, "requeue", reason=reason, requests=count)
            self.metrics.inc(f"requests.requeued.{reason}", count)

    def on_fault(self, requests: Iterable[Request], now: float) -> None:
        """A fault interrupted the current attempt for ``requests``."""
        for request in requests:
            trace = self.requests.get(request.request_id)
            if trace is not None and not trace.is_terminal:
                trace.in_recovery = True

    # ------------------------------------------------------------------
    # Drive timeline
    # ------------------------------------------------------------------
    def on_op(
        self,
        drive: int,
        kind: str,
        start_s: float,
        duration_s: float,
        tape_id: Optional[int] = None,
        block_id: Optional[int] = None,
        position_mb: Optional[float] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Record one interval of drive activity."""
        self.timeline.record(drive, start_s, start_s + duration_s, kind)
        self.metrics.inc(f"drive.{kind}")
        if (
            self.max_drive_spans is not None
            and len(self.drive_spans) >= self.max_drive_spans
        ):
            self.dropped_drive_spans += 1
            return
        self.drive_spans.append(
            DriveSpan(
                drive=drive,
                kind=kind,
                start_s=start_s,
                duration_s=duration_s,
                tape_id=tape_id,
                block_id=block_id,
                position_mb=position_mb,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # Instantaneous events
    # ------------------------------------------------------------------
    def event(
        self, now: Optional[float], kind: str, drive: Optional[int] = None, **attrs
    ) -> None:
        """Record an instantaneous structured event.

        ``now=None`` reads the bound clock — the form call sites without
        an environment handle (the fault injector) use.
        """
        time_s = self.now() if now is None else now
        self.metrics.inc(f"events.{kind}")
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(
            TraceEvent(
                time_s=time_s,
                kind=kind,
                drive=drive,
                attrs=tuple(sorted(attrs.items())),
            )
        )

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and the summary)
    # ------------------------------------------------------------------
    def terminal_traces(self) -> List[RequestTrace]:
        """All closed request traces, in request-id order."""
        return [
            trace
            for _rid, trace in sorted(self.requests.items())
            if trace.is_terminal
        ]

    def open_traces(self) -> List[RequestTrace]:
        """Requests still in flight when the run stopped."""
        return [
            trace
            for _rid, trace in sorted(self.requests.items())
            if not trace.is_terminal
        ]
