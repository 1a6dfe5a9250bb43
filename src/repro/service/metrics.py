"""Metric collection for jukebox simulations.

Collects the paper's reported quantities — throughput (KB/s and
requests/minute), mean response time (delay), and tape-switch counts —
as steady-state averages after a warm-up window, plus diagnostics
(queue-length trace, drive utilization breakdown).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..stats import Histogram, RunningStats, TimeWeightedStats
from ..workload.requests import Request

#: Bytes per KB for throughput reporting.
KB = 1024.0
MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class MetricsReport:
    """Steady-state summary of one simulation run."""

    measured_s: float
    completed: int
    throughput_kb_s: float
    requests_per_min: float
    mean_response_s: float
    p95_response_s: float
    max_response_s: float
    tape_switches: int
    switches_per_hour: float
    mean_queue_length: float
    drive_busy_fraction: float
    arrivals: int
    total_completed: int
    #: Mean time spent queued before the delivering read began (0.0
    #: when the simulator did not supply per-read service durations).
    mean_waiting_s: float = 0.0
    #: Injected-fault counts by kind (empty without fault injection).
    fault_counts: Mapping[str, int] = field(default_factory=dict)
    #: Transient-fault retries performed.
    retries: int = 0
    #: Requests re-queued against a surviving replica after a failure.
    failovers: int = 0
    #: Requests that permanently failed (no readable copy remained).
    failed_requests: int = 0
    #: Post-warm-up fraction of finished requests actually served
    #: (1.0 when nothing failed — the per-request availability).
    served_fraction: float = 1.0
    #: Drive hardware failures repaired during the run.
    drive_failures: int = 0
    #: Observed mean time to repair a failed drive (0.0 without failures).
    mean_repair_s: float = 0.0
    #: Median response time (histogram-interpolated, like p95).
    p50_response_s: float = 0.0
    #: 99th-percentile response time.
    p99_response_s: float = 0.0
    #: Post-warm-up arrivals shed by admission control / degraded mode.
    shed_requests: int = 0
    #: Post-warm-up shed counts by reason (queue-full/rate-limit/degraded).
    shed_by_reason: Mapping[str, int] = field(default_factory=dict)
    #: Post-warm-up requests that expired (TTL passed before delivery).
    expired_requests: int = 0
    #: Post-warm-up deadline misses: expired plus delivered-late requests.
    deadline_misses: int = 0
    #: Misses over finished deadline-bearing work (0.0 without deadlines).
    deadline_miss_rate: float = 0.0
    #: Requests force-promoted into a sweep by the starvation guard.
    forced_promotions: int = 0
    #: Times the QoS circuit breaker tripped into degraded mode.
    breaker_trips: int = 0
    #: True when the measurement window saw arrivals but zero
    #: completions — a saturated (or fully stalled) run whose
    #: throughput/response fields degrade to 0.0 instead of NaN.
    saturated: bool = False

    def __str__(self) -> str:  # pragma: no cover - human-readable aid
        return (
            f"throughput {self.throughput_kb_s:8.1f} KB/s | "
            f"{self.requests_per_min:6.3f} req/min | "
            f"delay {self.mean_response_s:8.1f} s | "
            f"switches/h {self.switches_per_hour:6.2f} | "
            f"queue {self.mean_queue_length:6.1f}"
        )


def report_digest(report: MetricsReport) -> str:
    """A content hash of the full report (field-order independent).

    The canonical form is ``json.dumps`` of ``dataclasses.asdict`` with
    sorted keys, so two reports hash equal exactly when every metric is
    bit-identical.  Golden-hash regression tests pin these digests to
    prove optimization passes introduce zero behavioural drift.
    """
    import hashlib
    import json

    payload = json.dumps(dataclasses.asdict(report), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class MetricsCollector:
    """Accumulates run metrics; samples before ``warmup_s`` are dropped."""

    def __init__(self, block_mb: float, warmup_s: float = 0.0) -> None:
        if warmup_s < 0:
            raise ValueError(f"warmup_s must be >= 0, got {warmup_s!r}")
        self.block_mb = block_mb
        self.warmup_s = warmup_s
        self.response = RunningStats()
        self.response_hist = Histogram(bin_width=10.0)
        #: Time spent queued before the delivering read began.
        self.waiting = RunningStats()
        self.queue = TimeWeightedStats()
        self._outstanding = 0
        self.completed_after_warmup = 0
        self.total_completed = 0
        self.arrivals = 0
        self.tape_switches = 0
        self.busy_s_after_warmup = 0.0
        self._end_s: Optional[float] = None
        #: Fault/recovery counters (all stay zero without fault injection).
        self.fault_counts: Dict[str, int] = {}
        self.retries = 0
        self.failovers = 0
        self.total_failed = 0
        self.failed_after_warmup = 0
        self.drive_failures = 0
        self.repair_s = 0.0
        #: QoS counters (all stay zero without a QoS layer attached).
        self.total_shed = 0
        self.shed_after_warmup = 0
        self.shed_by_reason: Dict[str, int] = {}
        self.total_expired = 0
        self.expired_after_warmup = 0
        self.late_completions = 0
        self.forced_promotions = 0
        self.breaker_trips = 0

    # ------------------------------------------------------------------
    # Event hooks (called by the simulator)
    # ------------------------------------------------------------------
    def on_arrival(self, request: Request, now: float) -> None:
        """A request entered the system."""
        self.arrivals += 1
        self._outstanding = outstanding = self._outstanding + 1
        self.queue.update(now, outstanding)

    def on_completion(self, request: Request, now: float, service_s: float = None) -> None:
        """A request's block was delivered.

        ``service_s``, when provided, is the duration of the physical
        operation that delivered the block; the remainder of the
        response time is recorded as queueing/waiting delay.
        """
        request.completion_s = now
        self.total_completed += 1
        self._outstanding = outstanding = self._outstanding - 1
        self.queue.update(now, outstanding)
        if now >= self.warmup_s:
            self.completed_after_warmup += 1
            # The float ``request.response_s`` returns, computed once.
            response_s = now - request.arrival_s
            self.response.add(response_s)
            self.response_hist.add(response_s)
            if service_s is not None:
                self.waiting.add(max(0.0, response_s - service_s))
            deadline_s = request.deadline_s
            if deadline_s is not None and now > deadline_s:
                self.late_completions += 1

    def on_fault(self, kind: str, now: float) -> None:
        """The injector raised a fault of ``kind``."""
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    def on_retry(self, now: float) -> None:
        """A transient fault is being retried (after backoff)."""
        self.retries += 1

    def on_failover(self, count: int, now: float) -> None:
        """``count`` requests were re-queued against surviving replicas."""
        self.failovers += count

    def on_request_failed(self, request: Request, now: float) -> None:
        """A request permanently failed: no readable copy of its block."""
        self.total_failed += 1
        self._outstanding -= 1
        self.queue.update(now, self._outstanding)
        if now >= self.warmup_s:
            self.failed_after_warmup += 1

    def on_shed(self, request: Request, now: float, reason: str = "admission") -> None:
        """Admission control (or degraded mode) turned ``request`` away."""
        self.total_shed += 1
        self._outstanding -= 1
        self.queue.update(now, self._outstanding)
        if now >= self.warmup_s:
            self.shed_after_warmup += 1
            self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1

    def on_expired(self, request: Request, now: float) -> None:
        """``request``'s TTL passed before its block could be delivered."""
        self.total_expired += 1
        self._outstanding -= 1
        self.queue.update(now, self._outstanding)
        if now >= self.warmup_s:
            self.expired_after_warmup += 1

    def on_forced_promotion(self, count: int, now: float) -> None:
        """The starvation guard force-promoted ``count`` requests."""
        if now >= self.warmup_s:
            self.forced_promotions += count

    def on_breaker_trip(self, now: float) -> None:
        """The QoS circuit breaker tripped into degraded shed-load mode."""
        self.breaker_trips += 1

    @property
    def outstanding(self) -> int:
        """Requests admitted but not yet completed, failed, or expired."""
        return self._outstanding

    def on_drive_failure(self, now: float) -> None:
        """A drive hardware failure occurred."""
        self.drive_failures += 1

    def on_drive_repair(self, now: float, duration_s: float) -> None:
        """A failed drive entered repair for ``duration_s`` seconds."""
        self.repair_s += duration_s

    def on_tape_switch(self, now: float) -> None:
        """A tape switch completed."""
        if now >= self.warmup_s:
            self.tape_switches += 1

    def on_drive_busy(self, start_s: float, duration_s: float) -> None:
        """The drive performed a timed operation in [start, start+duration)."""
        end_s = start_s + duration_s
        overlap = max(0.0, end_s - max(start_s, self.warmup_s))
        self.busy_s_after_warmup += overlap

    # ------------------------------------------------------------------
    def finalize(self, now: float) -> None:
        """Close the measurement window at time ``now``.

        The drive operation in flight at the horizon was credited for its
        full duration at start time; clip the busy total to the window so
        utilization never exceeds 1.
        """
        self.queue.finalize(now)
        self._end_s = now
        window = max(0.0, now - self.warmup_s)
        self.busy_s_after_warmup = min(self.busy_s_after_warmup, window)

    def report(self) -> MetricsReport:
        """Produce the steady-state summary (requires :meth:`finalize`)."""
        if self._end_s is None:
            raise RuntimeError("finalize() must be called before report()")
        measured_s = max(0.0, self._end_s - self.warmup_s)
        bytes_read = self.completed_after_warmup * self.block_mb * MB
        throughput_kb_s = bytes_read / KB / measured_s if measured_s > 0 else 0.0
        # Guard each divisor itself: a subnormal window is positive but
        # its minutes and hours underflow to 0.0.
        minutes = measured_s / 60.0
        requests_per_min = (
            self.completed_after_warmup / minutes if minutes > 0 else 0.0
        )
        hours = measured_s / 3600.0
        switches_per_hour = self.tape_switches / hours if hours > 0 else 0.0
        if self.response_hist.count:
            p50 = self.response_hist.percentile(0.50)
            p95 = self.response_hist.percentile(0.95)
            p99 = self.response_hist.percentile(0.99)
        else:
            p50 = p95 = p99 = 0.0
        # Every mean below degrades to 0.0 (and served_fraction to 1.0)
        # when its denominator is zero, so a run with no completed
        # requests still yields a finite, NaN-free report.
        finished = self.completed_after_warmup + self.failed_after_warmup
        served_fraction = (
            self.completed_after_warmup / finished if finished > 0 else 1.0
        )
        mean_repair_s = (
            self.repair_s / self.drive_failures if self.drive_failures > 0 else 0.0
        )
        # Deadline misses: expired requests never delivered plus requests
        # delivered after their TTL.  The rate is over finished
        # deadline-eligible work, NaN-free when nothing finished.
        deadline_misses = self.expired_after_warmup + self.late_completions
        deadline_finished = self.completed_after_warmup + self.expired_after_warmup
        deadline_miss_rate = (
            deadline_misses / deadline_finished if deadline_finished > 0 else 0.0
        )
        # A saturated (or fully stalled) run: work arrived but nothing
        # completed inside the measurement window.  Every mean above has
        # already degraded to a finite 0.0; the flag makes the condition
        # explicit instead of reporting a silently-zero response time.
        saturated = (
            measured_s > 0 and self.arrivals > 0 and self.completed_after_warmup == 0
        )
        return MetricsReport(
            measured_s=measured_s,
            completed=self.completed_after_warmup,
            throughput_kb_s=throughput_kb_s,
            requests_per_min=requests_per_min,
            mean_response_s=self.response.mean,
            p95_response_s=p95,
            max_response_s=self.response.maximum,
            tape_switches=self.tape_switches,
            switches_per_hour=switches_per_hour,
            mean_queue_length=self.queue.mean,
            drive_busy_fraction=(
                self.busy_s_after_warmup / measured_s if measured_s > 0 else 0.0
            ),
            arrivals=self.arrivals,
            total_completed=self.total_completed,
            mean_waiting_s=self.waiting.mean,
            fault_counts=dict(self.fault_counts),
            retries=self.retries,
            failovers=self.failovers,
            failed_requests=self.failed_after_warmup,
            served_fraction=served_fraction,
            drive_failures=self.drive_failures,
            mean_repair_s=mean_repair_s,
            p50_response_s=p50,
            p99_response_s=p99,
            shed_requests=self.shed_after_warmup,
            shed_by_reason=dict(self.shed_by_reason),
            expired_requests=self.expired_after_warmup,
            deadline_misses=deadline_misses,
            deadline_miss_rate=deadline_miss_rate,
            forced_promotions=self.forced_promotions,
            breaker_trips=self.breaker_trips,
            saturated=saturated,
        )
