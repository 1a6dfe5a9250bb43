"""Unit tests for the metrics collector."""

import pytest

from repro.service import MetricsCollector
from repro.workload import Request


def make_request(request_id=0, block_id=0, arrival_s=0.0):
    return Request(request_id=request_id, block_id=block_id, arrival_s=arrival_s)


class TestMetricsCollector:
    def test_requires_finalize(self):
        metrics = MetricsCollector(block_mb=16.0)
        with pytest.raises(RuntimeError):
            metrics.report()

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(block_mb=16.0, warmup_s=-1.0)

    def test_throughput_accounting(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=0.0)
        requests = [
            make_request(request_id=index, arrival_s=index * 10.0)
            for index in range(10)
        ]
        for request in requests:  # arrivals first (time-ordered hooks)
            metrics.on_arrival(request, request.arrival_s)
        for request in requests:
            metrics.on_completion(request, request.arrival_s + 100.0)
        metrics.finalize(1000.0)
        report = metrics.report()
        assert report.completed == 10
        expected_kb = 10 * 16 * 1024  # ten 16 MB blocks in KB
        assert report.throughput_kb_s == pytest.approx(expected_kb / 1000.0)
        assert report.requests_per_min == pytest.approx(10 / (1000 / 60))
        assert report.mean_response_s == pytest.approx(100.0)

    def test_warmup_drops_early_completions(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=100.0)
        early = make_request(request_id=0, arrival_s=0.0)
        late = make_request(request_id=1, arrival_s=150.0)
        metrics.on_arrival(early, 0.0)
        metrics.on_completion(early, 50.0)   # before warm-up: dropped
        metrics.on_arrival(late, 150.0)
        metrics.on_completion(late, 250.0)   # after: kept
        metrics.finalize(1100.0)
        report = metrics.report()
        assert report.completed == 1
        assert report.total_completed == 2
        assert report.mean_response_s == pytest.approx(100.0)
        # Measured window excludes the warm-up.
        assert report.measured_s == pytest.approx(1000.0)

    def test_tape_switches_counted_after_warmup(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=100.0)
        metrics.on_tape_switch(50.0)
        metrics.on_tape_switch(150.0)
        metrics.on_tape_switch(151.0)
        metrics.finalize(3700.0)
        assert metrics.report().tape_switches == 2

    def test_queue_length_time_weighted(self):
        metrics = MetricsCollector(block_mb=16.0)
        first = make_request(request_id=0)
        second = make_request(request_id=1)
        metrics.on_arrival(first, 0.0)    # queue 1
        metrics.on_arrival(second, 10.0)  # queue 2
        metrics.on_completion(first, 20.0)  # queue 1
        metrics.finalize(40.0)
        report = metrics.report()
        expected = (1 * 10 + 2 * 10 + 1 * 20) / 40
        assert report.mean_queue_length == pytest.approx(expected)

    def test_busy_fraction_clipped_to_warmup(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=100.0)
        metrics.on_drive_busy(0.0, 50.0)     # fully inside warm-up: ignored
        metrics.on_drive_busy(90.0, 20.0)    # 10 s overlap counted
        metrics.on_drive_busy(200.0, 100.0)  # fully counted
        metrics.finalize(1100.0)
        report = metrics.report()
        assert report.drive_busy_fraction == pytest.approx((10 + 100) / 1000.0)

    def test_completion_stamps_request(self):
        metrics = MetricsCollector(block_mb=16.0)
        request = make_request(arrival_s=5.0)
        metrics.on_arrival(request, 5.0)
        metrics.on_completion(request, 42.0)
        assert request.completion_s == 42.0
        assert request.response_s == 37.0

    def test_p95_reported(self):
        metrics = MetricsCollector(block_mb=16.0)
        requests = [make_request(request_id=index, arrival_s=0.0) for index in range(100)]
        for request in requests:
            metrics.on_arrival(request, 0.0)
        for index, request in enumerate(requests):
            metrics.on_completion(request, float(index + 1))
        metrics.finalize(1000.0)
        report = metrics.report()
        assert report.p95_response_s == pytest.approx(95, abs=11)
        assert report.max_response_s == 100.0


class TestWaitingBreakdown:
    def test_waiting_recorded_with_service_duration(self):
        metrics = MetricsCollector(block_mb=16.0)
        request = make_request(arrival_s=0.0)
        metrics.on_arrival(request, 0.0)
        metrics.on_completion(request, 100.0, service_s=30.0)
        metrics.finalize(1000.0)
        report = metrics.report()
        assert report.mean_waiting_s == pytest.approx(70.0)

    def test_waiting_clamped_non_negative(self):
        metrics = MetricsCollector(block_mb=16.0)
        request = make_request(arrival_s=0.0)
        metrics.on_arrival(request, 0.0)
        # A coalesced request can complete faster than the full read.
        metrics.on_completion(request, 10.0, service_s=30.0)
        metrics.finalize(100.0)
        assert metrics.report().mean_waiting_s == 0.0

    def test_waiting_default_zero_without_durations(self):
        metrics = MetricsCollector(block_mb=16.0)
        request = make_request(arrival_s=0.0)
        metrics.on_arrival(request, 0.0)
        metrics.on_completion(request, 50.0)
        metrics.finalize(100.0)
        assert metrics.report().mean_waiting_s == 0.0

    def test_simulator_populates_waiting(self):
        from repro.api import run
        from repro.experiments import ExperimentConfig

        report = run(
            ExperimentConfig(queue_length=20, horizon_s=10_000.0)
        ).report
        assert 0.0 < report.mean_waiting_s < report.mean_response_s


class TestDegradedReports:
    def test_zero_completions_report_is_finite(self):
        """A run that served nothing still yields a NaN-free report."""
        import dataclasses
        import math

        metrics = MetricsCollector(block_mb=16.0)
        metrics.finalize(0.0)
        report = metrics.report()
        for name, value in dataclasses.asdict(report).items():
            if isinstance(value, float):
                assert math.isfinite(value), name
        assert report.completed == 0
        assert report.mean_response_s == 0.0
        assert report.served_fraction == 1.0

    def test_all_failed_report_is_finite(self):
        """Every request failing drives served_fraction to zero, not NaN."""
        metrics = MetricsCollector(block_mb=16.0)
        requests = [make_request(request_id=i) for i in range(3)]
        for request in requests:
            metrics.on_arrival(request, 0.0)
        for request in requests:
            metrics.on_request_failed(request, 10.0)
        metrics.finalize(100.0)
        report = metrics.report()
        assert report.failed_requests == 3
        assert report.served_fraction == 0.0
        assert report.throughput_kb_s == 0.0

    def test_fault_hooks_accumulate(self):
        metrics = MetricsCollector(block_mb=16.0)
        metrics.on_fault("media-error", 1.0)
        metrics.on_fault("media-error", 2.0)
        metrics.on_fault("bad-block", 3.0)
        metrics.on_retry(1.5)
        metrics.on_failover(4, 3.5)
        metrics.on_drive_failure(5.0)
        metrics.on_drive_repair(5.0, 120.0)
        metrics.finalize(100.0)
        report = metrics.report()
        assert report.fault_counts == {"media-error": 2, "bad-block": 1}
        assert report.retries == 1
        assert report.failovers == 4
        assert report.drive_failures == 1
        assert report.mean_repair_s == pytest.approx(120.0)

    def test_failed_requests_respect_warmup(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=50.0)
        early = make_request(request_id=0)
        late = make_request(request_id=1)
        metrics.on_arrival(early, 0.0)
        metrics.on_arrival(late, 0.0)
        metrics.on_request_failed(early, 10.0)  # inside warm-up
        metrics.on_request_failed(late, 60.0)
        metrics.finalize(100.0)
        assert metrics.report().failed_requests == 1


class TestSaturationGuard:
    """Zero completions after warm-up must yield a finite, flagged report."""

    def test_arrivals_but_no_completions_is_saturated(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=10.0)
        for index in range(5):
            metrics.on_arrival(make_request(request_id=index), 0.0)
        metrics.finalize(100.0)
        report = metrics.report()
        assert report.saturated
        assert report.completed == 0
        # Every derived figure is finite (0.0), never NaN or a crash.
        for value in (
            report.throughput_kb_s, report.requests_per_min,
            report.mean_response_s, report.p50_response_s,
            report.p95_response_s, report.p99_response_s,
            report.mean_queue_length, report.deadline_miss_rate,
        ):
            assert value == value  # not NaN
            assert value >= 0.0

    def test_warmup_only_completions_still_saturated(self):
        # Work completed, but all of it inside the warm-up window.
        metrics = MetricsCollector(block_mb=16.0, warmup_s=50.0)
        request = make_request()
        metrics.on_arrival(request, 0.0)
        metrics.on_completion(request, 10.0)
        metrics.finalize(100.0)
        report = metrics.report()
        assert report.saturated
        assert report.completed == 0
        assert report.total_completed == 1

    def test_empty_run_is_not_saturated(self):
        metrics = MetricsCollector(block_mb=16.0)
        metrics.finalize(100.0)
        assert not metrics.report().saturated

    def test_healthy_run_is_not_saturated(self):
        metrics = MetricsCollector(block_mb=16.0)
        request = make_request()
        metrics.on_arrival(request, 0.0)
        metrics.on_completion(request, 10.0)
        metrics.finalize(100.0)
        assert not metrics.report().saturated

    def test_degenerate_window_is_not_saturated(self):
        # Horizon entirely inside warm-up: measured_s == 0, nothing to flag.
        metrics = MetricsCollector(block_mb=16.0, warmup_s=100.0)
        metrics.on_arrival(make_request(), 0.0)
        metrics.finalize(50.0)
        report = metrics.report()
        assert not report.saturated
        assert report.measured_s == 0.0


class TestQoSHooks:
    def test_shed_and_expired_accumulate_with_reasons(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=10.0)
        requests = [make_request(request_id=index) for index in range(4)]
        for request in requests:
            metrics.on_arrival(request, 20.0)
        metrics.on_shed(requests[0], 20.0, reason="queue-full")
        metrics.on_shed(requests[1], 21.0, reason="degraded")
        metrics.on_expired(requests[2], 25.0)
        metrics.on_forced_promotion(3, 30.0)
        metrics.on_breaker_trip(31.0)
        metrics.finalize(100.0)
        report = metrics.report()
        assert report.shed_requests == 2
        assert report.shed_by_reason == {"queue-full": 1, "degraded": 1}
        assert report.expired_requests == 1
        assert report.forced_promotions == 3
        assert report.breaker_trips == 1
        assert metrics.outstanding == 1  # requests[3] still in flight

    def test_shed_inside_warmup_not_reported(self):
        metrics = MetricsCollector(block_mb=16.0, warmup_s=50.0)
        request = make_request()
        metrics.on_arrival(request, 0.0)
        metrics.on_shed(request, 1.0)
        metrics.finalize(100.0)
        report = metrics.report()
        assert report.shed_requests == 0
        assert metrics.total_shed == 1

    def test_late_completion_counts_as_deadline_miss(self):
        metrics = MetricsCollector(block_mb=16.0)
        on_time = make_request(request_id=0)
        on_time.deadline_s = 50.0
        late = make_request(request_id=1)
        late.deadline_s = 5.0
        for request in (on_time, late):
            metrics.on_arrival(request, 0.0)
        metrics.on_completion(on_time, 40.0)
        metrics.on_completion(late, 40.0)
        metrics.finalize(100.0)
        report = metrics.report()
        assert report.deadline_misses == 1
        assert report.deadline_miss_rate == pytest.approx(0.5)

    def test_percentiles_ordered(self):
        metrics = MetricsCollector(block_mb=16.0)
        requests = [make_request(request_id=index) for index in range(100)]
        for request in requests:  # arrivals first (time-ordered hooks)
            metrics.on_arrival(request, 0.0)
        for index, request in enumerate(requests):
            metrics.on_completion(request, float(index + 1))
        metrics.finalize(200.0)
        report = metrics.report()
        assert 0.0 < report.p50_response_s <= report.p95_response_s
        assert report.p95_response_s <= report.p99_response_s
        assert report.p99_response_s <= report.max_response_s
