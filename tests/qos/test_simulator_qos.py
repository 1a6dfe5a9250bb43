"""QoS threaded through the service loops: deadlines, shedding, breaker."""

import dataclasses

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, RetryPolicy
from repro.qos import QoSConfig
from repro.service.metrics import report_digest as report_hash

#: These tests run through ``repro.api.run``; a deprecated shim sneaking
#: back in fails them.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

HORIZON = 60_000.0

BASE = ExperimentConfig(
    scheduler="dynamic-max-bandwidth",
    tape_count=4,
    capacity_mb=1000.0,
    horizon_s=HORIZON,
    queue_length=12,
    seed=5,
    warmup_fraction=0.0,
)


class TestPayForWhatYouUse:
    def test_inert_qos_bit_identical_single_drive(self):
        clean = run(BASE).report
        inert = run(BASE.with_(qos=QoSConfig())).report
        assert dataclasses.asdict(clean) == dataclasses.asdict(inert)
        assert report_hash(clean) == report_hash(inert)

    def test_inert_qos_bit_identical_multidrive(self):
        base = BASE.with_(drive_count=2)
        clean = run(base).report
        inert = run(base.with_(qos=QoSConfig())).report
        assert report_hash(clean) == report_hash(inert)

    def test_inert_qos_bit_identical_under_faults(self):
        base = BASE.with_(
            replicas=2,
            faults=FaultConfig(media_error_rate=0.05, retry=RetryPolicy()),
        )
        clean = run(base).report
        inert = run(base.with_(qos=QoSConfig())).report
        assert report_hash(clean) == report_hash(inert)

    def test_no_manager_without_qos(self):
        from repro.experiments.runner import build_simulator

        assert build_simulator(BASE).qos is None
        assert build_simulator(BASE.with_(qos=QoSConfig())).qos is None
        assert (
            build_simulator(BASE.with_(qos=QoSConfig(deadline_s=10.0))).qos
            is not None
        )


class TestDeadlines:
    def test_tight_deadline_expires_requests(self):
        report = run(BASE.with_(qos=QoSConfig(deadline_s=300.0))).report
        assert report.expired_requests > 0
        assert report.deadline_misses >= report.expired_requests
        assert 0.0 < report.deadline_miss_rate <= 1.0

    def test_closed_population_survives_expiry(self):
        # Expired requests spawn replacements, so the closed source keeps
        # offering work and the run keeps completing requests throughout.
        report = run(BASE.with_(qos=QoSConfig(deadline_s=300.0))).report
        assert report.completed > 0
        assert report.arrivals > BASE.queue_length

    def test_loose_deadline_changes_nothing_material(self):
        clean = run(BASE).report
        loose = run(
            BASE.with_(qos=QoSConfig(deadline_s=10.0 * HORIZON))
        ).report
        assert loose.expired_requests == 0
        assert loose.deadline_misses == 0
        assert loose.completed == clean.completed
        assert loose.mean_response_s == clean.mean_response_s

    def test_deadline_stamped_at_admission(self):
        from repro.des import Environment
        from repro.qos.manager import QoSManager
        from repro.service.metrics import MetricsCollector
        from repro.workload.requests import Request

        env = Environment()
        metrics = MetricsCollector(block_mb=16.0)
        manager = QoSManager(QoSConfig(deadline_s=50.0), env, metrics)
        request = Request(request_id=0, block_id=0, arrival_s=0.0)
        metrics.on_arrival(request, 0.0)
        assert manager.admit(request, pending_len=0)
        assert request.deadline_s == 50.0
        assert not request.is_expired(50.0)
        assert request.is_expired(50.0001)


class TestAdmissionInTheLoop:
    def test_bounded_queue_sheds_at_overload(self):
        # Open model at ~4x a loaded jukebox's service rate.
        config = BASE.with_(
            queue_length=None,
            mean_interarrival_s=20.0,
            qos=QoSConfig(admission="bounded-queue", max_pending=15),
        )
        report = run(config).report
        assert report.shed_requests > 0
        assert report.shed_by_reason.get("queue-full", 0) == report.shed_requests
        # What was admitted still flows through to completion.
        assert report.completed > 0

    def test_token_bucket_caps_admission_rate(self):
        config = BASE.with_(
            queue_length=None,
            mean_interarrival_s=30.0,
            qos=QoSConfig(
                admission="token-bucket", rate_limit_per_s=1 / 300.0, burst=2
            ),
        )
        report = run(config).report
        assert report.shed_by_reason.get("rate-limit", 0) > 0
        admitted = report.arrivals - report.shed_requests
        # Sustained admissions stay at or under rate * horizon + burst.
        assert admitted <= HORIZON / 300.0 + 2


class TestBreakerInTheLoop:
    def test_fault_storm_trips_breaker(self):
        config = BASE.with_(
            replicas=2,
            faults=FaultConfig(
                media_error_rate=0.5,
                retry=RetryPolicy(max_attempts=6, base_backoff_s=1.0),
            ),
            qos=QoSConfig(storm_fault_threshold=3),
        )
        report = run(config).report
        assert report.breaker_trips > 0

    def test_stall_watchdog_trips_and_sheds(self):
        # A drive down for most of the horizon stalls sweeps while open
        # arrivals keep pressure on; the watchdog must flip to shedding.
        config = BASE.with_(
            queue_length=None,
            mean_interarrival_s=200.0,
            faults=FaultConfig(drive_mtbf_s=5_000.0, drive_mttr_s=20_000.0),
            qos=QoSConfig(watchdog_stall_s=2_000.0),
        )
        report = run(config).report
        assert report.breaker_trips > 0
        assert report.shed_by_reason.get("degraded", 0) > 0

    def test_breaker_closes_after_recovery(self):
        from repro.qos import CircuitBreaker

        breaker = CircuitBreaker(QoSConfig(watchdog_stall_s=10.0))
        breaker.evaluate(20.0, pending_len=4)
        assert breaker.is_open
        breaker.note_progress(30.0, pending_len=0)
        assert not breaker.is_open
