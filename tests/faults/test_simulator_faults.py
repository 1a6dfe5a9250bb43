"""Simulator-level fault recovery: retries, failover, degraded service."""

import dataclasses
import random

import pytest

from repro.api import run
from repro.core import make_scheduler
from repro.des import Environment
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, FaultInjector, RetryPolicy
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.obs import Tracer
from repro.service import JukeboxSimulator, MetricsCollector
from repro.tape import Jukebox
from repro.workload import ClosedSource, HotColdSkew

#: These tests run through ``repro.api.run``; a deprecated shim sneaking
#: back in fails them.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

HORIZON = 30_000.0


def make_simulator(
    fault_config=None,
    scheduler_name="dynamic-max-bandwidth",
    replicas=0,
    tape_count=4,
    queue_length=12,
    seed=1,
    obs=None,
):
    spec = PlacementSpec(
        percent_hot=10, replicas=replicas, block_mb=16.0,
        layout=Layout.VERTICAL if replicas else Layout.HORIZONTAL,
    )
    catalog = build_catalog(spec, tape_count, 1000.0)
    faults = (
        FaultInjector(fault_config, catalog) if fault_config is not None else None
    )
    return JukeboxSimulator(
        env=Environment(),
        jukebox=Jukebox.build(tape_count=tape_count, capacity_mb=1000.0),
        catalog=catalog,
        scheduler=make_scheduler(scheduler_name),
        source=ClosedSource(
            queue_length, HotColdSkew(80.0), catalog, random.Random(seed)
        ),
        metrics=MetricsCollector(block_mb=16.0, warmup_s=0.0),
        faults=faults,
        obs=obs,
    )


class TestTransientRecovery:
    def test_media_errors_are_retried_and_absorbed(self):
        tracer = Tracer()
        report = make_simulator(
            FaultConfig(
                media_error_rate=0.1,
                retry=RetryPolicy(max_attempts=10, base_backoff_s=1.0),
            ),
            obs=tracer,
        ).run(HORIZON)
        assert report.retries > 0
        assert report.fault_counts["media-error"] > 0
        # A generous retry budget absorbs every transient fault.
        assert report.failed_requests == 0
        assert report.served_fraction == 1.0
        kinds = {span.kind for span in tracer.drive_spans}
        assert "fault" in kinds
        assert "backoff" in kinds

    def test_retries_cost_simulated_time(self):
        clean = make_simulator(None).run(HORIZON)
        faulted = make_simulator(
            FaultConfig(media_error_rate=0.2, retry=RetryPolicy(max_attempts=8))
        ).run(HORIZON)
        assert faulted.mean_response_s > clean.mean_response_s


class TestReplicaFailover:
    def test_failover_serves_from_surviving_copy(self):
        report = make_simulator(
            FaultConfig(bad_replica_rate=0.05, seed=13), replicas=2
        ).run(HORIZON)
        assert report.fault_counts.get("bad-block", 0) > 0
        assert report.failovers > 0
        # Hot blocks carry 3 copies here; the workload is hot-heavy, so
        # nearly everything fails over successfully.
        assert report.served_fraction > 0.95

    def test_unreplicated_bad_block_fails_requests(self):
        report = make_simulator(
            FaultConfig(bad_replica_rate=0.05, seed=13), replicas=0
        ).run(HORIZON)
        assert report.fault_counts.get("bad-block", 0) > 0
        assert report.failed_requests > 0
        assert report.served_fraction < 1.0
        assert report.failovers == 0  # nowhere to fail over to

    def test_condemned_copy_is_not_replanned(self):
        """Each bad copy is discovered at most once, then masked."""
        simulator = make_simulator(
            FaultConfig(bad_replica_rate=0.05, seed=13), replicas=2
        )
        report = simulator.run(HORIZON)
        discovered = len(simulator.faults.known_bad)
        assert report.fault_counts["bad-block"] == discovered

    def test_every_scheduler_family_survives_faults(self):
        config = FaultConfig(
            media_error_rate=0.05, bad_replica_rate=0.03,
            robot_pick_error_rate=0.02, seed=13,
        )
        for name in (
            "fifo",
            "static-max-requests",
            "dynamic-max-bandwidth",
            "envelope-max-requests",
        ):
            report = make_simulator(
                config, scheduler_name=name, replicas=2
            ).run(HORIZON)
            assert report.completed > 0, name


class TestDriveFailures:
    def test_drive_failure_pauses_service_and_recovers(self):
        tracer = Tracer()
        report = make_simulator(
            FaultConfig(drive_mtbf_s=5_000.0, drive_mttr_s=500.0, seed=3),
            obs=tracer,
        ).run(HORIZON)
        assert report.drive_failures > 0
        assert report.mean_repair_s > 0
        assert any(span.kind == "repair" for span in tracer.drive_spans)
        # Service continues after repairs.
        assert report.completed > 0

    def test_stuck_cartridge_takes_tape_out_of_service(self):
        simulator = make_simulator(
            FaultConfig(
                robot_pick_error_rate=0.9,
                seed=3,
                retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
            ),
            replicas=2,
        )
        report = simulator.run(HORIZON)
        assert simulator.faults.failed_tapes
        assert report.fault_counts["robot-pick"] > 0
        # The masked catalog steered later sweeps around the dead tapes.
        for tape_id in simulator.faults.failed_tapes:
            assert not simulator.catalog.has_replica_on(0, tape_id)


class TestNothingLeftToRead:
    """Closed loops keep replacing failed requests, so a request with no
    live copy can reach a scheduler, and once every copy is gone every
    replacement is lost too."""

    LOSSY = ExperimentConfig(
        tape_count=6,
        capacity_mb=2000.0,
        horizon_s=12_000.0,
        faults=FaultConfig(robot_pick_error_rate=0.3, seed=0),
    )

    @pytest.mark.parametrize("drive_count", [1, 2])
    def test_run_reaches_its_horizon_after_every_tape_failed(self, drive_count):
        config = self.LOSSY.with_(
            scheduler="static-oldest-max-bandwidth",
            drive_count=drive_count,
            replicas=1,
            layout=Layout.VERTICAL,
            queue_length=8,
            seed=98,
            faults=FaultConfig(
                robot_pick_error_rate=0.3,
                media_error_rate=0.05,
                seed=0,
                retry=RetryPolicy(max_attempts=1),
            ),
        )
        report = run(config).report
        assert report.failed_requests > 0
        assert report.measured_s == pytest.approx(
            config.horizon_s * (1 - config.warmup_fraction)
        )

    def test_envelope_leaves_lost_requests_to_the_loop(self):
        report = run(
            self.LOSSY.with_(
                scheduler="envelope-max-bandwidth", queue_length=20, seed=0
            )
        ).report
        assert report.failed_requests > 0

    def test_fifo_skips_an_oldest_request_with_no_copy(self):
        report = run(
            self.LOSSY.with_(
                scheduler="fifo",
                queue_length=1,
                seed=2,
                faults=FaultConfig(bad_replica_rate=0.5, seed=2),
            )
        ).report
        assert report.failed_requests > 0


class TestPayForWhatYouUse:
    def test_disabled_faults_bit_identical_via_runner(self):
        base = ExperimentConfig(
            scheduler="dynamic-max-bandwidth", tape_count=4, capacity_mb=1000.0,
            horizon_s=HORIZON, queue_length=12, seed=5, warmup_fraction=0.0,
        )
        clean = run(base).report
        inert = run(base.with_(faults=FaultConfig())).report
        assert dataclasses.asdict(clean) == dataclasses.asdict(inert)

    def test_no_injector_means_no_fault_state(self):
        simulator = make_simulator(None)
        assert simulator.faults is None
        report = simulator.run(HORIZON)
        assert report.fault_counts == {}
        assert report.retries == 0
        assert report.served_fraction == 1.0
