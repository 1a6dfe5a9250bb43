"""Determinism: one seed pins the whole faulted, noisy simulation."""

import random

from repro.core import make_scheduler
from repro.des import Environment
from repro.faults import FaultConfig, FaultInjector
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.obs import Tracer
from repro.service import JukeboxSimulator, MetricsCollector
from repro.tape import EXB_8505XL, Jukebox, NoisyTimingModel, RobotArm, TapeDrive, TapePool

HORIZON = 20_000.0


def run_noisy_faulted(workload_seed, noise_seed, fault_seed, traced=True):
    """One run combining noisy timing with fault injection; returns the
    report and the drive spans (``None`` when ``traced`` is false)."""
    spec = PlacementSpec(
        layout=Layout.VERTICAL, percent_hot=10, replicas=2, block_mb=16.0
    )
    catalog = build_catalog(spec, 4, 1000.0)
    timing = NoisyTimingModel(
        EXB_8505XL,
        random.Random(noise_seed),
        locate_amplitude=0.02,
        read_amplitude=0.10,
    )
    jukebox = Jukebox(
        pool=TapePool.uniform(4, 1000.0),
        drive=TapeDrive(timing=timing),
        robot=RobotArm(timing=timing, slot_count=4),
    )
    faults = FaultInjector(
        FaultConfig(
            media_error_rate=0.05,
            bad_replica_rate=0.03,
            robot_pick_error_rate=0.05,
            drive_mtbf_s=8_000.0,
            drive_mttr_s=500.0,
            seed=fault_seed,
        ),
        catalog,
    )
    tracer = Tracer() if traced else None
    from repro.workload import ClosedSource, HotColdSkew

    simulator = JukeboxSimulator(
        env=Environment(),
        jukebox=jukebox,
        catalog=catalog,
        scheduler=make_scheduler("dynamic-max-bandwidth"),
        source=ClosedSource(
            12, HotColdSkew(80.0), catalog, random.Random(workload_seed)
        ),
        metrics=MetricsCollector(block_mb=16.0, warmup_s=0.0),
        faults=faults,
        obs=tracer,
    )
    report = simulator.run(HORIZON)
    return report, tracer.drive_spans if traced else None


class TestDeterministicSeeding:
    def test_same_seeds_identical_operation_log(self):
        first_report, first_log = run_noisy_faulted(1, 2, 3)
        second_report, second_log = run_noisy_faulted(1, 2, 3)
        assert first_log == second_log
        assert first_report == second_report
        # The run actually exercised the fault machinery.
        assert first_report.fault_counts

    def test_tracer_leaves_noisy_run_unchanged(self):
        """Splitting a traced access into locate and read must not draw
        another jitter from the noisy timing model's stream."""
        traced, _ = run_noisy_faulted(1, 2, 3)
        untraced, _ = run_noisy_faulted(1, 2, 3, traced=False)
        assert traced == untraced

    def test_fault_seed_changes_fault_pattern_only_at_source(self):
        _, base_log = run_noisy_faulted(1, 2, 3)
        _, other_log = run_noisy_faulted(1, 2, 4)
        assert base_log != other_log

    def test_noise_seed_changes_timings(self):
        _, base_log = run_noisy_faulted(1, 2, 3)
        _, other_log = run_noisy_faulted(1, 5, 3)
        assert base_log != other_log
