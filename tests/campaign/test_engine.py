"""Tests for the campaign engine: dedup, parallelism, isolation, resume."""

import multiprocessing
import os

import pytest

from repro.api import run
from repro.campaign import Campaign, CampaignPointError, PointFailure
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig
from repro.rng import derive_seed

BASE = ExperimentConfig(
    queue_length=5, horizon_s=5_000.0, tape_count=4, capacity_mb=500.0
)

FAULTED = BASE.with_(
    replicas=2,
    faults=FaultConfig(media_error_rate=0.05, bad_replica_rate=0.02),
)


def _grid(count: int = 4):
    return [BASE.with_(queue_length=5 * (index + 1)) for index in range(count)]


def _failing_runner(config):
    """Module-level (hence picklable) runner that fails one point."""
    if config.queue_length == 10:
        raise RuntimeError("synthetic point failure")
    return run(config)


def _hard_crash_runner(config):
    """Dies without a traceback in workers; raises when run in-process."""
    if multiprocessing.parent_process() is not None:
        os._exit(13)
    raise RuntimeError("crashed hard in a worker")


class TestSubmitBasics:
    def test_dedup_preserves_order(self):
        configs = _grid(3)
        submission = Campaign().submit(configs + [configs[0], configs[2]])
        assert submission.stats.submitted == 5
        assert submission.stats.unique == 3
        assert submission.configs == tuple(configs)
        assert len(submission.results) == 3

    def test_require_unknown_config_raises_keyerror(self):
        submission = Campaign().submit(_grid(1))
        with pytest.raises(KeyError):
            submission.require(BASE.with_(seed=777))

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            Campaign(jobs=0)

    def test_result_iteration_matches_results(self):
        submission = Campaign().submit(_grid(2))
        assert tuple(submission) == submission.results


class TestParallelBitIdentical:
    def test_parallel_equals_serial(self):
        configs = _grid(4)
        serial = Campaign(jobs=1).submit(configs)
        parallel = Campaign(jobs=4).submit(configs)
        for config in configs:
            assert serial.require(config).report == parallel.require(config).report

    def test_parallel_equals_serial_with_faults(self):
        configs = [FAULTED, FAULTED.with_(seed=7), FAULTED.with_(seed=8)]
        serial = Campaign(jobs=1).submit(configs)
        parallel = Campaign(jobs=3).submit(configs)
        for config in configs:
            serial_report = serial.require(config).report
            parallel_report = parallel.require(config).report
            assert serial_report == parallel_report
            assert serial_report.fault_counts == parallel_report.fault_counts


class TestFailureIsolation:
    def test_failed_point_becomes_error_record(self):
        configs = _grid(3)  # queue 10 fails under _failing_runner
        submission = Campaign(runner=_failing_runner).submit(configs)
        assert submission.stats.failures == 1
        assert len(submission.results) == 2
        failure = submission.failure_for(configs[1])
        assert isinstance(failure, PointFailure)
        assert failure.error == "RuntimeError"
        assert "synthetic point failure" in failure.message
        with pytest.raises(CampaignPointError, match="RuntimeError"):
            submission.require(configs[1])

    def test_worker_exception_does_not_kill_parallel_batch(self):
        configs = _grid(4)
        submission = Campaign(jobs=2, runner=_failing_runner).submit(configs)
        assert submission.stats.failures == 1
        assert len(submission.results) == 3
        serial = Campaign().submit([configs[0]])
        assert (
            submission.require(configs[0]).report
            == serial.require(configs[0]).report
        )

    def test_hard_worker_crash_degrades_to_error_records(self):
        # os._exit in a worker must never surface as a raised exception
        # at the caller: the supervisor retries each point (worker death
        # is transient) and, once attempts are exhausted, reports a
        # WorkerCrashError failure record per point.
        configs = _grid(3)
        campaign = Campaign(
            jobs=2,
            runner=_hard_crash_runner,
            max_attempts=2,
            backoff_base_s=0.01,
        )
        submission = campaign.submit(configs)
        assert len(submission.configs) == 3
        assert submission.stats.failures == 3
        assert all(
            failure.error == "WorkerCrashError"
            for failure in submission.failures
        )
        assert all(
            failure.attempts == 2 for failure in submission.failures
        )
        assert submission.stats.retried == 3
        assert campaign.metrics.count("campaign.workers.died") >= 3


class TestCacheIntegration:
    def test_second_submission_is_all_hits(self, tmp_path):
        configs = _grid(3)
        first = Campaign(cache_dir=tmp_path).submit(configs)
        assert first.stats.cache_hits == 0 and first.stats.executed == 3
        second = Campaign(cache_dir=tmp_path).submit(configs)
        assert second.stats.cache_hits == 3 and second.stats.executed == 0
        for config in configs:
            assert first.require(config).report == second.require(config).report

    def test_interrupted_campaign_resumes_from_cached_points(self, tmp_path):
        configs = _grid(4)
        Campaign(cache_dir=tmp_path).submit(configs[:2])  # "interrupted" half
        resumed = Campaign(cache_dir=tmp_path).submit(configs)
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.executed == 2

    def test_cached_hits_equal_fresh_runs(self, tmp_path):
        config = _grid(1)[0]
        Campaign(cache_dir=tmp_path).submit([config])
        cached = Campaign(cache_dir=tmp_path).submit([config]).require(config)
        fresh = Campaign().submit([config]).require(config)
        assert cached.report == fresh.report

    def test_failures_are_not_cached(self, tmp_path):
        configs = _grid(2)
        broken = Campaign(cache_dir=tmp_path, runner=_failing_runner).submit(configs)
        assert broken.stats.failures == 1
        healed = Campaign(cache_dir=tmp_path).submit(configs)
        assert healed.stats.failures == 0
        assert healed.stats.cache_hits == 1  # only the successful point


class TestProgress:
    def test_events_cover_every_point(self, tmp_path):
        configs = _grid(3)
        Campaign(cache_dir=tmp_path).submit(configs[:1])
        events = []
        campaign = Campaign(cache_dir=tmp_path, progress=events.append)
        campaign.submit(configs)
        assert len(events) == 3
        assert [event.completed for event in events] == [1, 2, 3]
        assert all(event.total == 3 for event in events)
        kinds = sorted(event.kind for event in events)
        assert kinds == ["done", "done", "hit"]

    def test_error_events(self):
        events = []
        Campaign(runner=_failing_runner, progress=events.append).submit(_grid(2))
        assert sorted(event.kind for event in events) == ["done", "error"]


class TestSeedDerivation:
    def test_derive_variants_is_deterministic(self):
        first = Campaign.derive_variants(BASE, 3)
        second = Campaign.derive_variants(BASE, 3)
        assert first == second
        assert len({variant.seed for variant in first}) == 3

    def test_derivation_matches_replication_stream(self):
        # replicate() historically used derive_seed(seed, "replication:i");
        # the campaign derivation must stay bit-compatible with it.
        variants = Campaign.derive_variants(BASE, 2)
        for index, variant in enumerate(variants):
            assert variant.seed == derive_seed(BASE.seed, f"replication:{index}") % (
                2**31
            )

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            Campaign.derive_variants(BASE, 0)


class TestShimEquivalence:
    def test_queue_sweep_matches_direct_submission(self, tmp_path):
        from repro.experiments import queue_sweep
        from repro.experiments.sweeps import CurvePoint, queue_sweep_configs

        campaign = Campaign(jobs=2, cache_dir=tmp_path)
        points = queue_sweep(BASE, (5, 10), campaign=campaign)
        configs = queue_sweep_configs(BASE, (5, 10))
        submission = Campaign(cache_dir=tmp_path).submit(configs)
        assert points == [
            CurvePoint.from_result(submission.require(config)) for config in configs
        ]

    def test_replicate_matches_legacy_seeds(self):
        from repro.experiments import replicate

        serial = replicate(BASE, replications=2)
        parallel = replicate(BASE, replications=2, campaign=Campaign(jobs=2))
        assert serial.throughput_kb_s.values == parallel.throughput_kb_s.values
        assert serial.mean_response_s.values == parallel.mean_response_s.values
