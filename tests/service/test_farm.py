"""Tests for jukebox farms."""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.service.farm import FarmConfig, FarmReport

FAST = dict(horizon_s=20_000.0)


class TestFarmValidation:
    def test_jukebox_count_positive(self):
        with pytest.raises(ValueError):
            FarmConfig(ExperimentConfig(**FAST), 0, 60)

    def test_queue_covers_farm(self):
        with pytest.raises(ValueError):
            FarmConfig(ExperimentConfig(**FAST), 10, 5)

    def test_open_model_rejected(self):
        config = ExperimentConfig(
            queue_length=None, mean_interarrival_s=100.0, **FAST
        )
        with pytest.raises(ValueError, match="closed"):
            FarmConfig(config, 2, 60)


class TestFarmBehaviour:
    def test_single_jukebox_farm_equals_plain_run_shape(self):
        farm = run(FarmConfig(ExperimentConfig(**FAST), 1, 60)).report
        assert farm.size == 1
        assert farm.aggregate_throughput_kb_s == farm.throughput_per_jukebox_kb_s
        assert farm.per_jukebox[0].mean_queue_length == pytest.approx(60.0, abs=1e-6)

    def test_queue_split_with_remainder(self):
        farm = run(FarmConfig(ExperimentConfig(**FAST), 3, 61)).report
        queues = sorted(
            round(report.mean_queue_length) for report in farm.per_jukebox
        )
        assert queues == [20, 20, 21]

    def test_aggregate_scales_with_size(self):
        """Two jukeboxes at half the per-box load each outperform one at
        full load in aggregate (each box's queue is smaller, so per-box
        throughput dips, but not by half)."""
        one = run(FarmConfig(ExperimentConfig(**FAST), 1, 60)).report
        two = run(FarmConfig(ExperimentConfig(**FAST), 2, 60)).report
        assert two.aggregate_throughput_kb_s > one.aggregate_throughput_kb_s
        assert two.throughput_per_jukebox_kb_s < one.throughput_per_jukebox_kb_s

    def test_mean_response_weighted(self):
        farm = run(FarmConfig(ExperimentConfig(**FAST), 2, 60)).report
        delays = [report.mean_response_s for report in farm.per_jukebox]
        assert min(delays) <= farm.mean_response_s <= max(delays)

    def test_reproducible_but_streams_differ(self):
        first = run(FarmConfig(ExperimentConfig(**FAST), 2, 60)).report
        second = run(FarmConfig(ExperimentConfig(**FAST), 2, 60)).report
        assert (
            first.aggregate_throughput_kb_s == second.aggregate_throughput_kb_s
        )
        # The two jukeboxes see different request streams.
        reports = first.per_jukebox
        assert reports[0].mean_response_s != reports[1].mean_response_s

    def test_empty_report_mean(self):
        assert FarmReport(per_jukebox=[]).size == 0
        assert FarmReport(per_jukebox=[]).mean_response_s == 0.0
