"""Tests for JSON result persistence and ASCII plotting."""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.experiments.store import (
    FORMAT_VERSION,
    load_results,
    result_from_dict,
    result_to_dict,
    save_results,
)
from repro.report.plot import ascii_scatter, plot_throughput_delay


@pytest.fixture(scope="module")
def result():
    return run(ExperimentConfig(queue_length=10, horizon_s=8_000.0))


class TestResultStore:
    def test_round_trip_dict(self, result):
        payload = result_to_dict(result)
        assert payload["version"] == FORMAT_VERSION
        restored = result_from_dict(payload)
        assert restored.config == result.config
        assert restored.report == result.report

    def test_round_trip_file(self, result, tmp_path):
        path = tmp_path / "results.json"
        save_results([result, result], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].throughput_kb_s == result.throughput_kb_s

    def test_layout_enum_serialized_as_value(self, result):
        payload = result_to_dict(result)
        assert payload["config"]["layout"] == "horizontal"

    def test_version_checked(self, result):
        payload = result_to_dict(result)
        payload["version"] = 999
        with pytest.raises(ValueError, match="version"):
            result_from_dict(payload)

    def test_schema_fingerprint_checked(self, result):
        # A document written under a different dataclass field set must
        # be rejected, not silently loaded with defaults filled in.
        payload = result_to_dict(result)
        payload["schema"] = "feedfacedeadbeef"
        with pytest.raises(ValueError, match="schema"):
            result_from_dict(payload)

    def test_schema_fingerprint_is_stable(self):
        from repro.experiments.store import schema_fingerprint

        assert schema_fingerprint() == schema_fingerprint()
        assert len(schema_fingerprint()) == 16

    def test_non_array_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "an array"}')
        with pytest.raises(ValueError, match="array"):
            load_results(path)

    def test_fault_config_round_trips_through_json(self, tmp_path):
        from repro.faults import FaultConfig, RetryPolicy

        faulted = run(
            ExperimentConfig(
                queue_length=10,
                horizon_s=8_000.0,
                tape_count=4,
                capacity_mb=1000.0,
                replicas=2,
                faults=FaultConfig(
                    media_error_rate=0.05,
                    tape_media_error_rates=((1, 0.2),),
                    bad_replica_rate=0.02,
                    retry=RetryPolicy(max_attempts=2, base_backoff_s=1.0),
                ),
            )
        )
        path = tmp_path / "faulted.json"
        save_results([faulted], path)
        restored = load_results(path)[0]
        # The nested frozen dataclasses (and their tuples) must survive
        # JSON's list/dict flattening.
        assert restored.config == faulted.config
        assert isinstance(restored.config.faults.retry, RetryPolicy)
        assert restored.report == faulted.report
        assert restored.report.fault_counts == faulted.report.fault_counts


class TestAsciiPlot:
    def test_empty(self):
        assert ascii_scatter({}) == "(no data)"
        assert ascii_scatter({"a": []}) == "(no data)"

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            ascii_scatter({"a": [(0, 0)]}, width=4, height=2)

    def test_markers_and_legend(self):
        plot = ascii_scatter(
            {"up": [(0, 0), (1, 1)], "down": [(0, 1), (1, 0)]},
            width=16,
            height=8,
        )
        assert "o=up" in plot
        assert "x=down" in plot
        assert plot.count("o") >= 2  # two plotted points (plus legend)

    def test_corners_map_to_extremes(self):
        plot = ascii_scatter({"s": [(0, 0), (10, 10)]}, width=20, height=10)
        lines = plot.splitlines()
        grid = [line[1:] for line in lines[1:11]]
        assert grid[0].rstrip().endswith("o")  # max y, max x: top right
        assert grid[-1].lstrip("|").startswith("o")  # min y, min x: bottom left

    def test_plot_figure_data(self):
        from repro.experiments.figures import figure10a

        data = figure10a(replica_counts=(0, 3, 6, 9), percent_hot_values=(10.0, 30.0))
        plot = plot_throughput_delay(data)
        assert "legend" in plot
        assert "PH-10" in plot

    def test_plot_curvepoints(self):
        from repro.experiments.figures import figure6

        data = figure6(horizon_s=6_000.0, replica_counts=(0,), queue_lengths=(10, 20))
        plot = plot_throughput_delay(data)
        assert "throughput KB/s" in plot
        assert "mean delay s" in plot

    def test_qos_config_round_trips_through_json(self, tmp_path):
        from repro.qos import QoSConfig

        qos_result = run(
            ExperimentConfig(
                queue_length=10,
                horizon_s=8_000.0,
                tape_count=4,
                capacity_mb=1000.0,
                qos=QoSConfig(
                    deadline_s=1_500.0,
                    admission="bounded-queue",
                    max_pending=8,
                    starvation_age_s=4_000.0,
                    watchdog_stall_s=6_000.0,
                ),
            )
        )
        path = tmp_path / "qos.json"
        save_results([qos_result], path)
        restored = load_results(path)[0]
        assert restored.config == qos_result.config
        assert isinstance(restored.config.qos, QoSConfig)
        assert restored.report == qos_result.report
        # The SLO fields came back through JSON intact.
        assert restored.report.shed_by_reason == qos_result.report.shed_by_reason
