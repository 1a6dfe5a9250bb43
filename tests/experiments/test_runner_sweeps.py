"""Tests for the experiment runner, sweeps, and figure generators."""

import pytest

from repro.api import run
from repro.experiments import (
    CurvePoint,
    ExperimentConfig,
    build_simulator,
    queue_sweep,
)
from repro.experiments.figures import figure3, figure6, figure10a
from repro.layout import Layout
from repro.report.text import format_figure, format_table

FAST = dict(horizon_s=15_000.0)


class TestRunner:
    def test_run_produces_metrics(self):
        result = run(ExperimentConfig(**FAST))
        assert result.throughput_kb_s > 0
        assert result.mean_response_s > 0
        assert result.requests_per_min > 0
        assert result.config.scheduler == "dynamic-max-bandwidth"

    def test_same_config_is_reproducible(self):
        config = ExperimentConfig(**FAST)
        first = run(config)
        second = run(config)
        assert first.throughput_kb_s == second.throughput_kb_s

    def test_build_simulator_validates_layout(self):
        simulator = build_simulator(ExperimentConfig(replicas=9, **FAST))
        assert simulator.catalog.n_hot > 0

    def test_drive_speedup_improves_throughput(self):
        slow = run(ExperimentConfig(**FAST))
        fast = run(ExperimentConfig(drive_speedup=2.0, **FAST))
        assert fast.throughput_kb_s > slow.throughput_kb_s

    def test_open_model_runs(self):
        result = run(
            ExperimentConfig(queue_length=None, mean_interarrival_s=200.0, **FAST)
        )
        assert result.report.total_completed > 0


class TestSweeps:
    def test_queue_sweep_traces_curve(self):
        points = queue_sweep(ExperimentConfig(**FAST), queue_lengths=(10, 40))
        assert len(points) == 2
        assert all(isinstance(point, CurvePoint) for point in points)
        assert points[0].intensity == 10
        assert points[1].intensity == 40

    def test_longer_queue_higher_throughput_and_delay(self):
        """The closed model's defining parametric shape."""
        points = queue_sweep(
            ExperimentConfig(horizon_s=60_000.0), queue_lengths=(10, 100)
        )
        assert points[1].throughput_kb_s > points[0].throughput_kb_s
        assert points[1].mean_response_s > points[0].mean_response_s


class TestFigures:
    def test_figure3_shape(self):
        data = figure3(horizon_s=8_000.0, block_sizes_mb=(8, 16), queue_lengths=(20,))
        assert data.figure == "3"
        assert list(data.series) == ["Q-20"]
        sizes = [size for size, _throughput in data.series["Q-20"]]
        assert sizes == [8, 16]

    def test_figure6_labels(self):
        data = figure6(horizon_s=8_000.0, replica_counts=(0, 9), queue_lengths=(20,))
        assert list(data.series) == ["NR-0", "NR-9"]

    def test_figure10a_analytic(self):
        data = figure10a(replica_counts=(0, 9), percent_hot_values=(10.0,))
        assert data.series["PH-10"] == [(0, 1.0), (9, pytest.approx(1.9))]


class TestReportRendering:
    def test_format_table_aligns(self):
        table = format_table(("a", "bb"), [(1, 2.5), (30, 4.0)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_format_figure_renders_parametric_and_xy(self):
        data = figure10a(replica_counts=(0, 1), percent_hot_values=(10.0,))
        text = format_figure(data)
        assert "Figure 10a" in text
        assert "PH-10" in text

    def test_format_figure_with_curvepoints(self):
        data = figure6(horizon_s=6_000.0, replica_counts=(0,), queue_lengths=(10,))
        text = format_figure(data)
        assert "queue" in text
        assert "KB/s" in text


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "envelope-max-bandwidth" in output
        assert "fifo" in output

    def test_run_command(self, capsys):
        from repro.cli import main

        assert main(["run", "--queue", "10", "--horizon", "8000"]) == 0
        output = capsys.readouterr().out
        assert "PH-10" in output
        assert "KB/s" in output

    def test_figure_10a_command(self, capsys):
        from repro.cli import main

        assert main(["figure", "10a"]) == 0
        assert "Expansion" in capsys.readouterr().out
