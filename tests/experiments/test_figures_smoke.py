"""Structural smoke tests for every figure generator (tiny horizons).

The benchmarks assert the paper's quantitative shapes at realistic
horizons; these tests assert structure — labels, series lengths, units
— so a refactor that breaks a generator fails fast in the unit suite.
"""

import re

import pytest

from repro.experiments.figures import (
    FIGURE4_ALGORITHMS,
    FIGURE8_ALGORITHMS,
    FIGURES,
    figure4,
    figure5,
    figure7,
    figure8,
    figure9,
    figure10b,
)

TINY = 5_000.0
ONE_QUEUE = (10,)


class TestFigure4:
    def test_series_per_algorithm(self):
        data = figure4(horizon_s=TINY, algorithms=("fifo", "dynamic-max-bandwidth"),
                       queue_lengths=ONE_QUEUE)
        assert data.labels() == ["fifo", "dynamic-max-bandwidth"]
        for points in data.series.values():
            assert len(points) == 1
            assert points[0].intensity == 10

    def test_default_algorithm_list_is_nine(self):
        assert len(FIGURE4_ALGORITHMS) == 9
        assert "fifo" in FIGURE4_ALGORITHMS


class TestFigure5:
    def test_includes_vertical_series(self):
        data = figure5(horizon_s=TINY, start_positions=(0.0,), queue_lengths=ONE_QUEUE)
        assert data.labels() == ["SP-0", "vertical"]

    def test_annotation_mentions_parameters(self):
        data = figure5(horizon_s=TINY, start_positions=(0.0,), queue_lengths=ONE_QUEUE)
        assert "PH-10" in data.annotation
        assert "NR-0" in data.annotation


class TestFigure7:
    def test_replica_placement_labels(self):
        data = figure7(horizon_s=TINY, start_positions=(0.0, 1.0), queue_lengths=ONE_QUEUE)
        assert data.labels() == ["SP-0", "SP-1"]
        assert "NR-9" in data.annotation


class TestFigure8:
    def test_envelope_variants_present(self):
        assert sum(name.startswith("envelope-") for name in FIGURE8_ALGORITHMS) == 3

    def test_runs_with_subset(self):
        data = figure8(
            horizon_s=TINY,
            algorithms=("dynamic-max-bandwidth", "envelope-max-bandwidth"),
            queue_lengths=ONE_QUEUE,
        )
        assert set(data.labels()) == {
            "dynamic-max-bandwidth",
            "envelope-max-bandwidth",
        }


class TestFigure9:
    def test_pairs_of_series_per_skew(self):
        data = figure9(horizon_s=TINY, skews=(40.0,), queue_lengths=ONE_QUEUE)
        assert data.labels() == ["RH-40 NR-0", "RH-40 NR-9"]


class TestFigure10b:
    def test_anchored_curves(self):
        data = figure10b(
            horizon_s=TINY, skews=(40.0,), replica_counts=(0, 9), base_queue_length=20
        )
        curve = dict(data.series["RH-40"])
        assert curve[0] == 1.0
        assert 9 in curve


class TestRegistry:
    def test_every_figure_is_registered(self):
        assert set(FIGURES) == {
            "3", "4", "5", "6", "7", "8", "9", "10a", "10b", "gap",
        }


class TestCliFlagsSmoke:
    def test_trace_flag(self, capsys):
        from repro.cli import main

        argv = ["run", "--queue", "5", "--horizon", "4000"]
        assert main(argv) == 0
        untraced = capsys.readouterr().out.splitlines()
        assert main(argv + ["--trace", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The report is the untraced run's, then exactly three span
        # lines, then the count of spans past the cap.
        assert lines[: len(untraced)] == untraced
        spans, more = lines[len(untraced) : -1], lines[-1]
        assert len(spans) == 3
        span_line = re.compile(r" *\d+\.\d\ds  drive 0  (switch|read) ")
        assert all(span_line.match(span) for span in spans)
        assert re.fullmatch(r"\.\.\. [1-9]\d* more", more)

    def test_negative_trace_is_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--queue", "5", "--horizon", "4000", "--trace", "-1"])
        assert exit_info.value.code == 2
        assert "--trace: must be >= 0" in capsys.readouterr().err

    def test_plot_flag(self, capsys):
        from repro.cli import main

        assert main(["figure", "10a", "--plot"]) == 0
        assert "legend" in capsys.readouterr().out
