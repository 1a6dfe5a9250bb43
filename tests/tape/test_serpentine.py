"""Tests for the serpentine (DLT-style) timing model extension."""

import pytest

from repro.tape import DLT_STYLE, Jukebox, SerpentineTimingModel, Tape, TapeDrive

#: The end-to-end runs here go through ``repro.api.run``; a deprecated
#: shim sneaking back in fails them.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")


class TestGeometry:
    def test_capacity(self):
        assert DLT_STYLE.capacity_mb == pytest.approx(64 * 112.0)

    def test_wrap_of(self):
        assert DLT_STYLE.wrap_of(0.0) == 0
        assert DLT_STYLE.wrap_of(111.9) == 0
        assert DLT_STYLE.wrap_of(112.0) == 1
        # Positions at the very end clamp into the last wrap.
        assert DLT_STYLE.wrap_of(DLT_STYLE.capacity_mb) == 63

    def test_longitudinal_is_boustrophedon(self):
        # Even wrap: x grows with offset.
        assert DLT_STYLE.longitudinal(10.0) == pytest.approx(10.0)
        # Odd wrap: x runs backwards.
        assert DLT_STYLE.longitudinal(112.0 + 10.0) == pytest.approx(112.0 - 10.0)
        # End of wrap 0 and start of wrap 1 are physically adjacent.
        assert DLT_STYLE.longitudinal(111.99) == pytest.approx(
            DLT_STYLE.longitudinal(112.01), abs=0.05
        )

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            DLT_STYLE.wrap_of(-1.0)


class TestExactLocate:
    def test_same_position_free(self):
        assert DLT_STYLE.locate(100.0, 100.0) == 0.0

    def test_adjacent_wraps_cost_is_tiny(self):
        """The serpentine killer feature: logically distant blocks can be
        physically adjacent.  Locating across 112 MB (one full wrap)
        costs almost nothing."""
        cost = DLT_STYLE.locate(111.0, 113.0)
        assert cost < DLT_STYLE.locate_startup_s + 2.0

    def test_long_logical_distance_bounded_by_wrap_length(self):
        """Even a 6 GB logical jump costs at most a full longitudinal
        pass — orders cheaper than the helical model."""
        from repro.tape import EXB_8505XL

        serpentine = DLT_STYLE.locate(0.0, 6000.0)
        helical = EXB_8505XL.locate(0.0, 6000.0)
        upper = (
            DLT_STYLE.locate_startup_s
            + DLT_STYLE.longitudinal_s_per_mb * DLT_STYLE.wrap_mb
            + DLT_STYLE.wrap_step_s
        )
        assert serpentine <= upper + 1e-9
        assert serpentine < helical / 10

    def test_rewind_is_free(self):
        assert DLT_STYLE.rewind(5000.0) == 0.0
        with pytest.raises(ValueError):
            DLT_STYLE.rewind(-1.0)

    def test_switch_has_no_rewind_component(self):
        assert DLT_STYLE.switch_with_rewind(5000.0) == DLT_STYLE.switch()
        assert DLT_STYLE.switch() == pytest.approx(81.0)


class TestHeuristicCosts:
    def test_zero_distance_free(self):
        assert DLT_STYLE.locate_forward(0.0) == 0.0

    def test_expectation_saturates_at_wrap_scale(self):
        near = DLT_STYLE.locate_forward(5.0)
        far = DLT_STYLE.locate_forward(5000.0)
        very_far = DLT_STYLE.locate_forward(6500.0)
        assert near < far
        assert far == pytest.approx(very_far, rel=0.05)

    def test_reverse_symmetric_no_bot_overhead(self):
        assert DLT_STYLE.locate_reverse(500.0) == DLT_STYLE.locate_forward(500.0)
        assert DLT_STYLE.locate_reverse(500.0, lands_on_bot=True) == (
            DLT_STYLE.locate_reverse(500.0)
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DLT_STYLE.locate_forward(-1.0)

    def test_scaled(self):
        fast = DLT_STYLE.scaled(2.0)
        assert fast.locate(0.0, 50.0) == pytest.approx(DLT_STYLE.locate(0.0, 50.0) / 2)
        assert fast.switch() == pytest.approx(DLT_STYLE.switch() / 2)
        with pytest.raises(ValueError):
            DLT_STYLE.scaled(0)


class TestDriveIntegration:
    def test_drive_runs_on_serpentine_timing(self):
        drive = TapeDrive(timing=DLT_STYLE)
        drive.load(Tape(0, capacity_mb=DLT_STYLE.capacity_mb))
        drive.locate(300.0)
        assert drive.read(16.0) > 0
        assert drive.rewind() == 0.0  # free
        drive.eject()

    def test_jukebox_switch_cheap(self):
        jukebox = Jukebox.build(
            capacity_mb=DLT_STYLE.capacity_mb, timing=DLT_STYLE
        )
        jukebox.switch_to(0)
        jukebox.access(5000.0, 16.0)
        # No rewind: a switch costs exactly eject + swap + load.
        assert jukebox.switch_to(1) == pytest.approx(81.0)


class TestEndToEnd:
    def test_experiment_runs_with_serpentine(self):
        from repro.api import run
        from repro.experiments import ExperimentConfig

        result = run(
            ExperimentConfig(
                drive_technology="serpentine",
                queue_length=20,
                horizon_s=20_000.0,
            )
        )
        assert result.report.total_completed > 0

    def test_serpentine_beats_helical_on_random_reads(self):
        """Cheap positioning and free rewinds should dominate."""
        from repro.api import run
        from repro.experiments import ExperimentConfig

        helical = run(
            ExperimentConfig(queue_length=60, horizon_s=40_000.0)
        )
        serpentine = run(
            ExperimentConfig(
                drive_technology="serpentine", queue_length=60, horizon_s=40_000.0
            )
        )
        assert serpentine.throughput_kb_s > 1.3 * helical.throughput_kb_s

    def test_invalid_technology_rejected(self):
        from repro.experiments import ExperimentConfig

        with pytest.raises(ValueError):
            ExperimentConfig(drive_technology="quantum-entangled")
