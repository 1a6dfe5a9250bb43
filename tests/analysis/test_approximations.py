"""Tests for the closed-form sweep/throughput approximations."""

import random

import pytest

from repro.analysis.approximations import (
    estimate_closed_throughput,
    estimate_sweep,
    expected_max_position,
    requests_for_target_throughput,
)
from repro.core import sweep_cost
from repro.tape import EXB_8505XL

#: The end-to-end runs here go through ``repro.api.run``; a deprecated
#: shim sneaking back in fails them.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

CAPACITY = 7 * 1024.0
BLOCK = 16.0


class TestExpectedMax:
    def test_zero_blocks(self):
        assert expected_max_position(0, 1000.0) == 0.0

    def test_one_block_halfway(self):
        assert expected_max_position(1, 1000.0) == pytest.approx(500.0)

    def test_many_blocks_approach_extent(self):
        assert expected_max_position(99, 1000.0) == pytest.approx(990.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            expected_max_position(-1, 100.0)


class TestEstimateSweep:
    def test_zero_blocks_only_switch(self):
        estimate = estimate_sweep(EXB_8505XL, 0, CAPACITY, BLOCK)
        assert estimate.service_s == 0.0
        assert estimate.cycle_s == pytest.approx(81.0)
        assert estimate.throughput_bytes_s == 0.0

    def test_matches_monte_carlo_sweeps(self):
        """Expected sweep cost within ~10% of averaged exact sweeps."""
        rng = random.Random(4)
        for k in (3, 10, 30):
            estimate = estimate_sweep(EXB_8505XL, k, CAPACITY, BLOCK)
            trials = []
            for _ in range(300):
                slots = rng.sample(range(int((CAPACITY - BLOCK) // BLOCK)), k)
                positions = [slot * BLOCK for slot in slots]
                cost = sweep_cost(EXB_8505XL, 0.0, positions, BLOCK)
                trials.append(
                    cost.total_s + EXB_8505XL.rewind(cost.end_head_mb) + 81.0
                )
            mean = sum(trials) / len(trials)
            assert estimate.cycle_s == pytest.approx(mean, rel=0.10), k

    def test_throughput_increases_with_batch(self):
        small = estimate_sweep(EXB_8505XL, 2, CAPACITY, BLOCK)
        large = estimate_sweep(EXB_8505XL, 20, CAPACITY, BLOCK)
        assert large.throughput_bytes_s > small.throughput_bytes_s
        assert large.seconds_per_request < small.seconds_per_request

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            estimate_sweep(EXB_8505XL, -1, CAPACITY, BLOCK)


class TestClosedThroughput:
    def test_matches_simulation_roughly(self):
        """Analytic prediction within ~20% of a real simulation under
        near-uniform access (RH = PH = 10)."""
        from repro.api import run
        from repro.experiments import ExperimentConfig

        predicted = estimate_closed_throughput(EXB_8505XL, 60, 10, CAPACITY, BLOCK)
        simulated = run(
            ExperimentConfig(
                scheduler="static-round-robin",
                percent_requests_hot=10.0,
                queue_length=60,
                horizon_s=150_000,
            )
        ).throughput_kb_s
        assert predicted == pytest.approx(simulated, rel=0.20)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_closed_throughput(EXB_8505XL, 0, 10, CAPACITY, BLOCK)


class TestTargetInversion:
    def test_round_trip(self):
        k = requests_for_target_throughput(EXB_8505XL, 200.0, CAPACITY, BLOCK)
        below = estimate_sweep(EXB_8505XL, k - 1, CAPACITY, BLOCK)
        at = estimate_sweep(EXB_8505XL, k, CAPACITY, BLOCK)
        assert at.throughput_bytes_s / 1024.0 >= 200.0
        assert below.throughput_bytes_s / 1024.0 < 200.0

    def test_unreachable_target(self):
        asymptotic_kb_s = 1024.0 / EXB_8505XL.read_s_per_mb
        with pytest.raises(ValueError):
            requests_for_target_throughput(
                EXB_8505XL, asymptotic_kb_s * 2, CAPACITY, BLOCK, max_k=400
            )

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            requests_for_target_throughput(EXB_8505XL, 0.0, CAPACITY, BLOCK)
