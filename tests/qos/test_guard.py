"""Starvation guard: bounded tails without touching scheduler internals."""

import pytest

from repro.api import run
from repro.core import make_scheduler
from repro.experiments import ExperimentConfig
from repro.qos import QoSConfig, StarvationGuardScheduler

HORIZON = 120_000.0

#: A starvation-prone setup: strong skew concentrates the greedy
#: max-requests policy on hot tapes, deferring cold-tape requests.
BASE = ExperimentConfig(
    scheduler="dynamic-max-requests",
    tape_count=8,
    capacity_mb=1000.0,
    percent_hot=10.0,
    percent_requests_hot=90.0,
    horizon_s=HORIZON,
    queue_length=40,
    seed=11,
    warmup_fraction=0.0,
)


class TestWrapper:
    def test_preserves_inner_name(self):
        inner = make_scheduler("dynamic-max-bandwidth")
        wrapped = StarvationGuardScheduler(
            inner, age_threshold_s=100.0, now_fn=lambda: 0.0
        )
        assert wrapped.name == inner.name

    def test_rejects_non_positive_threshold(self):
        inner = make_scheduler("fifo")
        with pytest.raises(ValueError):
            StarvationGuardScheduler(inner, 0.0, now_fn=lambda: 0.0)


class TestGuardInTheLoop:
    def test_guard_fires_and_bounds_the_tail(self):
        threshold = 3_000.0
        unguarded = run(BASE).report
        guarded = run(
            BASE.with_(qos=QoSConfig(starvation_age_s=threshold))
        ).report
        assert guarded.forced_promotions > 0
        # The guard trades throughput for tail latency; the worst case
        # must come down relative to the greedy policy alone.
        assert guarded.max_response_s < unguarded.max_response_s

    @pytest.mark.parametrize(
        "scheduler",
        ["fifo", "static-max-requests", "dynamic-max-bandwidth",
         "envelope-max-bandwidth"],
    )
    def test_guard_works_across_scheduler_families(self, scheduler):
        report = run(
            BASE.with_(
                scheduler=scheduler,
                qos=QoSConfig(starvation_age_s=2_000.0),
            )
        ).report
        assert report.completed > 0

    def test_envelope_tail_capped(self):
        # The acceptance criterion's headline case: the guard caps the
        # envelope scheduler's worst-case response time.
        threshold = 3_000.0
        base = BASE.with_(scheduler="envelope-max-bandwidth")
        unguarded = run(base).report
        guarded = run(
            base.with_(qos=QoSConfig(starvation_age_s=threshold))
        ).report
        assert guarded.max_response_s <= unguarded.max_response_s

    def test_no_promotions_when_nothing_starves(self):
        report = run(
            BASE.with_(qos=QoSConfig(starvation_age_s=10.0 * HORIZON))
        ).report
        assert report.forced_promotions == 0
