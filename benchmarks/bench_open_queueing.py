"""Open-queueing replications of the paper's noted differences.

Sections 4.2, 4.4, and 4.7 all carry the same caveat for the open
model: at high workloads, better algorithms / replication / skew
improve only the *delay* — the throughput is pinned by the exogenous
Poisson arrival rate (a faster server does not generate new requests).
At low workloads the system is arrival-limited for everyone, so the
same pinning holds trivially; the interesting regime is near
saturation, where the queue is long but the better configuration still
completes only what arrives.
"""

import pytest

from repro.api import run
from repro.experiments.config import ExperimentConfig
from repro.layout import Layout

from _util import HORIZON_S


def open_config(scheduler: str, replicas: int, interarrival_s: float) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=scheduler,
        layout=Layout.VERTICAL if replicas else Layout.HORIZONTAL,
        replicas=replicas,
        start_position=1.0 if replicas else 0.0,
        queue_length=None,
        mean_interarrival_s=interarrival_s,
        horizon_s=HORIZON_S,
        warmup_fraction=0.2,
    )


@pytest.mark.benchmark(group="open-queueing")
def test_open_high_load_only_delay_improves(benchmark, capsys):
    """Near saturation, envelope+replication vs plain dynamic: completed
    work matches the arrival stream for both, delay separates sharply."""
    interarrival_s = 70.0  # close to the better scheme's service rate

    def run_pair():
        worse = run(open_config("dynamic-max-bandwidth", 0, interarrival_s))
        better = run(
            open_config("envelope-max-bandwidth", 9, interarrival_s)
        )
        return worse.report, better.report

    worse, better = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    # Delay improves a lot...
    assert better.mean_response_s < 0.8 * worse.mean_response_s
    # ...throughput cannot exceed the arrival rate, and the arrival
    # processes are identical seeds, so completed counts stay close
    # relative to the delay gap.
    completed_ratio = better.total_completed / worse.total_completed
    delay_ratio = worse.mean_response_s / better.mean_response_s
    assert completed_ratio < delay_ratio
    arrival_rate_per_min = 60.0 / interarrival_s
    assert better.requests_per_min <= arrival_rate_per_min * 1.05

    with capsys.disabled():
        print(
            f"\nopen queueing @ 1/{interarrival_s:g}s arrivals: "
            f"delay {worse.mean_response_s:,.0f}s -> {better.mean_response_s:,.0f}s "
            f"({1 - better.mean_response_s / worse.mean_response_s:+.0%}), "
            f"completed {worse.total_completed} -> {better.total_completed} "
            f"({completed_ratio - 1:+.1%})"
        )


@pytest.mark.benchmark(group="open-queueing")
def test_open_underloaded_throughput_pinned_by_arrivals(benchmark, capsys):
    """Well under capacity, every configuration completes essentially the
    whole arrival stream: throughput is configuration-independent."""
    interarrival_s = 400.0

    def run_three():
        return [
            run(open_config(scheduler, replicas, interarrival_s)).report
            for scheduler, replicas in (
                ("static-max-bandwidth", 0),
                ("dynamic-max-bandwidth", 0),
                ("envelope-max-bandwidth", 9),
            )
        ]

    reports = benchmark.pedantic(run_three, rounds=1, iterations=1)
    rates = [report.requests_per_min for report in reports]
    assert max(rates) < 1.1 * min(rates), rates
    # But delay still orders the configurations.
    delays = [report.mean_response_s for report in reports]
    assert delays[2] < delays[1] <= delays[0] * 1.05

    with capsys.disabled():
        print(
            f"\nunderloaded open queueing: req/min {['%.3f' % r for r in rates]}, "
            f"delays {['%.0f' % d for d in delays]} s"
        )
