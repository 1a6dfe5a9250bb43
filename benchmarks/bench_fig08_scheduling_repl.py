"""Figure 8: scheduling algorithms with full replication.

Paper claims (Section 4.6): the envelope algorithms' globally optimized
schedules are superior with replicated data; max-bandwidth envelope
gains ~6% throughput and ~5% response time over dynamic max-bandwidth;
with no replicas it degenerates to dynamic max-bandwidth.
"""

import pytest

from repro.api import run
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURE8_ALGORITHMS, figure8

from _util import HORIZON_S, QUEUES, mean_delay, mean_throughput, show, regenerate


@pytest.mark.benchmark(group="fig08")
def test_fig08_scheduling_with_replication(benchmark, capsys):
    data = regenerate(
        benchmark,
        figure8,
        horizon_s=HORIZON_S,
        algorithms=FIGURE8_ALGORITHMS,
        queue_lengths=QUEUES,
    )
    show(capsys, data)
    series = data.series

    envelope = mean_throughput(series["envelope-max-bandwidth"])
    dynamic = mean_throughput(series["dynamic-max-bandwidth"])
    static = mean_throughput(series["static-max-bandwidth"])

    # Envelope beats dynamic (paper: ~6%; accept >= 2%), dynamic beats static.
    gain = envelope / dynamic - 1.0
    assert gain > 0.02, f"envelope gain over dynamic only {gain:.1%}"
    assert dynamic > static * 0.99

    # Delay improves alongside throughput.
    assert mean_delay(series["envelope-max-bandwidth"]) < mean_delay(
        series["dynamic-max-bandwidth"]
    )

    # All three envelope variants are at least as good as the plain
    # dynamic algorithms they extend.
    for name in ("envelope-max-requests", "envelope-oldest-max-requests"):
        assert mean_throughput(series[name]) > 0.97 * dynamic, name


@pytest.mark.benchmark(group="fig08")
def test_fig08_envelope_degenerates_without_replicas(benchmark, capsys):
    """With NR-0 every block is envelope-pinned, so envelope-max-bandwidth
    must match dynamic-max-bandwidth closely (paper's degeneration note)."""

    def run_pair():
        results = {}
        for scheduler in ("dynamic-max-bandwidth", "envelope-max-bandwidth"):
            config = ExperimentConfig(
                scheduler=scheduler,
                replicas=0,
                start_position=0.0,
                queue_length=60,
                horizon_s=HORIZON_S,
            )
            results[scheduler] = run(config).throughput_kb_s
        return results

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    ratio = results["envelope-max-bandwidth"] / results["dynamic-max-bandwidth"]
    assert ratio == pytest.approx(1.0, abs=0.05)
    with capsys.disabled():
        print(
            f"\nNR-0 degeneration: envelope/dynamic throughput ratio "
            f"{ratio:.4f} (expected ~1)"
        )
