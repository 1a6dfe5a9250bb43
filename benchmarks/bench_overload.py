"""Overload-control benchmark: shedding keeps p99 bounded at 2x overload.

Three measurements, recorded into ``BENCH_overload.json`` at the
repository root:

1. **Capacity.**  A closed run measures the jukebox's sustainable
   service rate (completions per simulated second).
2. **2x overload, open model.**  Arrivals at twice capacity, once
   unprotected (the queue grows without bound, so does the tail) and
   once behind bounded-queue admission control: the protected run must
   shed a positive fraction of arrivals and hold p99 response time
   strictly below the unprotected tail.
3. **Starvation guard.**  On a hot-skewed closed workload the guard
   must cap the envelope scheduler's worst-case response time while
   forcing a positive number of promotions.

Runs standalone (``python benchmarks/bench_overload.py``) so CI can
exercise it without pytest-benchmark; ``REPRO_BENCH_HORIZON_S`` scales
the simulated horizon as for the figure benchmarks.
"""

import json
import sys
from pathlib import Path

try:
    from _util import HORIZON_S
except ImportError:  # running as a plain script, not under pytest
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from _util import HORIZON_S

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.qos import QoSConfig

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_overload.json"

#: Unbounded-queue overload cost grows with the horizon (the pending
#: list the schedulers re-plan over grows linearly), so cap this
#: benchmark's horizon below the figure-benchmark default.
OVERLOAD_HORIZON_S = min(HORIZON_S, 120_000.0)

#: The closed run that defines "capacity" and the open overload runs.
BASE = ExperimentConfig(
    scheduler="dynamic-max-bandwidth",
    tape_count=4,
    capacity_mb=1000.0,
    horizon_s=OVERLOAD_HORIZON_S,
    queue_length=12,
    seed=5,
    warmup_fraction=0.0,
)

#: The starvation-prone closed workload from the guard acceptance test:
#: strong skew concentrates greedy policies on hot tapes.
GUARD_BASE = ExperimentConfig(
    scheduler="envelope-max-bandwidth",
    tape_count=8,
    capacity_mb=1000.0,
    percent_hot=10.0,
    percent_requests_hot=90.0,
    horizon_s=OVERLOAD_HORIZON_S,
    queue_length=40,
    seed=11,
    warmup_fraction=0.0,
)

OVERLOAD_FACTOR = 2.0
MAX_PENDING = 36  # 3x the closed run's queue depth
STARVATION_AGE_S = 3_000.0


def _summary(report) -> dict:
    return {
        "arrivals": report.arrivals,
        "completed": report.completed,
        "p50_response_s": round(report.p50_response_s, 1),
        "p95_response_s": round(report.p95_response_s, 1),
        "p99_response_s": round(report.p99_response_s, 1),
        "max_response_s": round(report.max_response_s, 1),
        "shed_requests": report.shed_requests,
        "shed_fraction": round(
            report.shed_requests / report.arrivals if report.arrivals else 0.0, 4
        ),
        "saturated": report.saturated,
    }


def run_overload_benchmark() -> dict:
    """Run all three measurements and return the JSON payload."""
    capacity_report = run(BASE).report
    capacity_req_s = capacity_report.completed / OVERLOAD_HORIZON_S
    interarrival_s = 1.0 / (OVERLOAD_FACTOR * capacity_req_s)

    open_base = BASE.with_(
        queue_length=None, mean_interarrival_s=interarrival_s
    )
    unprotected = run(open_base).report
    protected = run(
        open_base.with_(
            qos=QoSConfig(admission="bounded-queue", max_pending=MAX_PENDING)
        )
    ).report

    unguarded = run(GUARD_BASE).report
    guarded = run(
        GUARD_BASE.with_(qos=QoSConfig(starvation_age_s=STARVATION_AGE_S))
    ).report

    return {
        "horizon_s": OVERLOAD_HORIZON_S,
        "overload_factor": OVERLOAD_FACTOR,
        "capacity_req_s": round(capacity_req_s, 6),
        "interarrival_s": round(interarrival_s, 3),
        "max_pending": MAX_PENDING,
        "unprotected": _summary(unprotected),
        "protected": _summary(protected),
        "guard": {
            "scheduler": GUARD_BASE.scheduler,
            "starvation_age_s": STARVATION_AGE_S,
            "unguarded_max_response_s": round(unguarded.max_response_s, 1),
            "guarded_max_response_s": round(guarded.max_response_s, 1),
            "forced_promotions": guarded.forced_promotions,
        },
    }


def check_payload(payload: dict) -> None:
    """The acceptance bar, shared by the pytest entry and CI's script run."""
    protected = payload["protected"]
    unprotected = payload["unprotected"]
    # Admission control really engaged: a positive shed rate...
    assert protected["shed_requests"] > 0, payload
    assert protected["shed_fraction"] > 0.0, payload
    # ...and the tail it buys: p99 strictly below the unbounded queue's,
    # which keeps growing with the backlog.
    assert protected["p99_response_s"] < unprotected["p99_response_s"], payload
    assert protected["max_response_s"] < unprotected["max_response_s"], payload
    # Admitted work still completes; the protected system is not starved.
    assert protected["completed"] > 0 and not protected["saturated"], payload
    # The guard fires and caps the envelope scheduler's worst case.
    guard = payload["guard"]
    assert guard["forced_promotions"] > 0, payload
    assert (
        guard["guarded_max_response_s"] <= guard["unguarded_max_response_s"]
    ), payload


def _write_and_print(payload: dict) -> None:
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("--- overload control ---")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {BENCH_JSON}")


def main() -> int:
    payload = run_overload_benchmark()
    check_payload(payload)
    _write_and_print(payload)
    return 0


try:
    import pytest
except ImportError:  # script mode without pytest installed
    pytest = None

if pytest is not None:

    @pytest.mark.benchmark(group="overload")
    def test_shedding_bounds_p99_at_2x_overload(benchmark, capsys):
        payload = benchmark.pedantic(
            run_overload_benchmark, rounds=1, iterations=1
        )
        check_payload(payload)
        with capsys.disabled():
            print()
            _write_and_print(payload)


if __name__ == "__main__":
    sys.exit(main())
