"""Campaign engine benchmark: parallel speedup, dispatch overhead, cache.

Runs a figure-sized campaign (the Figure 6 replica grid: 4 replication
degrees x 5 queue lengths = 20 configs) three ways —

1. serial, no cache (one in-process ``repro.api.run`` per config),
2. parallel with the supervised pool, writing the content-addressed
   cache,
3. again with a warm cache (every point must be a hit),

asserts the parallel and cached results are bit-identical to the serial
ones, and records the measurement into ``BENCH_campaign.json``
(schema ``bench-campaign/2``) at the repository root.

Methodology (fixing the v1 file's 0.9x headline): the worker count
defaults to the machine's CPU count (capped at 4, floored at 2 so the
chunked-dispatch path is always exercised), the dispatch overhead is
broken out per component (payload bytes pickled, worker startup and
initializer milliseconds, dispatch latency per point) from the pool's
own accounting, and any run where ``jobs`` exceeds ``cpu_count`` is
flagged in a ``warnings`` list instead of being passed off as a
parallel-scaling measurement.

Speedup gates are ratio-based and only enforced where they are
meaningful: on a >= 4-core machine with 4 workers the run must beat
``--min-speedup`` (default 2.8 = the 4x target minus the 30% shared
runner tolerance); oversubscribed machines record their numbers but
are never gated on speedup.

Runs standalone (``python benchmarks/bench_campaign.py``) with no
pytest dependency.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings as warnings_module
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_campaign.json"
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.campaign import Campaign  # noqa: E402
from repro.experiments.config import ExperimentConfig  # noqa: E402
from repro.layout import Layout  # noqa: E402

from _util import HORIZON_S  # noqa: E402

SCHEMA = "bench-campaign/2"

REPLICA_COUNTS = (0, 1, 2, 4)
QUEUE_LENGTHS = (10, 20, 30, 40, 50)


def default_jobs(cpu_count: int) -> int:
    """Worker count clamped to the machine: ``min(4, cpu_count)``.

    Floored at 2 so the supervised pool (and its overhead accounting)
    is exercised even on a single-core box — that run is flagged as
    oversubscribed rather than being presented as a scaling result.
    """
    return min(4, max(2, cpu_count))


def _grid():
    """The Figure 6-style campaign: NR x queue-length, 20 configs."""
    return [
        ExperimentConfig(
            horizon_s=HORIZON_S,
            layout=Layout.VERTICAL,
            replicas=replicas,
            start_position=1.0 if replicas else 0.0,
            queue_length=queue_length,
        )
        for replicas in REPLICA_COUNTS
        for queue_length in QUEUE_LENGTHS
    ]


def _mean_ms(values) -> float:
    return round(sum(values) / len(values), 2) if values else 0.0


def measure(jobs: int, cache_dir: Path) -> dict:
    """Serial / parallel / cached passes; returns the payload dict."""
    configs = _grid()
    assert len(configs) >= 20  # "figure-sized" per the acceptance bar
    cpu_count = os.cpu_count() or 1
    run_warnings = []

    started = time.monotonic()
    serial = Campaign(jobs=1).submit(configs)
    serial_s = time.monotonic() - started
    assert serial.stats.failures == 0

    with warnings_module.catch_warnings(record=True) as caught:
        warnings_module.simplefilter("always")
        parallel_campaign = Campaign(jobs=jobs, cache_dir=cache_dir)
    run_warnings.extend(
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, RuntimeWarning)
    )
    started = time.monotonic()
    parallel = parallel_campaign.submit(configs)
    parallel_s = time.monotonic() - started
    for config in configs:
        assert serial.require(config).report == parallel.require(config).report

    started = time.monotonic()
    with warnings_module.catch_warnings():
        warnings_module.simplefilter("ignore", RuntimeWarning)
        cached = Campaign(jobs=jobs, cache_dir=cache_dir).submit(configs)
    cached_s = time.monotonic() - started
    assert cached.stats.hit_fraction >= 0.95
    for config in configs:
        assert serial.require(config).report == cached.require(config).report

    overhead = parallel_campaign.last_overhead or {}
    points = overhead.get("points_dispatched") or len(configs)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    return {
        "schema": SCHEMA,
        "configs": len(configs),
        "unique": serial.stats.unique,
        "horizon_s": HORIZON_S,
        "cpu_count": cpu_count,
        "jobs": jobs,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "cache_hit_fraction": cached.stats.hit_fraction,
        "cached_wall_s": round(cached_s, 4),
        "cache_hit_latency_ms_per_point": round(
            1000.0 * cached_s / len(configs), 3
        ),
        "overhead": {
            "chunk_size": overhead.get("chunk_size", 0),
            "chunks_dispatched": overhead.get("chunks_dispatched", 0),
            "points_dispatched": overhead.get("points_dispatched", 0),
            "payload_bytes": overhead.get("payload_bytes", 0),
            "payload_bytes_per_point": round(
                overhead.get("payload_bytes", 0) / points, 1
            ),
            "dispatch_latency_ms_per_point": round(
                1000.0 * overhead.get("dispatch_s", 0.0) / points, 4
            ),
            "worker_startup_ms_mean": _mean_ms(
                overhead.get("worker_startup_ms", ())
            ),
            "worker_initializer_ms_mean": _mean_ms(
                overhead.get("worker_initializer_ms", ())
            ),
        },
        "warnings": run_warnings,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count for the parallel pass "
        "(default: min(4, cpu_count), floored at 2)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.8,
        help="speedup floor enforced when jobs >= 4 run on >= 4 CPUs "
        "(default 2.8: the 4x target minus 30%% runner tolerance)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=str(BENCH_JSON), help="output path"
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    jobs = args.jobs if args.jobs is not None else default_jobs(cpu_count)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-campaign-") as tmp:
        payload = measure(jobs, Path(tmp) / "cache")

    Path(args.output).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    print("--- campaign engine ---")
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{key}:")
            for sub_key, sub_value in value.items():
                print(f"  {sub_key:32s} {sub_value}")
        else:
            print(f"{key:34s} {value}")
    print(f"\nwrote {args.output}")

    # Cache hits must be far cheaper than simulating, on any machine.
    if not payload["cached_wall_s"] < payload["serial_wall_s"] / 2:
        print("campaign gate: FAIL — warm cache not 2x cheaper than serial")
        return 1
    # The speedup gate only means something with real cores under the
    # workers; an oversubscribed run records its numbers, flagged.
    if cpu_count >= 4 and jobs >= 4:
        if payload["speedup"] < args.min_speedup:
            print(
                f"campaign gate: FAIL — speedup {payload['speedup']:.2f}x "
                f"below the {args.min_speedup:.2f}x floor on "
                f"{cpu_count} CPUs with {jobs} workers"
            )
            return 1
        print(f"campaign gate: OK ({payload['speedup']:.2f}x)")
    elif payload["warnings"]:
        print("campaign gate: skipped (oversubscribed):", payload["warnings"][0])
    else:
        print("campaign gate: skipped (fewer than 4 CPUs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
