"""Kernel/scheduler performance benchmark: the BENCH trajectory for speed.

Measures, and records into ``BENCH_kernel.json`` at the repository root:

1. **Raw DES kernel.**  Events per wall-clock second through the full
   schedule-and-drain cycle — bare timeouts (no callbacks) and
   generator processes sleeping repeatedly (the simulator's actual
   idiom; uses the bare-float fast path when the kernel supports it).
2. **Scheduler families end-to-end.**  One closed-queueing run per
   family (FIFO / static / dynamic / envelope) on the paper's jukebox;
   wall-clock seconds, simulated-seconds per wall-second, and completed
   requests per wall-second.
3. **Figure-4 end-to-end workload.**  The four-family subset of the
   Figure-4 sweep (three queue lengths each) as one wall-clock number —
   the headline end-to-end metric.
4. **Envelope-compute scaling.**  Best-of-three wall-clock of one
   envelope major reschedule at n = 35/140/560 pending requests
   (t = 10 tapes, NR-9), and requests scheduled per second.

The file keeps two measurement sets: ``baseline`` (recorded once, on
the pre-optimization tree, via ``--record-baseline``) and ``current``
(refreshed on every default run), plus the derived ``speedup`` section.
CI runs ``--quick --check BENCH_kernel.json`` and fails when the fresh
kernel events/sec falls more than 30% below the committed baseline.

Runs standalone (``python benchmarks/bench_kernel.py``) with no pytest
dependency.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernel.json"
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import run  # noqa: E402
from repro.core import EnvelopeComputer  # noqa: E402
from repro.des import Environment  # noqa: E402
from repro.experiments import ExperimentConfig  # noqa: E402
from repro.layout import Layout, PlacementSpec, build_catalog  # noqa: E402
from repro.tape import EXB_8505XL  # noqa: E402
from repro.workload import HotColdSkew, RequestFactory  # noqa: E402

SCHEMA = "bench-kernel/2"

#: Payload schemas whose baseline section is still comparable.
COMPATIBLE_SCHEMAS = (SCHEMA, "bench-kernel/1")

#: The four-family subset of Figure 4 used for the end-to-end number.
FIG4_FAMILIES = (
    "fifo",
    "static-max-bandwidth",
    "dynamic-max-bandwidth",
    "envelope-max-bandwidth",
)


# ----------------------------------------------------------------------
# 1. Raw DES kernel
# ----------------------------------------------------------------------
def bench_timeout_cycles(n: int, repeats: int = 3, batch: int = 10_000) -> float:
    """Events/sec through full schedule-then-drain cycles of bare timeouts.

    Scheduling is part of the cycle on purpose: the simulator never
    drains a pre-built heap, it interleaves ``env.timeout`` allocation
    with ``run()`` dispatch, and both halves are on the hot path.
    """
    best = 0.0
    batches = max(1, n // batch)
    for _ in range(repeats):
        env = Environment()
        start = time.perf_counter()
        for _ in range(batches):
            for index in range(batch):
                env.timeout(float(index % 97))
            env.run()
        elapsed = time.perf_counter() - start
        best = max(best, batches * batch / elapsed)
    return best


def _float_yields_supported() -> bool:
    """True when the kernel accepts bare-float delays from processes."""

    def probe(env: Environment):
        yield 1.0

    env = Environment()
    env.process(probe(env))
    try:
        env.run()
    except TypeError:
        return False
    return True


def bench_process_timeouts(processes: int, events: int, repeats: int = 3) -> float:
    """Events/sec of ``processes`` generator processes sleeping in a loop.

    Uses the simulator's idiom on the tree under measurement: bare
    float delays where the kernel supports them (the allocation-free
    fast path), ``env.timeout`` otherwise — so the same script records
    an honest baseline on the pre-optimization tree.
    """
    if _float_yields_supported():

        def worker(env: Environment, count: int):
            for _ in range(count):
                yield 1.0

    else:

        def worker(env: Environment, count: int):
            for _ in range(count):
                yield env.timeout(1.0)

    total = processes * events
    best = 0.0
    for _ in range(repeats):
        env = Environment()
        for _ in range(processes):
            env.process(worker(env, events))
        start = time.perf_counter()
        env.run()
        best = max(best, total / (time.perf_counter() - start))
    return best


# ----------------------------------------------------------------------
# 2/3. End-to-end scheduler runs
# ----------------------------------------------------------------------
def _fig4_config(scheduler: str, queue: int, horizon_s: float) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=scheduler, queue_length=queue, horizon_s=horizon_s
    )


def _fig8_config(scheduler: str, queue: int, horizon_s: float) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler=scheduler,
        layout=Layout.VERTICAL,
        replicas=9,
        start_position=1.0,
        queue_length=queue,
        horizon_s=horizon_s,
    )


def bench_schedulers(horizon_s: float, queue: int) -> dict:
    """Per-family wall-clock of one closed run (replicated for envelope)."""
    out = {}
    for scheduler in FIG4_FAMILIES:
        if scheduler.startswith("envelope"):
            config = _fig8_config(scheduler, queue, horizon_s)
        else:
            config = _fig4_config(scheduler, queue, horizon_s)
        start = time.perf_counter()
        result = run(config)
        wall_s = time.perf_counter() - start
        out[scheduler] = {
            "wall_s": round(wall_s, 4),
            "sim_s_per_wall_s": round(horizon_s / wall_s, 1),
            "completions_per_wall_s": round(result.report.completed / wall_s, 1),
            "sweeps_per_wall_s": round(result.report.tape_switches / wall_s, 2),
        }
    return out


def bench_fig4_end_to_end(horizon_s: float, queues, repeats: int = 3) -> dict:
    """Wall-clock of the four-family Figure-4 grid run back to back.

    Best of ``repeats`` passes: the first pass pays one-time costs
    (imports, catalog construction) that are not what this benchmark
    measures, and min-of-N suppresses scheduler noise on shared machines.
    """
    best_s = None
    completed = 0
    for _ in range(repeats):
        start = time.perf_counter()
        completed = 0
        for scheduler in FIG4_FAMILIES:
            for queue in queues:
                config = _fig4_config(scheduler, queue, horizon_s)
                completed += run(config).report.completed
        wall_s = time.perf_counter() - start
        if best_s is None or wall_s < best_s:
            best_s = wall_s
    return {
        "wall_s": round(best_s, 4),
        "horizon_s": horizon_s,
        "queues": list(queues),
        "completed": completed,
        "points": len(FIG4_FAMILIES) * len(queues),
    }


# ----------------------------------------------------------------------
# 4. Envelope-compute scaling
# ----------------------------------------------------------------------
def bench_envelope_scaling(sizes, repeats: int = 3) -> dict:
    tapes = 10
    spec = PlacementSpec(
        layout=Layout.VERTICAL, percent_hot=10, replicas=9, start_position=1.0
    )
    catalog = build_catalog(spec, tapes, 7 * 1024.0)
    skew = HotColdSkew(40.0)
    out = {}
    for size in sizes:
        import random

        rng = random.Random(7)
        factory = RequestFactory()
        requests = [
            factory.create(block_id=skew.draw_block(rng, catalog), arrival_s=0.0)
            for _ in range(size)
        ]
        computer = EnvelopeComputer(
            timing=EXB_8505XL,
            catalog=catalog,
            tape_count=tapes,
            mounted_id=0,
            head_mb=0.0,
        )
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            computer.compute(requests)
            best = min(best, time.perf_counter() - start)
        out[str(size)] = {
            "wall_s": round(best, 5),
            "requests_per_s": round(size / best, 1),
        }
    return out


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def measure(quick: bool) -> dict:
    if quick:
        kernel = {
            "timeout_cycle_events_per_s": round(bench_timeout_cycles(50_000, 2), 1),
            "process_timeout_events_per_s": round(
                bench_process_timeouts(50, 1000, 2), 1
            ),
        }
        schedulers = bench_schedulers(horizon_s=40_000.0, queue=60)
        fig4 = bench_fig4_end_to_end(horizon_s=30_000.0, queues=(20, 60))
        envelope = bench_envelope_scaling((35, 140))
    else:
        kernel = {
            "timeout_cycle_events_per_s": round(bench_timeout_cycles(200_000), 1),
            "process_timeout_events_per_s": round(
                bench_process_timeouts(100, 2000), 1
            ),
        }
        schedulers = bench_schedulers(horizon_s=100_000.0, queue=100)
        fig4 = bench_fig4_end_to_end(horizon_s=60_000.0, queues=(20, 60, 100))
        envelope = bench_envelope_scaling((35, 140, 560))
    return {
        "quick": quick,
        "kernel": kernel,
        "schedulers": schedulers,
        "fig4_end_to_end": fig4,
        "envelope_compute": envelope,
    }


#: Headline kernel metric used for speedup and the CI regression gate:
#: the process idiom is what every simulated second actually exercises.
def _events_per_s(measurement: dict) -> float:
    return measurement["kernel"]["process_timeout_events_per_s"]


def _speedup(baseline: dict, current: dict) -> dict:
    out = {}
    out["kernel_events_per_s"] = round(
        _events_per_s(current) / _events_per_s(baseline), 2
    )
    out["timeout_cycle_events_per_s"] = round(
        current["kernel"]["timeout_cycle_events_per_s"]
        / baseline["kernel"]["timeout_cycle_events_per_s"],
        2,
    )
    if baseline.get("quick") == current.get("quick"):
        out["fig4_end_to_end"] = round(
            baseline["fig4_end_to_end"]["wall_s"]
            / current["fig4_end_to_end"]["wall_s"],
            2,
        )
        shared = set(baseline["envelope_compute"]) & set(current["envelope_compute"])
        out["envelope_compute"] = {
            size: round(
                baseline["envelope_compute"][size]["wall_s"]
                / current["envelope_compute"][size]["wall_s"],
                2,
            )
            for size in sorted(shared, key=int)
        }
    return out


def check_regression(payload_path: Path, fresh: dict, tolerance: float) -> int:
    """Fail (nonzero) when fresh kernel events/sec regressed vs baseline."""
    committed = json.loads(payload_path.read_text())
    floor = _events_per_s(committed["baseline"]) * (1.0 - tolerance)
    fresh_rate = _events_per_s(fresh)
    print(
        f"perf gate: fresh kernel {fresh_rate:,.0f} ev/s vs committed "
        f"baseline floor {floor:,.0f} ev/s "
        f"(baseline {_events_per_s(committed['baseline']):,.0f} "
        f"- {tolerance:.0%} tolerance)"
    )
    if fresh_rate < floor:
        print("perf gate: FAIL — kernel events/sec regressed past tolerance")
        return 1
    print("perf gate: OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes for CI smoke runs"
    )
    parser.add_argument(
        "--record-baseline",
        action="store_true",
        help="store this measurement as the file's baseline section "
        "(run once, on the pre-optimization tree)",
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        default=None,
        help="compare the fresh measurement against FILE's committed "
        "baseline and exit nonzero on >tolerance regression; "
        "does not rewrite FILE",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression for --check (default 0.30)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=str(BENCH_JSON), help="output path"
    )
    args = parser.parse_args(argv)

    fresh = measure(quick=args.quick)
    print(json.dumps(fresh, indent=2))

    if args.check is not None:
        return check_regression(Path(args.check), fresh, args.tolerance)

    output = Path(args.output)
    payload = {"schema": SCHEMA}
    if output.exists():
        previous = json.loads(output.read_text())
        if previous.get("schema") in COMPATIBLE_SCHEMAS:
            payload = previous
    if args.record_baseline or "baseline" not in payload:
        payload["baseline"] = fresh
    payload["current"] = fresh
    payload["speedup"] = _speedup(payload["baseline"], payload["current"])
    payload["schema"] = SCHEMA
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {output}")
    print("speedup vs baseline:", json.dumps(payload["speedup"], indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
