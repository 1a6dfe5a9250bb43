"""End-to-end and per-layer benchmark of the tape-jukebox simulator.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any checkout holding ``src/repro``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

One simulation run is ``repro.run(config)`` for one config of the
workload's pass (see ``workloads.py``).  A benchmark run

1. times the cold set-up in fresh interpreters (``setup_probe.py``,
   untraced mode only) and reports the median;
2. runs the pass once untimed: this warms the process, checks each
   report's invariants, records its digest, and yields the model
   metrics;
3. repeats the pass for ``--seconds`` of host time, checking that every
   repetition reproduces its config's digest.

With ``--trace 1`` step 3 is split in three equal windows: plain runs,
runs under :class:`layers.LayerClock` (host self time per layer), and
runs with the program's own :class:`repro.obs.Tracer` attached
(simulated time per request phase).  Both instrumented windows must
reproduce the plain digests.

Host times are calibrated against a fixed reference loop timed between
runs (see ``calibrate.py``) and summarized by :func:`pass_mean`.  Model
metrics (simulated time) are pooled over the untimed pass, so they
depend only on the seed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from calibrate import NOMINAL_REFERENCE_S, time_reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh-interpreter set-ups timed per benchmark run (after one untimed
#: set-up that fills the bytecode cache).
SETUP_SAMPLES = 9
#: Relative tolerance of the Little's-law (L = X * R) and open-loop
#: rate (X = 1 / mean interarrival) checks.  Requests in flight at the
#: warm-up cut and at the horizon leave residues of up to about 6% on
#: single open-loop runs; closed runs stay within about 1%.
RATE_TOLERANCE = 0.10


class Checker:
    """Counts simulation runs and collects every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: FAIL {message}", file=sys.stderr)

    def run(self, config, obs=None) -> Tuple[Optional[float], Optional[object]]:
        """One timed simulation run; ``(None, None)`` when it raised."""
        import repro

        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            result = repro.run(config, obs=obs)
        except Exception:
            self.failed += 1
            self.fail(f"run raised for seed {config.seed}")
            traceback.print_exc(file=sys.stderr)
            return None, None
        return time.perf_counter() - start, result.report


def report_problems(config, report) -> List[str]:
    """Invariants every run of the benchmark's workloads must satisfy."""
    problems = []
    if report.saturated or report.completed <= 0:
        problems.append("no completions in the measurement window")
        return problems
    lost = report.failed_requests + report.expired_requests + report.shed_requests
    if lost:
        problems.append(f"{lost} requests failed, expired or were shed")
    if not 0.0 < report.drive_busy_fraction <= 1.0:
        problems.append(f"drive busy fraction {report.drive_busy_fraction}")
    if not (
        report.p50_response_s
        <= report.p95_response_s
        <= report.p99_response_s
        <= report.max_response_s + 10.0  # histogram bins are 10 s wide
    ):
        problems.append("response percentiles out of order")
    if config.is_closed:
        # Every completion admits one replacement: the population is fixed.
        if report.arrivals != report.total_completed + config.queue_length:
            problems.append(
                f"closed population not conserved: {report.arrivals} arrivals, "
                f"{report.total_completed} completions"
            )
    else:
        if report.arrivals < report.total_completed:
            problems.append("more completions than arrivals")
        # A stable open system completes work as fast as it arrives.
        rate = report.completed / report.measured_s * config.mean_interarrival_s
        if abs(rate - 1.0) > RATE_TOLERANCE:
            problems.append(f"completion rate {rate:.3f} x the arrival rate")
    # Little's law ties three independently collected statistics: the
    # time-averaged population, the completion rate and the mean delay.
    little = report.completed / report.measured_s * report.mean_response_s
    if abs(little / report.mean_queue_length - 1.0) > RATE_TOLERANCE:
        problems.append(
            f"Little's law off: L={report.mean_queue_length:.3f}, "
            f"X*R={little:.3f}"
        )
    return problems


def reference_pass(checker: Checker, configs) -> Tuple[List[Optional[str]], list]:
    """Run the pass once; return each config's digest and report."""
    from repro.service.metrics import report_digest

    digests: List[Optional[str]] = []
    reports = []
    for config in configs:
        _, report = checker.run(config)
        if report is None:
            digests.append(None)
            continue
        problems = report_problems(config, report)
        for problem in problems:
            checker.fail(f"seed {config.seed}: {problem}")
        if problems:
            checker.failed += 1
        digests.append(report_digest(report))
        reports.append(report)
    return digests, reports


@dataclass
class Timings:
    """Per-run host times of one window, raw and calibrated."""

    #: Index of each run's config in the pass.
    slots: List[int] = field(default_factory=list)
    walls: List[float] = field(default_factory=list)
    references: List[float] = field(default_factory=list)
    #: ``NOMINAL_REFERENCE_S / reference time`` around each run.
    scales: List[float] = field(default_factory=list)

    def run_s(self, calibrated: bool = True) -> float:
        """Typical seconds per run: see :func:`pass_mean`."""
        if not calibrated:
            return pass_mean(self.slots, self.walls)
        return pass_mean(
            self.slots, [wall * scale for wall, scale in zip(self.walls, self.scales)]
        )


def pass_mean(slots: Sequence[int], values: Sequence[float]) -> float:
    """Mean over the pass's configs of each config's median value.

    The median discards runs a noisy host slowed down; the mean over
    configs weighs every seeded copy of the workload equally, however
    often the window repeated it.
    """
    by_slot: Dict[int, List[float]] = {}
    for slot, value in zip(slots, values):
        by_slot.setdefault(slot, []).append(value)
    if not by_slot:
        return 0.0
    return statistics.fmean(statistics.median(v) for v in by_slot.values())


def timed_reference() -> float:
    gc.collect()
    return time_reference()


def repeat_pass(
    checker: Checker,
    configs,
    digests: Sequence[Optional[str]],
    seconds: float,
    label: str,
    make_obs: Callable[[], object] = lambda: None,
    after_run: Callable[[int, object, object, float], None] = lambda *args: None,
) -> Timings:
    """Cycle through the pass for ``seconds`` (at least one full pass).

    Each run must reproduce the digest its config produced in the
    reference pass.  The reference loop is timed between runs; a run is
    calibrated by the mean of the reference times just before and just
    after it.  ``after_run(index, report, obs, scale)`` sees every run
    that passed.
    """
    from repro.service.metrics import report_digest

    timings = Timings()
    deadline = time.perf_counter() + seconds
    index = 0
    before = timed_reference()
    while index < len(configs) or time.perf_counter() < deadline:
        slot = index % len(configs)
        obs = make_obs()
        wall, report = checker.run(configs[slot], obs=obs)
        after = timed_reference()
        scale = NOMINAL_REFERENCE_S / ((before + after) / 2.0)
        before = after
        index += 1
        if report is None:
            continue
        if report_digest(report) != digests[slot]:
            checker.failed += 1
            checker.fail(
                f"{label} run of seed {configs[slot].seed} differs from its "
                f"reference run"
            )
            continue
        timings.slots.append(slot)
        timings.walls.append(wall)
        timings.references.append(after)
        timings.scales.append(scale)
        after_run(index - 1, report, obs, scale)
    return timings


def pooled_model(reports) -> Tuple[float, float]:
    """Simulated mean response (pooled over completions) and mean
    throughput of a pass."""
    completed = sum(report.completed for report in reports)
    if not completed:
        return 0.0, 0.0
    response_s = sum(r.mean_response_s * r.completed for r in reports) / completed
    return response_s, statistics.fmean(r.throughput_kb_s for r in reports)


def setup_seconds(checker: Checker, workload: str, seed: int) -> List[float]:
    """Calibrated cold set-up times of ``SETUP_SAMPLES`` fresh interpreters.

    The first, untimed probe fills the bytecode cache (the probes may
    always write it), so every timed probe imports the way an installed
    package does.
    """
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for attempt in range(SETUP_SAMPLES + 1):
        try:
            completed = subprocess.run(
                command,
                cwd=str(HERE.parent),
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
        except (subprocess.SubprocessError, OSError) as error:
            checker.fail(f"set-up probe failed: {error}")
            return samples
        if attempt:
            setup_s, reference_s = map(
                float, completed.stdout.strip().splitlines()[-1].split()
            )
            samples.append(setup_s * NOMINAL_REFERENCE_S / reference_s)
    return samples


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(checker: Checker, workload, seed: int, seconds: float) -> dict:
    configs = workload.configs(seed)
    setup = setup_seconds(checker, workload.name, seed)
    digests, reports = reference_pass(checker, configs)
    timings = repeat_pass(checker, configs, digests, seconds, "timed")
    response_s, throughput_kb_s = pooled_model(reports)
    return {
        "run_ms": (timings.run_s() * 1000.0, "ms"),
        "sim_mean_response_s": (response_s, "s"),
        "sim_throughput_kb_s": (throughput_kb_s, "KB/s"),
        "setup_s": (median(setup), "s"),
    }


def per_layer(checker: Checker, workload, seed: int, seconds: float) -> dict:
    from layers import LAYERS, LayerClock
    from repro.obs import PHASES, TraceSummary, Tracer

    configs = workload.configs(seed)
    digests, reports = reference_pass(checker, configs)
    window = seconds / 3.0
    plain = repeat_pass(checker, configs, digests, window, "plain")

    clock = LayerClock()
    self_ms: Dict[str, List[float]] = {layer: [] for layer in LAYERS}
    self_slots: List[int] = []
    pass_calls = dict.fromkeys(LAYERS, 0)
    pass_counts = dict.fromkeys(clock.counts, 0)

    def record_layers(index: int, report, obs, scale: float) -> None:
        self_slots.append(index % len(configs))
        corrected = clock.corrected_self_ns()
        for layer in LAYERS:
            self_ms[layer].append(corrected[layer] * scale / 1e6)
        if index < len(configs):
            for layer in LAYERS:
                pass_calls[layer] += clock.calls[layer]
            for key, value in clock.counts.items():
                pass_counts[key] += value

    with clock:
        profiled = repeat_pass(
            checker,
            configs,
            digests,
            window,
            "profiled",
            make_obs=clock.reset,  # zero the accumulators; attach no tracer
            after_run=record_layers,
        )

    phase_sums = dict.fromkeys(PHASES, 0.0)
    traced_completed = 0

    def record_phases(index: int, report, tracer, scale: float) -> None:
        nonlocal traced_completed
        summary = TraceSummary.from_tracer(tracer, warmup_s=configs[0].warmup_s)
        if summary.completed != report.completed or not _close(
            summary.mean_response_s, report.mean_response_s
        ):
            checker.failed += 1
            checker.fail("traced request phases disagree with the run's metrics")
        if not _close(sum(summary.phase_means.values()), summary.mean_response_s):
            checker.failed += 1
            checker.fail("request phases do not add up to the response time")
        if index < len(configs):
            for phase, mean_s in summary.phase_means.items():
                phase_sums[phase] += mean_s * summary.completed
            traced_completed += summary.completed

    traced = repeat_pass(
        checker,
        configs,
        digests,
        window,
        "traced",
        make_obs=Tracer,
        after_run=record_phases,
    )

    runs = len(configs)
    run_ms = plain.run_s() * 1000.0
    metrics = {
        "plain_run_ms": (run_ms, "ms"),
        "run_wall_ms": (plain.run_s(calibrated=False) * 1000.0, "ms"),
        "reference_ms": (median(plain.references) * 1000.0, "ms"),
        "profile_overhead_pct": (_overhead_pct(profiled, plain), "%"),
        "obs_overhead_pct": (_overhead_pct(traced, plain), "%"),
        "host_us_per_event": (
            run_ms * 1000.0 * runs / pass_counts["des_events"]
            if pass_counts["des_events"]
            else 0.0,
            "us",
        ),
    }
    for layer in LAYERS:
        metrics[f"{layer}_self_ms"] = (pass_mean(self_slots, self_ms[layer]), "ms")
        metrics[f"{layer}_calls"] = (pass_calls[layer] / runs, "count")
    for key, value in pass_counts.items():
        metrics[key] = (value / runs, "count")
    for phase in PHASES:
        name = "phase_" + phase.replace("-", "_") + "_s"
        metrics[name] = (
            phase_sums[phase] / traced_completed if traced_completed else 0.0,
            "s",
        )
    for name, unit in (("drive_busy_fraction", "fraction"), ("tape_switches", "count")):
        values = [getattr(report, name) for report in reports]
        metrics[name] = (statistics.fmean(values) if values else 0.0, unit)
    return metrics


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _overhead_pct(instrumented: Timings, plain: Timings) -> float:
    """Calibrated slowdown of an instrumented window, in percent."""
    if not instrumented.walls or not plain.walls:
        return 0.0
    return (instrumented.run_s() / plain.run_s() - 1.0) * 100.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator package at {SRC / 'repro'}; run from a "
            f"checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    checker = Checker()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(checker, workload, args.seed, args.seconds)
    print(
        json.dumps(
            {
                "correct": not checker.problems,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
