"""Worker-side execution of one campaign point.

Shared by the serial path in :mod:`repro.campaign.engine` and the
supervised pool in :mod:`repro.campaign.supervisor` (which is why it
lives in its own module: the supervisor must not import the engine).
Everything here runs where the point runs — in a worker process under
``jobs > 1``, in the submitting process otherwise.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import signal
import threading
import traceback
import warnings
from typing import Callable, Optional, Tuple

from ..experiments.config import ExperimentConfig
from .hashing import config_digest

__all__ = [
    "PointTimeoutError",
    "_execute_point",
    "_wall_clock_limit",
    "_warm_catalog_caches",
]


def _warm_catalog_caches(entries) -> None:
    """Worker initializer: pre-build catalogs the batch will need.

    ``entries`` are ``(placement_spec, tape_count, capacity_mb,
    data_blocks, replicas)`` tuples — the argument signature of
    :func:`repro.experiments.runner._cached_catalog`.  Building them
    here, once per worker before the first chunk arrives, moves the
    catalog construction cost out of every point's critical path (the
    per-process ``lru_cache`` would otherwise fault it in on first
    use) and overlaps it with the parent's dispatch of the first
    chunks.  Purely an optimization: any failure is swallowed — the
    point execution path builds what it needs on demand.
    """
    from ..experiments.runner import _cached_catalog

    for entry in entries:
        try:
            _cached_catalog(*entry)
        except Exception:  # noqa: BLE001 - warming is best-effort
            continue


class PointTimeoutError(Exception):
    """A campaign point exceeded its wall-clock budget."""


@contextlib.contextmanager
def _wall_clock_limit(timeout_s: Optional[float]):
    """Raise :class:`PointTimeoutError` after ``timeout_s`` real seconds.

    Implemented with ``SIGALRM``/``setitimer``, which interrupts a hung
    simulation loop without cooperation from the running code.  Pool
    tasks execute on each worker process's main thread, so the signal
    lands in the right place.  On platforms without ``setitimer``
    (Windows) or off the main thread (e.g. the serial fallback invoked
    from a thread) the limit degrades to a no-op with a warning rather
    than raising — in the supervised parallel path the supervisor's
    deadline kill covers those cases.
    """
    if timeout_s is None:
        yield
        return
    if not hasattr(signal, "setitimer"):  # pragma: no cover - non-Unix
        warnings.warn(
            "point_timeout_s cannot be enforced in-process without "
            "signal.setitimer on this platform; relying on supervisor "
            "deadlines (if any)",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        warnings.warn(
            "point_timeout_s cannot be enforced with SIGALRM off the "
            "main thread; running the point without an in-process "
            "wall-clock limit",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return

    def _on_alarm(signum, frame):
        raise PointTimeoutError(
            f"campaign point exceeded {timeout_s:g}s wall-clock"
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _dump_trace(trace_dir: str, config: ExperimentConfig, tracer) -> None:
    """Write one executed point's trace artifacts into ``trace_dir``.

    Two files per point, named by config digest: ``<digest>.trace.json``
    (Chrome trace-event JSON, Perfetto-loadable) and
    ``<digest>.summary.json`` (:class:`~repro.obs.TraceSummary`).
    """
    import json

    from ..obs import TraceSummary, write_chrome_trace

    digest = config_digest(config)[:16]
    write_chrome_trace(
        tracer, os.path.join(trace_dir, f"{digest}.trace.json")
    )
    summary = TraceSummary.from_tracer(tracer, warmup_s=config.warmup_s)
    with open(
        os.path.join(trace_dir, f"{digest}.summary.json"), "w", encoding="utf-8"
    ) as handle:
        json.dump(summary.to_dict(), handle, indent=2, sort_keys=True)


def _execute_point(
    item: Tuple[
        int,
        ExperimentConfig,
        Callable,
        Optional[float],
        Optional[str],
        Optional[str],
    ]
) -> tuple:
    """Run one point; errors are shipped back as data, never raised.

    The single exception is :class:`KeyboardInterrupt`, which is *not*
    an attribute of the point: it propagates so the serial path can
    journal the interrupt and re-raise (workers ignore SIGINT, so it
    cannot fire there mid-point).

    When ``profile_dir`` is set the point runs under :mod:`cProfile`
    and its raw stats are dumped to ``<config_digest[:16]>.prof`` in
    that directory (the dump happens in the worker process, so profiles
    work with ``jobs > 1``).  When ``trace_dir`` is set and the runner
    accepts an ``obs`` keyword (the default :func:`repro.api.run`
    does), the point runs with a :class:`~repro.obs.Tracer` attached
    and its trace artifacts are dumped there, also worker-side.  Cache
    hits never reach this function, so every artifact reflects an
    actual execution.
    """
    index, config, runner, timeout_s, profile_dir, trace_dir = item
    try:
        tracer = None
        run = runner
        if trace_dir is not None:
            import inspect

            if "obs" in inspect.signature(runner).parameters:
                from ..obs import Tracer

                tracer = Tracer()
                run = lambda point: runner(point, obs=tracer)  # noqa: E731
        with _wall_clock_limit(timeout_s):
            if profile_dir is None:
                result = run(config)
            else:
                profiler = cProfile.Profile()
                result = profiler.runcall(run, config)
        if profile_dir is not None:
            profiler.dump_stats(
                os.path.join(profile_dir, f"{config_digest(config)[:16]}.prof")
            )
        if tracer is not None:
            _dump_trace(trace_dir, config, tracer)
        return (index, "ok", result)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - isolation is the point
        return (
            index,
            "error",
            (type(exc).__name__, str(exc), traceback.format_exc()),
        )
