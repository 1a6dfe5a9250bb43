"""Host-time attribution per simulator layer, recorded from outside.

:class:`LayerClock` wraps the entry points of each layer (class methods
of the simulator's modules) with ``perf_counter_ns`` accumulators while
it is installed, and restores the originals when it is removed.  Nothing
in the program changes: the wrapped calls run the same code with the
same arguments, so a profiled run must report the bit-identical metrics
of an unprofiled one (the benchmark checks that it does).

A layer's *self time* is its inclusive time minus the time of the
wrapped calls nested inside it, so the raw self times of one run add up
to the wall time of ``Environment.run``.  Each wrapped call costs one to
three microseconds, part inside its own timed interval and part in its
caller's.  :meth:`LayerClock.corrected_self_ns` measures both parts on a
no-op method and subtracts them, call by call; the
``profile_overhead_pct`` metric reports what the wrappers cost in all.

A target that no longer exists (a class or method renamed or removed by
a later change) is skipped, and its layer then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: (layer, module, class, methods).  Only methods a class defines
#: itself are wrapped; subclasses inherit the wrapped function.
TARGETS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("kernel", "repro.des.environment", "Environment", ("run",)),
    ("service", "repro.des.process", "Process", ("_resume",)),
    ("decide", "repro.core.fifo", "FifoScheduler", ("major_reschedule",)),
    ("decide", "repro.core.static_", "StaticScheduler", ("major_reschedule",)),
    ("decide", "repro.core.envelope", "EnvelopeScheduler", ("major_reschedule",)),
    ("decide", "repro.core.exact", "_BatchScheduler", ("major_reschedule",)),
    (
        "incremental",
        "repro.core.base",
        "Scheduler",
        ("on_arrival", "build_service_list", "on_sweep_complete"),
    ),
    (
        "incremental",
        "repro.core.static_",
        "StaticScheduler",
        ("build_service_list",),
    ),
    ("incremental", "repro.core.dynamic", "DynamicScheduler", ("on_arrival",)),
    (
        "incremental",
        "repro.core.envelope",
        "EnvelopeScheduler",
        ("on_arrival", "on_sweep_complete"),
    ),
    (
        "incremental",
        "repro.core.exact",
        "_BatchScheduler",
        ("on_arrival", "build_service_list"),
    ),
    ("envelope_compute", "repro.core.envelope", "EnvelopeComputer", ("compute",)),
    (
        "envelope_index",
        "repro.core.envelope",
        "EnvelopeIndex",
        ("on_pending_append", "on_pending_remove", "refresh"),
    ),
    ("exact_search", "repro.core.exact", "ExactBatchScheduler", ("plan",)),
    (
        "pending",
        "repro.core.pending",
        "PendingList",
        (
            "append",
            "remove_many",
            "candidate_tapes",
            "requests_for_tape",
            "snapshot",
            "oldest",
        ),
    ),
    (
        "pending",
        "repro.service.multidrive",
        "ClaimFilteredPending",
        (
            "append",
            "remove_many",
            "candidate_tapes",
            "requests_for_tape",
            "snapshot",
            "oldest",
        ),
    ),
    (
        "drive_model",
        "repro.tape.drive",
        "TapeDrive",
        ("access", "rewind", "eject", "load"),
    ),
    ("drive_model", "repro.tape.robot", "RobotArm", ("swap",)),
    ("drive_model", "repro.tape.jukebox", "Jukebox", ("switch_to",)),
    (
        "metrics",
        "repro.service.metrics",
        "MetricsCollector",
        (
            "on_arrival",
            "on_completion",
            "on_drive_busy",
            "on_tape_switch",
            "on_fault",
            "on_retry",
            "on_failover",
        ),
    ),
    (
        "workload",
        "repro.workload.closed",
        "ClosedSource",
        ("initial_requests", "on_completion"),
    ),
    ("workload", "repro.workload.skew", "HotColdSkew", ("draw_block",)),
    ("workload", "repro.workload.zipf", "ZipfSkew", ("draw_block",)),
    ("workload", "repro.workload.requests", "RequestFactory", ("create",)),
    (
        "faults",
        "repro.faults.injector",
        "FaultInjector",
        (
            "read_fault",
            "condemn_replica",
            "robot_pick_fault",
            "tape_failed",
            "drive_failure_due",
            "begin_repair",
            "surviving_replicas",
            "block_lost",
        ),
    ),
    (
        "faults",
        "repro.faults.masking",
        "FaultMaskedCatalog",
        ("replicas_of", "replica_on", "has_replica_on", "tape_contents"),
    ),
)

#: Every layer, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(target[0] for target in TARGETS))


class LayerClock:
    """Per-layer self time and call counts while installed."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Event counts read at layer boundaries (decisions taken,
        #: arrivals absorbed into a sweep, exact-search nodes, ...).
        self.counts: Dict[str, int] = dict.fromkeys(
            (
                "des_events",
                "decisions",
                "absorbed_arrivals",
                "exact_nodes",
                "exact_budget_hits",
            ),
            0,
        )
        #: Wrapped calls made directly from inside each layer.
        self.children: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Inclusive time and count of nested wrapped calls, one slot
        #: per open call.
        self._child_ns: List[int] = []
        self._child_calls: List[int] = []
        self._restore: List[Tuple[type, str, Callable]] = []

    def reset(self) -> None:
        """Zero every accumulator (between runs)."""
        for table in (self.self_ns, self.calls, self.children, self.counts):
            for key in table:
                table[key] = 0

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        child_ns = self._child_ns
        child_calls = self._child_calls
        self_ns = self.self_ns
        calls = self.calls
        children = self.children
        counts = self.counts
        clock = time.perf_counter_ns

        def timed(obj, *args, **kwargs):
            child_ns.append(0)
            child_calls.append(0)
            start = clock()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - child_ns.pop()
                children[layer] += child_calls.pop()
                calls[layer] += 1
                if child_ns:
                    child_ns[-1] += elapsed
                    child_calls[-1] += 1

        if layer == "kernel":
            # The event heap's sequence number counts every scheduled
            # event, bare-delay wakeups included.
            def counted(env, *args, **kwargs):
                before = getattr(env, "_sequence", 0)
                try:
                    return timed(env, *args, **kwargs)
                finally:
                    counts["des_events"] += getattr(env, "_sequence", 0) - before

        elif name == "major_reschedule":

            def counted(scheduler, *args, **kwargs):
                decision = timed(scheduler, *args, **kwargs)
                if decision is not None:
                    counts["decisions"] += 1
                return decision

        elif layer == "incremental" and name == "on_arrival":

            def counted(scheduler, *args, **kwargs):
                absorbed = timed(scheduler, *args, **kwargs)
                if absorbed:
                    counts["absorbed_arrivals"] += 1
                return absorbed

        elif layer == "exact_search":

            def counted(scheduler, *args, **kwargs):
                order = timed(scheduler, *args, **kwargs)
                plan = getattr(scheduler, "last_plan", None)
                if plan is not None:
                    counts["exact_nodes"] += plan.nodes
                    if not plan.exact:
                        counts["exact_budget_hits"] += 1
                return order

        else:
            counted = timed
        return functools.wraps(fn)(counted)

    def corrected_self_ns(self) -> Dict[str, float]:
        """Self time per layer less the wrappers' own measured cost."""
        own_ns, caller_ns = wrapper_cost_ns()
        return {
            layer: max(
                0.0,
                self.self_ns[layer]
                - self.calls[layer] * own_ns
                - self.children[layer] * caller_ns,
            )
            for layer in LAYERS
        }

    def install(self) -> None:
        """Wrap every target that exists in the program under test."""
        if self._restore:
            raise RuntimeError("LayerClock is already installed")
        for layer, module_name, class_name, methods in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            cls = getattr(module, class_name, None)
            if cls is None:
                continue
            for name in methods:
                original = cls.__dict__.get(name)
                if not callable(original):
                    continue
                self._restore.append((cls, name, original))
                setattr(cls, name, self._wrap(layer, name, original))

    def remove(self) -> None:
        """Put every original method back."""
        while self._restore:
            cls, name, original = self._restore.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "LayerClock":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


class _Probe:
    def noop(self) -> None:
        return None


def wrapper_cost_ns(calls: int = 2000, repeats: int = 5) -> Tuple[float, float]:
    """What one wrapped call adds, in ns: to its own self time, and to
    its caller's.  Best of ``repeats`` batches, measured now."""
    clock = time.perf_counter_ns
    probe = _Probe()
    bare_fn = _Probe.noop
    best_bare = best_own = best_total = float("inf")
    for _ in range(repeats):
        probe_clock = LayerClock()
        wrapped = probe_clock._wrap("service", "noop", bare_fn)
        start = clock()
        for _ in range(calls):
            bare_fn(probe)
        best_bare = min(best_bare, (clock() - start) / calls)
        start = clock()
        for _ in range(calls):
            wrapped(probe)
        best_total = min(best_total, (clock() - start) / calls)
        best_own = min(best_own, probe_clock.self_ns["service"] / calls)
    own = max(0.0, best_own - best_bare)
    return own, max(0.0, best_total - best_own)
