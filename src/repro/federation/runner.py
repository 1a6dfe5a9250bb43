"""Federated executor: route a fleet-wide workload, then simulate each library.

A federated run has two phases:

1. **Routing** — a deterministic, seeded request stream (its own named
   RNG stream, ``federation:routing``) draws ``routing_samples``
   block requests with the fleet's RH hot/cold skew, mirrors each one
   through the global policy against the replica registry's holder
   sets, and tallies where the load lands.  The fleet's closed
   population is then apportioned to libraries proportionally to the
   routed counts, and each library's observed hot fraction becomes its
   local RH.
2. **Per-library simulation** — each library runs the *existing*
   single-/multi-drive service loop via its own derived
   :class:`~repro.experiments.config.ExperimentConfig` (per-library
   seed stream ``farm:<index>``, identical to the farm path, which is
   what makes a 1-library pass-through federation bit-identical to a
   1-jukebox farm).  Faults, QoS, and obs layers apply unchanged.

Libraries the routing phase sends nothing to produce an idle all-zero
report rather than being skipped, so per-library lists always align
with the fleet index.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from typing import TYPE_CHECKING

from ..experiments.config import ExperimentConfig
from ..rng import derive_seed
from ..service.metrics import MetricsCollector, MetricsReport
from ..tape.timing import EXB_8505XL
from .config import FederationConfig, LibraryConfig
from .policies import FleetState, GlobalPolicy
from .registry import make_global_policy
from .replica import ReplicaRegistry, apportion

if TYPE_CHECKING:  # pragma: no cover - avoid a circular runtime import
    from ..obs.tracer import Tracer

#: Named RNG stream feeding the routing phase (disjoint from every
#: per-library simulation stream by construction).
ROUTING_STREAM = "federation:routing"


@dataclass(frozen=True)
class FederationResult:
    """A federation config together with its fleet report."""

    config: FederationConfig
    report: "FederationReport"

    @property
    def aggregate_throughput_kb_s(self) -> float:
        """Total fleet throughput in KB/s."""
        return self.report.aggregate_throughput_kb_s

    @property
    def mean_response_s(self) -> float:
        """Completion-weighted fleet mean response time."""
        return self.report.mean_response_s


def predicted_service_s(library: LibraryConfig, block_mb: float) -> float:
    """Static mean-service estimate for one library, in seconds.

    A per-request cost sketch from the library's own timing model: a
    share of a tape switch (amortized over a sweep's worth of reads), a
    locate over the mean seek distance (one third of a full tape), and
    the block transfer — divided by the drive count, since drives serve
    a shared pending list.  Only *relative* magnitudes matter: the
    predicted-service policy compares libraries, never absolute times.
    """
    if library.drive_technology == "serpentine":
        from ..tape.serpentine import DLT_STYLE

        timing = DLT_STYLE
    else:
        timing = EXB_8505XL
    if library.drive_speedup != 1.0:
        timing = timing.scaled(library.drive_speedup)
    estimate = (
        timing.switch() / 8.0
        + timing.locate(0.0, library.capacity_mb / 3.0)
        + timing.read(block_mb)
    )
    return estimate / library.drive_count


def route_fleet(
    config: FederationConfig,
    registry: ReplicaRegistry,
    policy: GlobalPolicy,
) -> Tuple[List[int], List[int]]:
    """Phase 1: tally where the global policy sends the workload.

    Returns ``(routed, hot_routed)`` per library.  Deterministic given
    the config: the sample stream is seeded from
    ``derive_seed(config.seed, ROUTING_STREAM)`` and policies are
    RNG-free.
    """
    rng = random.Random(derive_seed(config.seed, ROUTING_STREAM))
    estimates = tuple(
        predicted_service_s(library, config.block_mb)
        for library in config.libraries
    )
    state = FleetState(routed=[0] * config.size, predicted_service_s=estimates)
    hot_routed = [0] * config.size
    for _ in range(config.routing_samples):
        # Mirrors HotColdSkew.draw_block against the fleet catalog.
        want_hot = rng.random() < config.percent_requests_hot / 100.0
        if want_hot and registry.n_hot > 0:
            block = rng.randrange(registry.n_hot)
        elif registry.n_cold > 0:
            block = registry.n_hot + rng.randrange(registry.n_cold)
        else:
            block = rng.randrange(registry.n_hot)
        holders = registry.holders(block)
        target = policy.route(block, holders, state)
        if target not in holders:
            raise RuntimeError(
                f"policy {policy.name!r} routed block {block} to library "
                f"{target}, which holds no copy (holders: {holders})"
            )
        state.routed[target] += 1
        if registry.is_hot(block):
            hot_routed[target] += 1
    return state.routed, hot_routed


def library_config(
    config: FederationConfig,
    registry: ReplicaRegistry,
    index: int,
    queue_length: int,
    percent_requests_hot: float,
) -> ExperimentConfig:
    """The derived single-library config for fleet member ``index``.

    Seeds use the ``farm:<index>`` stream — the same derivation as a
    :class:`~repro.service.farm.FarmConfig` run — so the 1-library
    pass-through federation reuses the farm's exact per-library configs.
    """
    library = config.libraries[index]
    return ExperimentConfig(
        scheduler=library.scheduler or config.scheduler,
        layout=config.layout,
        percent_hot=registry.local_percent_hot(index),
        percent_requests_hot=percent_requests_hot,
        replicas=registry.local_replicas(index),
        start_position=config.start_position,
        block_mb=config.block_mb,
        tape_count=library.tape_count,
        capacity_mb=library.capacity_mb,
        queue_length=queue_length,
        horizon_s=config.horizon_s,
        warmup_fraction=config.warmup_fraction,
        seed=derive_seed(config.seed, f"farm:{index}") % (2**31),
        pack_cold=config.pack_cold,
        drive_speedup=library.drive_speedup,
        drive_technology=library.drive_technology,
        drive_count=library.drive_count,
        faults=config.faults,
        qos=config.qos,
    )


def _idle_report(config: FederationConfig) -> MetricsReport:
    """The all-zero report of a library that received no work."""
    collector = MetricsCollector(
        block_mb=config.block_mb,
        warmup_s=config.horizon_s * config.warmup_fraction,
    )
    collector.finalize(config.horizon_s)
    return collector.report()


def run_federation(
    config: FederationConfig,
    tracer_factory: Optional[Callable[[int], "Tracer"]] = None,
) -> FederationResult:
    """Simulate a federated fleet end to end.

    ``tracer_factory(index)`` (optional) returns the tracer for library
    ``index`` (or ``None`` to leave it untraced), like a farm run; pass
    ``obs=`` to :func:`repro.api.run` to trace library 0 only.
    """
    from ..experiments.runner import _run_experiment  # circular-import guard
    from .report import FederationReport

    registry = ReplicaRegistry(config)
    policy = make_global_policy(config.global_policy)
    if policy.bypass_routing and config.size != 1:
        raise ValueError(
            f"global policy {config.global_policy!r} bypasses routing and "
            f"requires exactly one library, got {config.size}"
        )

    if policy.bypass_routing:
        # No routing stream consumed: the one library serves the whole
        # population at home, exactly like a 1-jukebox farm.
        queue_lengths = [config.queue_length]
        routed = list(queue_lengths)
        local_rh = [config.percent_requests_hot]
    else:
        routed, hot_routed = route_fleet(config, registry, policy)
        queue_lengths = apportion(
            config.queue_length, [float(count) for count in routed]
        )
        local_rh = [
            100.0 * hot_routed[index] / routed[index]
            if routed[index] > 0
            else config.percent_requests_hot
            for index in range(config.size)
        ]

    reports: List[MetricsReport] = []
    traces: List["Tracer"] = []
    for index in range(config.size):
        tracer = tracer_factory(index) if tracer_factory is not None else None
        if queue_lengths[index] == 0:
            reports.append(_idle_report(config))
        else:
            local = library_config(
                config, registry, index, queue_lengths[index], local_rh[index]
            )
            reports.append(_run_experiment(local, obs=tracer).report)
        if tracer is not None:
            traces.append(tracer)
    report = FederationReport(
        per_library=reports,
        routed_requests=tuple(routed),
        policy=config.global_policy,
        traces=traces,
    )
    return FederationResult(config=config, report=report)
