"""Single-experiment executor: config in, metrics out."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

from ..core.registry import make_scheduler
from ..des import Environment
from ..layout.placement import PlacementSpec, build_catalog
from ..layout.validate import validate_catalog
from ..service.metrics import MetricsCollector, MetricsReport
from ..service.simulator import JukeboxSimulator
from ..tape.jukebox import Jukebox
from ..tape.timing import EXB_8505XL
from ..workload.closed import ClosedSource
from ..workload.open import OpenSource
from ..workload.skew import HotColdSkew
from .config import ExperimentConfig

if TYPE_CHECKING:
    from ..obs.tracer import Tracer


@dataclass(frozen=True)
class ExperimentResult:
    """A config together with its measured steady-state metrics."""

    config: ExperimentConfig
    report: MetricsReport

    @property
    def throughput_kb_s(self) -> float:
        """Steady-state throughput in KB/s."""
        return self.report.throughput_kb_s

    @property
    def requests_per_min(self) -> float:
        """Steady-state completion rate."""
        return self.report.requests_per_min

    @property
    def mean_response_s(self) -> float:
        """Steady-state mean delay in seconds."""
        return self.report.mean_response_s


@lru_cache(maxsize=64)
def _cached_catalog(
    spec: PlacementSpec,
    tape_count: int,
    capacity_mb: float,
    data_blocks: int,
    expected_replicas: int,
):
    """Build-and-validate a catalog, memoized on the placement inputs.

    Catalog construction is deterministic (no RNG) and the result is
    immutable, so sweeps and campaigns that vary only the scheduler,
    seed, or workload knobs share one catalog instead of rebuilding and
    revalidating it per point — a large fraction of short-run wall time.
    """
    catalog = build_catalog(spec, tape_count, capacity_mb, data_blocks=data_blocks)
    validate_catalog(
        catalog, tape_count, capacity_mb, expected_replicas=expected_replicas
    )
    return catalog


def build_simulator(
    config: ExperimentConfig, obs: Optional[Tracer] = None
) -> JukeboxSimulator:
    """Assemble (but do not run) the simulator for ``config``.

    ``obs`` optionally attaches a :class:`~repro.obs.Tracer`.  It is a
    parameter rather than a config field so traced and untraced runs
    share one config identity (campaign cache keys, digests, and the
    golden-hash pins are all computed from the config alone).
    """
    if config.drive_technology == "serpentine":
        from ..tape.serpentine import DLT_STYLE

        timing = DLT_STYLE
    else:
        timing = EXB_8505XL
    if config.drive_speedup != 1.0:
        timing = timing.scaled(config.drive_speedup)
    spec = PlacementSpec(
        layout=config.layout,
        percent_hot=config.percent_hot,
        replicas=config.replicas,
        start_position=config.start_position,
        block_mb=config.block_mb,
        pack_cold=config.pack_cold,
    )
    catalog = _cached_catalog(
        spec,
        config.tape_count,
        config.capacity_mb,
        config.data_blocks,
        config.replicas,
    )
    rng = random.Random(config.seed)
    if config.zipf_theta is not None:
        from ..workload.zipf import ZipfSkew

        skew = ZipfSkew(theta=config.zipf_theta)
    else:
        skew = HotColdSkew(percent_requests_hot=config.percent_requests_hot)
    if config.is_closed:
        source = ClosedSource(config.queue_length, skew, catalog, rng)
    else:
        source = OpenSource(config.mean_interarrival_s, skew, catalog, rng)
    metrics = MetricsCollector(block_mb=config.block_mb, warmup_s=config.warmup_s)
    env = Environment()

    # Pay-for-what-you-use: the injector exists only when some fault
    # rate is nonzero, so fault-free runs take the exact pre-fault path.
    faults = None
    if config.faults is not None and config.faults.enabled:
        from ..faults.injector import FaultInjector

        faults = FaultInjector(
            config.faults, catalog, drive_count=config.drive_count
        )

    # Same pattern for overload control: the QoS manager exists only
    # when some knob is set, so unconfigured runs take the exact
    # pre-QoS path.
    qos = None
    if config.qos is not None and config.qos.enabled:
        from ..qos.manager import QoSManager

        qos = QoSManager(config.qos, env, metrics)

    jukebox = Jukebox.build(
        tape_count=config.tape_count, capacity_mb=config.capacity_mb, timing=timing
    )
    return JukeboxSimulator(
        env=env,
        jukebox=jukebox,
        catalog=catalog,
        scheduler=[
            make_scheduler(config.scheduler) for _ in range(config.drive_count)
        ],
        source=source,
        metrics=metrics,
        faults=faults,
        qos=qos,
        obs=obs,
    )


def _run_experiment(
    config: ExperimentConfig, obs: Optional[Tracer] = None
) -> ExperimentResult:
    """Run one simulation to its horizon and collect steady-state metrics."""
    simulator = build_simulator(config, obs=obs)
    report = simulator.run(config.horizon_s)
    return ExperimentResult(config=config, report=report)
