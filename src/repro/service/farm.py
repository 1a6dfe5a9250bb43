"""Farms of independent jukeboxes (paper Section 4.8).

The paper's cost-performance argument assumes "the total workload
applied to a farm is spread evenly over the jukeboxes" and that farms
grow one jukebox at a time.  This module makes that setup executable:
``n`` single-drive jukeboxes, each simulated independently with its own
derived random stream, with the per-jukebox closed-queue population set
to an even share of the farm's total.

Jukeboxes in a farm share nothing (each has its own drive, tapes, and
request stream), so they are simulated sequentially in separate
environments and aggregated — semantically identical to a combined
simulation and trivially parallelizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from typing import TYPE_CHECKING

from ..rng import derive_seed
from .metrics import MetricsReport
from .rollup import ReportRollup

if TYPE_CHECKING:  # pragma: no cover - avoid a circular runtime import
    from ..experiments.config import ExperimentConfig
    from ..obs.tracer import Tracer


@dataclass(frozen=True)
class FarmReport:
    """Aggregate metrics of a farm plus the per-jukebox reports.

    All additive aggregates delegate to :class:`~repro.service.rollup.
    ReportRollup`, the same ``MetricRegistry.merge``-based fold that
    backs :class:`~repro.federation.report.FederationReport`.
    """

    per_jukebox: List[MetricsReport]
    #: Per-jukebox traces, parallel to :attr:`per_jukebox`; empty unless
    #: the run was traced (``obs`` or ``tracer_factory`` on
    #: :func:`repro.api.run`).
    traces: List["Tracer"] = field(default_factory=list)

    @property
    def rollup(self) -> ReportRollup:
        """The additive rollup over :attr:`per_jukebox`."""
        return ReportRollup(self.per_jukebox)

    @property
    def size(self) -> int:
        """Number of jukeboxes in the farm."""
        return len(self.per_jukebox)

    @property
    def aggregate_throughput_kb_s(self) -> float:
        """Total farm throughput (sum over jukeboxes)."""
        return self.rollup.aggregate_throughput_kb_s

    @property
    def aggregate_requests_per_min(self) -> float:
        """Total farm completion rate."""
        return self.rollup.aggregate_requests_per_min

    @property
    def mean_response_s(self) -> float:
        """Completion-weighted mean response time across the farm."""
        return self.rollup.mean_response_s

    @property
    def throughput_per_jukebox_kb_s(self) -> float:
        """The cost-performance numerator of Section 4.8."""
        return self.aggregate_throughput_kb_s / self.size

    # ------------------------------------------------------------------
    # SLO aggregates (all zero when no jukebox runs with a QoS layer)
    # ------------------------------------------------------------------
    @property
    def total_shed(self) -> int:
        """Requests shed by admission control across the farm."""
        return self.rollup.total_shed

    @property
    def total_expired(self) -> int:
        """Requests expired (TTL passed) across the farm."""
        return self.rollup.total_expired

    @property
    def deadline_miss_rate(self) -> float:
        """Finished-work-weighted deadline-miss rate across the farm."""
        return self.rollup.deadline_miss_rate

    @property
    def worst_p99_response_s(self) -> float:
        """Largest per-jukebox p99 response time (the farm's SLO tail)."""
        return self.rollup.worst_p99_response_s

    @property
    def saturated_count(self) -> int:
        """Jukeboxes whose measurement window completed nothing."""
        return self.rollup.saturated_count


@dataclass(frozen=True)
class FarmConfig:
    """All knobs of one farm run, as a first-class config.

    A farm has the identity every other run kind has — JSON round-trip,
    content digests, campaign caching, and dispatch through
    :func:`repro.api.run`.
    """

    #: The per-jukebox config (its ``queue_length`` and ``seed`` are
    #: overridden per jukebox; everything else applies verbatim).
    base: "ExperimentConfig"
    jukebox_count: int = 2
    #: Farm-wide closed population, split evenly over the jukeboxes.
    total_queue_length: int = 60

    def __post_init__(self) -> None:
        if self.jukebox_count <= 0:
            raise ValueError(
                f"jukebox_count must be positive, got {self.jukebox_count!r}"
            )
        if self.total_queue_length < self.jukebox_count:
            raise ValueError(
                f"total queue {self.total_queue_length} cannot give every one "
                f"of {self.jukebox_count} jukeboxes at least one request"
            )
        if not self.base.is_closed:
            raise ValueError("farms are defined for the closed-queueing model")

    @property
    def warmup_s(self) -> float:
        """Warm-up cutoff in simulated seconds (per jukebox)."""
        return self.base.warmup_s

    def describe(self) -> str:
        """Compact annotation: the base config's plus the farm shape."""
        return (
            f"FARM-{self.jukebox_count} Q-{self.total_queue_length} "
            f"{self.base.describe()}"
        )

    def with_(self, **overrides) -> "FarmConfig":
        """A copy with ``overrides`` applied."""
        from dataclasses import replace

        return replace(self, **overrides)


@dataclass(frozen=True)
class FarmResult:
    """A farm config together with its aggregate report."""

    config: FarmConfig
    report: FarmReport

    @property
    def aggregate_throughput_kb_s(self) -> float:
        """Total farm throughput in KB/s."""
        return self.report.aggregate_throughput_kb_s

    @property
    def mean_response_s(self) -> float:
        """Completion-weighted farm mean response time."""
        return self.report.mean_response_s


def _run_farm(
    config: FarmConfig,
    tracer_factory: Optional[Callable[[int], "Tracer"]] = None,
) -> FarmReport:
    """Simulate a farm of ``config.jukebox_count`` identical jukeboxes.

    ``config.total_queue_length`` is the farm-wide closed population;
    each jukebox serves an even share (remainders go to the first
    jukeboxes).  Seeds are derived per jukebox so streams differ but the
    whole farm stays reproducible from ``config.base.seed``.

    ``tracer_factory`` (optional) is called as ``tracer_factory(index)``
    per jukebox; each returned :class:`~repro.obs.Tracer` is attached to
    that jukebox's run and collected on :attr:`FarmReport.traces`.
    """
    from ..experiments.runner import _run_experiment  # circular-import guard

    base = config.base
    share, remainder = divmod(config.total_queue_length, config.jukebox_count)
    reports: List[MetricsReport] = []
    traces: List["Tracer"] = []
    for index in range(config.jukebox_count):
        queue_length = share + (1 if index < remainder else 0)
        member = base.with_(
            queue_length=queue_length,
            seed=derive_seed(base.seed, f"farm:{index}") % (2**31),
        )
        obs = tracer_factory(index) if tracer_factory is not None else None
        reports.append(_run_experiment(member, obs=obs).report)
        if obs is not None:
            traces.append(obs)
    return FarmReport(per_jukebox=reports, traces=traces)
