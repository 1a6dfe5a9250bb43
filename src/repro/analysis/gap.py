"""Optimality-gap analysis: every heuristic vs the exact LTSP baseline.

The paper compares its scheduler families only against each other, so it
cannot say how much headroom a heuristic leaves on the table.  With the
``exact-batch`` scheduler (see :mod:`repro.core.exact`) as the baseline,
this module measures that headroom directly: for each scenario in a
matrix spanning the paper's operating regimes (queue sweep, replication,
faults, QoS, serpentine drives, multi-drive jukeboxes), run every
scheduler under identical workloads and report the **gap ratio**

    ratio = mean_response(scheduler) / mean_response(exact baseline)

A ratio of 1.25 means the heuristic's mean response time is 25% above
the optimality baseline in that regime; the exact scheduler itself is
1.0 by construction.  All runs compile to one
:meth:`repro.campaign.Campaign.submit` call, so gap reports are cached,
parallelizable, and resumable like every other figure.

Methodology follows the paper's Figure 4 closed-loop setup (hot/cold
workload, warm-up discard, steady-state means); see docs/PAPER_MAP.md.
Scenario horizons default to 200,000 simulated seconds — long enough
that closed-loop trajectory noise (different schedulers see different
arrival interleavings after their first divergent decision) is small
against the real scheduling differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..experiments.config import ExperimentConfig
from ..faults import FaultConfig
from ..layout.placement import Layout
from ..qos import QoSConfig

#: The baseline every ratio is measured against.
DEFAULT_BASELINE = "exact-batch"

#: The paper's four scheduler families (best tape-selection policy each).
PAPER_HEURISTICS: Tuple[str, ...] = (
    "fifo",
    "static-max-bandwidth",
    "dynamic-max-bandwidth",
    "envelope-max-bandwidth",
)

#: The LTSP approximation policies (companion baselines, not paper families).
APPROX_POLICIES: Tuple[str, ...] = (
    "approx-greedy-cost",
    "approx-best-pass",
)

#: Default simulated horizon for gap scenarios (seconds).
GAP_HORIZON_S = 200_000.0


@dataclass(frozen=True)
class GapScenario:
    """One cell of the scenario matrix: a name plus its base config.

    ``config.scheduler`` is ignored — :func:`compute_gap` swaps in each
    scheduler under test via :meth:`ExperimentConfig.with_`.
    """

    key: str
    description: str
    config: ExperimentConfig

    def supports(self, scheduler: str) -> bool:
        """Whether ``scheduler`` can run in this scenario.

        Multi-drive service rejects the envelope family (extension
        passes assume one head; see repro.service.multidrive), so
        envelope schedulers are skipped on ``drive_count > 1``.
        """
        if self.config.drive_count > 1 and scheduler.startswith("envelope"):
            return False
        return True


def gap_scenarios(
    horizon_s: float = GAP_HORIZON_S,
    queue_lengths: Sequence[int] = (20, 60, 100),
) -> Tuple[GapScenario, ...]:
    """The default scenario matrix: the paper's regimes plus extensions.

    Queue sweep (closed-loop intensity), replication (NR-4 vertical at
    SP-1, the paper's best placement), faults (media errors with replica
    failover), QoS (starvation guard active), serpentine drives, and a
    two-drive jukebox.
    """

    def base(**overrides) -> ExperimentConfig:
        return ExperimentConfig(horizon_s=horizon_s, **overrides)

    scenarios = [
        GapScenario(
            key=f"q{queue_length}",
            description=f"closed queue Q-{queue_length}, paper base point",
            config=base(queue_length=queue_length),
        )
        for queue_length in queue_lengths
    ]
    scenarios += [
        GapScenario(
            key="nr4-vertical",
            description="NR-4 vertical replication at SP-1",
            config=base(replicas=4, layout=Layout.VERTICAL, start_position=1.0),
        ),
        GapScenario(
            key="faults",
            description="media errors (1%) with NR-2 failover",
            config=base(
                replicas=2, faults=FaultConfig(media_error_rate=0.01, seed=7)
            ),
        ),
        GapScenario(
            key="qos-guard",
            description="starvation guard forcing aged requests",
            config=base(qos=QoSConfig(starvation_age_s=3600.0)),
        ),
        GapScenario(
            key="serpentine",
            description="serpentine (DLT-style) drive technology",
            config=base(drive_technology="serpentine"),
        ),
        GapScenario(
            key="multidrive",
            description="three drives per jukebox (envelope excluded)",
            config=base(drive_count=3),
        ),
    ]
    return tuple(scenarios)


@dataclass(frozen=True)
class GapCell:
    """One scheduler's result in one scenario."""

    scheduler: str
    mean_response_s: float
    ratio: float


@dataclass(frozen=True)
class GapRow:
    """One scenario: the baseline's mean response plus every cell."""

    scenario: GapScenario
    baseline_mean_s: float
    cells: Tuple[GapCell, ...]

    def cell(self, scheduler: str) -> Optional[GapCell]:
        """The cell for ``scheduler``, or ``None`` if it was skipped."""
        for cell in self.cells:
            if cell.scheduler == scheduler:
                return cell
        return None


@dataclass(frozen=True)
class GapReport:
    """Gap ratios for every (scenario, scheduler) pair that ran."""

    baseline: str
    schedulers: Tuple[str, ...]
    rows: Tuple[GapRow, ...]

    def ratio(self, scenario_key: str, scheduler: str) -> float:
        """The gap ratio for one (scenario, scheduler) pair."""
        for row in self.rows:
            if row.scenario.key == scenario_key:
                cell = row.cell(scheduler)
                if cell is None:
                    raise KeyError(
                        f"{scheduler!r} was skipped in scenario {scenario_key!r}"
                    )
                return cell.ratio
        raise KeyError(f"unknown scenario {scenario_key!r}")

    def worst_ratio(self, scheduler: str) -> float:
        """The largest (worst) gap ratio ``scheduler`` shows anywhere."""
        ratios = [
            cell.ratio
            for row in self.rows
            for cell in row.cells
            if cell.scheduler == scheduler
        ]
        if not ratios:
            raise KeyError(f"no cells for scheduler {scheduler!r}")
        return max(ratios)

    def mean_ratio(self, scheduler: str) -> float:
        """The mean gap ratio across the scenarios ``scheduler`` ran in."""
        ratios = [
            cell.ratio
            for row in self.rows
            for cell in row.cells
            if cell.scheduler == scheduler
        ]
        if not ratios:
            raise KeyError(f"no cells for scheduler {scheduler!r}")
        return sum(ratios) / len(ratios)


def gap_configs(
    scenarios: Sequence[GapScenario],
    schedulers: Sequence[str],
    baseline: str = DEFAULT_BASELINE,
) -> List[ExperimentConfig]:
    """The configs one gap computation submits, in report order."""
    configs: List[ExperimentConfig] = []
    for scenario in scenarios:
        configs.append(scenario.config.with_(scheduler=baseline))
        for scheduler in schedulers:
            if scheduler != baseline and scenario.supports(scheduler):
                configs.append(scenario.config.with_(scheduler=scheduler))
    return configs


def compute_gap(
    scenarios: Optional[Sequence[GapScenario]] = None,
    schedulers: Optional[Sequence[str]] = None,
    baseline: str = DEFAULT_BASELINE,
    campaign=None,
) -> GapReport:
    """Run the scenario matrix and return per-scenario gap ratios.

    All points compile to **one** campaign submission: pass
    ``campaign=Campaign(jobs=8, cache_dir=...)`` to parallelize and to
    make the report resumable (finished points come from the cache).
    """
    if scenarios is None:
        scenarios = gap_scenarios()
    if schedulers is None:
        # Default to the paper's four heuristic families — the report's
        # question is how far *the paper's* schedulers sit from optimal.
        # The LTSP approximation policies (APPROX_POLICIES) track the
        # baseline within closed-loop trajectory noise (±0.5%), so their
        # ratios can dip fractionally below 1.0; include them explicitly
        # via ``schedulers=PAPER_HEURISTICS + APPROX_POLICIES``.
        schedulers = PAPER_HEURISTICS
    schedulers = tuple(dict.fromkeys(schedulers))

    # Lazy: repro.experiments.figures imports repro.analysis, so the
    # campaign helper cannot be a module-level import here.
    from ..experiments.sweeps import _campaign_or_default

    submission = _campaign_or_default(campaign).submit(
        gap_configs(scenarios, schedulers, baseline)
    )

    rows: List[GapRow] = []
    for scenario in scenarios:
        baseline_result = submission.require(
            scenario.config.with_(scheduler=baseline)
        )
        baseline_mean = baseline_result.report.mean_response_s
        cells: List[GapCell] = []
        for scheduler in schedulers:
            if not scenario.supports(scheduler):
                continue
            if scheduler == baseline:
                mean = baseline_mean
            else:
                result = submission.require(
                    scenario.config.with_(scheduler=scheduler)
                )
                mean = result.report.mean_response_s
            cells.append(
                GapCell(
                    scheduler=scheduler,
                    mean_response_s=mean,
                    ratio=mean / baseline_mean if baseline_mean else float("inf"),
                )
            )
        rows.append(
            GapRow(
                scenario=scenario,
                baseline_mean_s=baseline_mean,
                cells=tuple(cells),
            )
        )
    return GapReport(baseline=baseline, schedulers=schedulers, rows=tuple(rows))
