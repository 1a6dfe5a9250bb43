"""One function per paper figure: regenerate the plotted series.

Every function returns a :class:`FigureData`: labelled series of points
matching what the paper plots.  ``horizon_s`` and ``queue_lengths``
default to values that finish quickly; crank them up (the paper used
10 million simulated seconds) for tighter estimates — the shapes are
stable well below that.

Each figure compiles to **one** campaign submission (see
:mod:`repro.campaign`): pass ``campaign=Campaign(jobs=8, cache_dir=...)``
to regenerate a figure in parallel and serve repeated points from the
content-addressed cache.  With the default ``campaign=None`` everything
runs serially in-process, exactly as the historical loops did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.costperf import (
    cost_performance_ratio,
    effective_queue_length,
    expansion_table,
)
from ..layout.placement import Layout, expansion_factor
from .config import ExperimentConfig
from .sweeps import _campaign_or_default, curve_family, PAPER_QUEUE_LENGTHS

#: Default simulated horizon for figure regeneration (seconds).
FIGURE_HORIZON_S = 400_000.0


@dataclass
class FigureData:
    """A figure's regenerated data: labelled series of plotted points."""

    figure: str
    title: str
    annotation: str
    series: Dict[str, List] = field(default_factory=dict)

    def labels(self) -> List[str]:
        """Series labels in insertion order."""
        return list(self.series)


def _base(horizon_s: float, **overrides) -> ExperimentConfig:
    return ExperimentConfig(horizon_s=horizon_s, **overrides)


# ----------------------------------------------------------------------
# Figure 3: the effect of transfer size
# ----------------------------------------------------------------------
def figure3(
    horizon_s: float = FIGURE_HORIZON_S,
    block_sizes_mb: Sequence[float] = (1, 2, 4, 8, 16, 32, 64),
    queue_lengths: Sequence[int] = (20, 60, 100, 140),
    campaign=None,
) -> FigureData:
    """Throughput (KB/s) vs I/O transfer size, one curve per queue length.

    Paper setting: PH-10 RH-40 NR-0 SP-0, dynamic max-bandwidth.
    """
    data = FigureData(
        figure="3",
        title="The Effect of Transfer Size",
        annotation="PH-10 RH-40 NR-0 SP-0 dynamic-max-bandwidth",
    )
    grid: Dict[str, List[Tuple[float, ExperimentConfig]]] = {}
    for queue_length in queue_lengths:
        grid[f"Q-{queue_length}"] = [
            (
                float(block_mb),
                _base(
                    horizon_s,
                    scheduler="dynamic-max-bandwidth",
                    block_mb=float(block_mb),
                    queue_length=queue_length,
                ),
            )
            for block_mb in block_sizes_mb
        ]
    submission = _campaign_or_default(campaign).submit(
        config for row in grid.values() for _block, config in row
    )
    for label, row in grid.items():
        data.series[label] = [
            (block_mb, submission.require(config).throughput_kb_s)
            for block_mb, config in row
        ]
    return data


# ----------------------------------------------------------------------
# Figure 4: scheduling algorithms, no replication
# ----------------------------------------------------------------------
FIGURE4_ALGORITHMS = (
    "fifo",
    "static-round-robin",
    "static-max-requests",
    "static-max-bandwidth",
    "static-oldest-max-bandwidth",
    "dynamic-round-robin",
    "dynamic-max-requests",
    "dynamic-max-bandwidth",
    "dynamic-oldest-max-bandwidth",
)


def figure4(
    horizon_s: float = FIGURE_HORIZON_S,
    algorithms: Sequence[str] = FIGURE4_ALGORITHMS,
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> FigureData:
    """Throughput/delay parametric curves for nine algorithms (NR-0)."""
    data = FigureData(
        figure="4",
        title="Relative Performance of Scheduling Algorithms (No Replication)",
        annotation="PH-10 RH-40 NR-0 SP-0",
    )
    bases = {
        algorithm: _base(horizon_s, scheduler=algorithm) for algorithm in algorithms
    }
    data.series = curve_family(bases, queue_lengths, campaign=campaign)
    return data


# ----------------------------------------------------------------------
# Figure 5: placement of hot data, no replication
# ----------------------------------------------------------------------
def figure5(
    horizon_s: float = FIGURE_HORIZON_S,
    start_positions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> FigureData:
    """Throughput/delay as hot data placement varies (NR-0), plus vertical."""
    data = FigureData(
        figure="5",
        title="Throughput and Latency as a Function of Hot Data Placement "
        "(No Replication)",
        annotation="PH-10 RH-40 NR-0 dynamic-max-bandwidth",
    )
    bases: Dict[str, ExperimentConfig] = {}
    for start_position in start_positions:
        bases[f"SP-{start_position:g}"] = _base(
            horizon_s, start_position=start_position
        )
    bases["vertical"] = _base(horizon_s, layout=Layout.VERTICAL)
    data.series = curve_family(bases, queue_lengths, campaign=campaign)
    return data


# ----------------------------------------------------------------------
# Figure 6: number of replicas of hot data
# ----------------------------------------------------------------------
def figure6(
    horizon_s: float = FIGURE_HORIZON_S,
    replica_counts: Sequence[int] = (0, 1, 2, 4, 6, 9),
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> FigureData:
    """Throughput/delay as the number of replicas varies (vertical, SP-1)."""
    data = FigureData(
        figure="6",
        title="Throughput and Latency as a Function of Number of Replicas "
        "of Hot Data",
        annotation="PH-10 RH-40 SP-1.0 vertical dynamic-max-bandwidth",
    )
    bases = {
        f"NR-{replicas}": _base(
            horizon_s,
            layout=Layout.VERTICAL,
            replicas=replicas,
            start_position=1.0 if replicas else 0.0,
        )
        for replicas in replica_counts
    }
    data.series = curve_family(bases, queue_lengths, campaign=campaign)
    return data


# ----------------------------------------------------------------------
# Figure 7: placement of replicas
# ----------------------------------------------------------------------
def figure7(
    horizon_s: float = FIGURE_HORIZON_S,
    start_positions: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> FigureData:
    """Throughput/delay as replica placement varies under full replication."""
    data = FigureData(
        figure="7",
        title="Throughput and Latency as a Function of Replica Placement",
        annotation="PH-10 RH-40 NR-9 vertical dynamic-max-bandwidth",
    )
    bases = {
        f"SP-{start_position:g}": _base(
            horizon_s,
            layout=Layout.VERTICAL,
            replicas=9,
            start_position=start_position,
        )
        for start_position in start_positions
    }
    data.series = curve_family(bases, queue_lengths, campaign=campaign)
    return data


# ----------------------------------------------------------------------
# Figure 8: scheduling algorithms with replication
# ----------------------------------------------------------------------
FIGURE8_ALGORITHMS = (
    "static-max-bandwidth",
    "dynamic-max-requests",
    "dynamic-max-bandwidth",
    "envelope-oldest-max-requests",
    "envelope-max-requests",
    "envelope-max-bandwidth",
)


def figure8(
    horizon_s: float = FIGURE_HORIZON_S,
    algorithms: Sequence[str] = FIGURE8_ALGORITHMS,
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> FigureData:
    """Throughput/delay curves under full replication (envelope vs rest)."""
    data = FigureData(
        figure="8",
        title="Relative Performance of Scheduling Algorithms With Replication",
        annotation="PH-10 RH-40 NR-9 SP-1.0 vertical",
    )
    bases = {
        algorithm: _base(
            horizon_s,
            scheduler=algorithm,
            layout=Layout.VERTICAL,
            replicas=9,
            start_position=1.0,
        )
        for algorithm in algorithms
    }
    data.series = curve_family(bases, queue_lengths, campaign=campaign)
    return data


# ----------------------------------------------------------------------
# Figure 9: importance of skew
# ----------------------------------------------------------------------
def figure9(
    horizon_s: float = FIGURE_HORIZON_S,
    skews: Sequence[float] = (20.0, 40.0, 60.0, 80.0),
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> FigureData:
    """Throughput/delay vs skew, replicated (solid) and not (dotted).

    Best placements per the earlier figures: SP-0 for no replication,
    SP-1.0 for full replication; best algorithm (max-bandwidth envelope).
    """
    data = FigureData(
        figure="9",
        title="The Relationship Between Skew and Performance Improvements",
        annotation="PH-10 envelope-max-bandwidth",
    )
    bases: Dict[str, ExperimentConfig] = {}
    for skew in skews:
        bases[f"RH-{skew:g} NR-0"] = _base(
            horizon_s,
            scheduler="envelope-max-bandwidth",
            percent_requests_hot=skew,
            replicas=0,
            start_position=0.0,
        )
        bases[f"RH-{skew:g} NR-9"] = _base(
            horizon_s,
            scheduler="envelope-max-bandwidth",
            percent_requests_hot=skew,
            layout=Layout.VERTICAL,
            replicas=9,
            start_position=1.0,
        )
    data.series = curve_family(bases, queue_lengths, campaign=campaign)
    return data


# ----------------------------------------------------------------------
# Figure 10: cost effectiveness of replication
# ----------------------------------------------------------------------
def figure10a(
    replica_counts: Sequence[int] = tuple(range(10)),
    percent_hot_values: Sequence[float] = (5.0, 10.0, 20.0, 30.0),
    campaign=None,
) -> FigureData:
    """Expansion factor E = 1 + NR * PH / 100 (analytic).

    ``campaign`` is accepted for interface uniformity with the other
    figures but unused: no simulation runs.
    """
    data = FigureData(
        figure="10a",
        title="Storage Expansion Factor",
        annotation="E = 1 + NR x PH / 100",
    )
    for percent_hot, row in expansion_table(replica_counts, percent_hot_values).items():
        data.series[f"PH-{percent_hot:g}"] = row
    return data


def _figure10b_config(
    horizon_s: float,
    skew: float,
    replicas: int,
    queue_length: int,
) -> ExperimentConfig:
    return ExperimentConfig(
        scheduler="envelope-max-bandwidth",
        layout=Layout.VERTICAL,
        percent_hot=10.0,
        percent_requests_hot=skew,
        replicas=replicas,
        start_position=1.0 if replicas else 0.0,
        queue_length=queue_length,
        horizon_s=horizon_s,
    )


def figure10b(
    horizon_s: float = FIGURE_HORIZON_S,
    skews: Sequence[float] = (20.0, 40.0, 60.0, 80.0),
    replica_counts: Sequence[int] = (0, 1, 2, 4, 6, 9),
    base_queue_length: int = 60,
    campaign=None,
) -> FigureData:
    """Cost-performance ratio of replication vs none, per skew.

    The replicated farm needs E times more jukeboxes for the same data,
    so each jukebox sees the base workload scaled down by 1/E (paper
    Section 4.8): queue length ``round(60 / E)``.  All skews' baseline
    and replicated runs go out as one campaign submission.
    """
    data = FigureData(
        figure="10b",
        title="Cost-Performance of Replication",
        annotation=f"PH-10 SP-1.0 vertical, queue {base_queue_length}/E",
    )
    baselines: Dict[float, ExperimentConfig] = {}
    replicated: Dict[float, List[Tuple[int, ExperimentConfig]]] = {}
    for skew in skews:
        baselines[skew] = _figure10b_config(horizon_s, skew, 0, base_queue_length)
        replicated[skew] = [
            (
                replicas,
                _figure10b_config(
                    horizon_s,
                    skew,
                    replicas,
                    effective_queue_length(
                        base_queue_length, expansion_factor(replicas, 10.0)
                    ),
                ),
            )
            for replicas in replica_counts
            if replicas > 0
        ]
    submission = _campaign_or_default(campaign).submit(
        list(baselines.values())
        + [config for row in replicated.values() for _nr, config in row]
    )
    for skew in skews:
        baseline_kb_s = submission.require(baselines[skew]).throughput_kb_s
        curve: List[Tuple[int, float]] = []
        for replicas in replica_counts:
            if replicas == 0:
                curve.append((0, 1.0))
                continue
            config = dict(replicated[skew])[replicas]
            curve.append(
                (
                    replicas,
                    cost_performance_ratio(
                        submission.require(config).throughput_kb_s, baseline_kb_s
                    ),
                )
            )
        data.series[f"RH-{skew:g}"] = curve
    return data


def figure_gap(
    horizon_s: float = 200_000.0,
    queue_lengths: Sequence[int] = (20, 60, 100),
    campaign=None,
) -> FigureData:
    """Optimality gap: every heuristic vs the exact LTSP baseline.

    Not a paper figure — the paper never measures distance from
    optimal.  Each series is one scheduler's gap ratio (mean response
    over the ``exact-batch`` baseline's) across the scenario matrix of
    :func:`repro.analysis.gap.gap_scenarios`; 1.0 is optimal, and the
    paper's four heuristic families sit at or above it everywhere.
    The envelope series has no point at the multidrive scenario
    (multi-drive service excludes extension scheduling).
    """
    from ..analysis.gap import compute_gap, gap_scenarios

    scenarios = gap_scenarios(horizon_s=horizon_s, queue_lengths=queue_lengths)
    report = compute_gap(scenarios=scenarios, campaign=campaign)
    data = FigureData(
        figure="gap",
        title="Optimality Gap vs Exact LTSP Baseline",
        annotation="x = scenario: " + ", ".join(
            f"{index}={row.scenario.key}" for index, row in enumerate(report.rows)
        ),
    )
    for scheduler in report.schedulers:
        data.series[scheduler] = [
            (index, row.cell(scheduler).ratio)
            for index, row in enumerate(report.rows)
            if row.cell(scheduler) is not None
        ]
    return data


#: Registry used by the CLI: figure id -> generator function.
#: Every generator accepts ``campaign=`` (10a ignores it — analytic).
#: ``gap`` goes beyond the paper: the optimality-gap matrix of
#: :mod:`repro.analysis.gap` (see docs/SCHEDULERS.md).
FIGURES = {
    "3": figure3,
    "4": figure4,
    "5": figure5,
    "6": figure6,
    "7": figure7,
    "8": figure8,
    "9": figure9,
    "10a": figure10a,
    "10b": figure10b,
    "gap": figure_gap,
}
