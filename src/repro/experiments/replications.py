"""Replicated runs: many seeds per configuration, with error bars.

The paper plots one long run per parameter point.  For shorter horizons
(or when publishing error bars) the standard alternative is independent
replications: run the same configuration under ``n`` seeds and form a
Student-t confidence interval over the per-run estimates.  This module
provides that harness plus a helper to decide whether two
configurations differ significantly — used by tests to keep the
benchmark assertions honest about noise.

:func:`replicate` makes one :meth:`repro.campaign.Campaign.submit`
call over the derived-seed variants of
:meth:`repro.campaign.Campaign.derive_variants`.  Pass ``campaign=`` to
run the replications in parallel and/or cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..stats.batchmeans import ConfidenceInterval, t_quantile_975
from .config import ExperimentConfig


@dataclass(frozen=True)
class ReplicatedMetric:
    """One metric's across-seed summary."""

    name: str
    values: tuple
    interval: ConfidenceInterval


@dataclass(frozen=True)
class ReplicationReport:
    """Summaries for the standard metrics over ``n`` independent runs."""

    config: ExperimentConfig
    results: tuple
    throughput_kb_s: ReplicatedMetric
    mean_response_s: ReplicatedMetric

    @property
    def replications(self) -> int:
        """Number of independent runs."""
        return len(self.results)


def _interval(values: Sequence[float]) -> ConfidenceInterval:
    count = len(values)
    mean = sum(values) / count
    if count < 2:
        return ConfidenceInterval(mean=mean, half_width=float("inf"), batch_count=count)
    variance = sum((value - mean) ** 2 for value in values) / (count - 1)
    half_width = t_quantile_975(count - 1) * math.sqrt(variance / count)
    return ConfidenceInterval(mean=mean, half_width=half_width, batch_count=count)


def replicate(
    config: ExperimentConfig,
    replications: int = 5,
    campaign=None,
) -> ReplicationReport:
    """Run ``config`` under ``replications`` derived seeds.

    ``campaign`` executes the variants (possibly in parallel, possibly
    from cache); without one a serial, uncached :class:`Campaign` runs
    them.
    """
    from ..campaign import Campaign

    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications!r}")
    variants = Campaign.derive_variants(config, replications)
    if campaign is None:
        campaign = Campaign()
    submission = campaign.submit(variants)
    results = tuple(submission.require(variant) for variant in variants)
    throughputs = tuple(result.throughput_kb_s for result in results)
    delays = tuple(result.mean_response_s for result in results)
    return ReplicationReport(
        config=config,
        results=results,
        throughput_kb_s=ReplicatedMetric(
            "throughput_kb_s", throughputs, _interval(throughputs)
        ),
        mean_response_s=ReplicatedMetric("mean_response_s", delays, _interval(delays)),
    )


def significantly_better(
    candidate: ReplicationReport,
    baseline: ReplicationReport,
    metric: str = "throughput_kb_s",
) -> bool:
    """True when ``candidate`` beats ``baseline`` beyond overlapping CIs.

    A deliberately conservative test: the 95% intervals must not
    overlap.  (Welch's t-test would be sharper; non-overlap is the
    standard eyeball rule for plotted error bars and errs toward "not
    significant".)
    """
    candidate_metric: ReplicatedMetric = getattr(candidate, metric)
    baseline_metric: ReplicatedMetric = getattr(baseline, metric)
    if metric == "mean_response_s":  # lower is better
        return candidate_metric.interval.high < baseline_metric.interval.low
    return candidate_metric.interval.low > baseline_metric.interval.high
