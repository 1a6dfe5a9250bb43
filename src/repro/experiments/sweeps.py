"""Parametric sweeps: families of runs traced by workload intensity.

Most of the paper's graphs are *parametric*: the independent variable
(queue length) is not on either axis; as it grows it traces a curve in
(throughput, delay) space, and a second variable (algorithm, placement,
skew, ...) yields a family of curves.

Each helper makes one :meth:`repro.campaign.Campaign.submit` call.  A
bare call runs serially and uncached; pass ``campaign=`` to run the
points in parallel and/or from a result cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .config import ExperimentConfig
from .runner import ExperimentResult

#: The paper's queue lengths: plotted points 20, 40, ..., 140.
PAPER_QUEUE_LENGTHS = (20, 40, 60, 80, 100, 120, 140)


@dataclass(frozen=True)
class CurvePoint:
    """One plotted point of a parametric curve."""

    intensity: float
    throughput_kb_s: float
    requests_per_min: float
    mean_response_s: float
    tape_switches_per_hour: float

    @classmethod
    def from_result(cls, result: ExperimentResult) -> "CurvePoint":
        """Extract the plotted quantities from a finished run."""
        config, report = result.config, result.report
        intensity = (
            float(config.queue_length)
            if config.is_closed
            else 1.0 / config.mean_interarrival_s
        )
        return cls(
            intensity=intensity,
            throughput_kb_s=report.throughput_kb_s,
            requests_per_min=report.requests_per_min,
            mean_response_s=report.mean_response_s,
            tape_switches_per_hour=report.switches_per_hour,
        )


def _campaign_or_default(campaign):
    if campaign is not None:
        return campaign
    from ..campaign import Campaign

    return Campaign()


def queue_sweep_configs(
    base: ExperimentConfig,
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
) -> List[ExperimentConfig]:
    """The configs a closed-queueing sweep submits, in plot order."""
    return [base.with_(queue_length=queue_length) for queue_length in queue_lengths]


def queue_sweep(
    base: ExperimentConfig,
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> List[CurvePoint]:
    """Trace one closed-queueing parametric curve over ``queue_lengths``."""
    configs = queue_sweep_configs(base, queue_lengths)
    submission = _campaign_or_default(campaign).submit(configs)
    return [CurvePoint.from_result(submission.require(config)) for config in configs]


def curve_family(
    bases: Dict[str, ExperimentConfig],
    queue_lengths: Sequence[int] = PAPER_QUEUE_LENGTHS,
    campaign=None,
) -> Dict[str, List[CurvePoint]]:
    """One labelled parametric curve per base config.

    The whole family goes out as **one** campaign submission, so with a
    parallel campaign every point of every curve runs concurrently.
    """
    family_configs: Dict[str, List[ExperimentConfig]] = {
        label: queue_sweep_configs(base, queue_lengths)
        for label, base in bases.items()
    }
    all_configs = [
        config for configs in family_configs.values() for config in configs
    ]
    submission = _campaign_or_default(campaign).submit(all_configs)
    return {
        label: [
            CurvePoint.from_result(submission.require(config)) for config in configs
        ]
        for label, configs in family_configs.items()
    }
