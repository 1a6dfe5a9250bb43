"""Online statistics substrate for the simulation metric collectors."""

from .._lazy import lazy_exports
from .histogram import Histogram, exact_percentile
from .online import RunningStats
from .timeweighted import TimeWeightedStats

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".batchmeans": (
            "BatchMeans",
            "ConfidenceInterval",
            "batch_means_interval",
            "t_quantile_975",
        ),
        ".warmup": ("WarmupFilter",),
    },
)

__all__ = [
    "BatchMeans",
    "ConfidenceInterval",
    "Histogram",
    "RunningStats",
    "TimeWeightedStats",
    "WarmupFilter",
    "batch_means_interval",
    "exact_percentile",
    "t_quantile_975",
]
