"""Analytic results: cost-performance model and formal-bound helpers."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".approximations": (
            "SweepEstimate",
            "estimate_closed_throughput",
            "estimate_sweep",
            "expected_max_position",
            "requests_for_target_throughput",
        ),
        ".bounds": (
            "extension_round_trip_cost",
            "harmonic",
            "optimal_extension_cost",
            "theorem2_bound",
        ),
        ".costperf": (
            "cost_performance_curve",
            "cost_performance_ratio",
            "effective_queue_length",
            "expansion_table",
        ),
        ".gap": (
            "APPROX_POLICIES",
            "DEFAULT_BASELINE",
            "GAP_HORIZON_S",
            "GapCell",
            "GapReport",
            "GapRow",
            "GapScenario",
            "PAPER_HEURISTICS",
            "compute_gap",
            "gap_configs",
            "gap_scenarios",
        ),
    },
)

__all__ = [
    "APPROX_POLICIES",
    "DEFAULT_BASELINE",
    "GAP_HORIZON_S",
    "GapCell",
    "GapReport",
    "GapRow",
    "GapScenario",
    "PAPER_HEURISTICS",
    "SweepEstimate",
    "compute_gap",
    "gap_configs",
    "gap_scenarios",
    "cost_performance_curve",
    "estimate_closed_throughput",
    "estimate_sweep",
    "expected_max_position",
    "requests_for_target_throughput",
    "cost_performance_ratio",
    "effective_queue_length",
    "expansion_table",
    "extension_round_trip_cost",
    "harmonic",
    "optimal_extension_cost",
    "theorem2_bound",
]
