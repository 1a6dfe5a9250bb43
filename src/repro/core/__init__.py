"""The paper's core contribution: tape jukebox retrieval scheduling."""

from .._lazy import lazy_exports
from .base import MajorDecision, Scheduler, SchedulerContext, coalesce_entries
from .cost import (
    ExtensionCostTracker,
    SweepCost,
    effective_bandwidth,
    schedule_time,
    sweep_cost,
)
from .dynamic import DynamicScheduler
from .fifo import FifoScheduler
from .pending import PendingList
from .policies import (
    MaxBandwidth,
    MaxRequests,
    OldestRequestMaxBandwidth,
    OldestRequestMaxRequests,
    POLICIES,
    RoundRobin,
    SelectionContext,
    TapeSelectionPolicy,
    jukebox_order,
)
from .registry import make_scheduler, scheduler_names
from .static_ import StaticScheduler
from .sweep import ServiceEntry, ServiceList, SweepPhase

# The envelope and LTSP families load when a run or a caller first asks
# for them; the static, dynamic and FIFO families never need them.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".envelope": ("EnvelopeComputer", "EnvelopeScheduler", "EnvelopeState"),
        ".exact": (
            "BatchPlan",
            "BestPassScheduler",
            "DEFAULT_NODE_BUDGET",
            "ExactBatchScheduler",
            "GreedyCostScheduler",
            "OrderedServiceList",
            "best_pass_order",
            "greedy_cost_order",
            "optimal_order",
            "order_cost",
            "reverse_first_order",
            "sweep_order",
        ),
    },
)

__all__ = [
    "BatchPlan",
    "BestPassScheduler",
    "DEFAULT_NODE_BUDGET",
    "DynamicScheduler",
    "ExactBatchScheduler",
    "GreedyCostScheduler",
    "OrderedServiceList",
    "EnvelopeComputer",
    "EnvelopeScheduler",
    "EnvelopeState",
    "ExtensionCostTracker",
    "FifoScheduler",
    "MajorDecision",
    "MaxBandwidth",
    "MaxRequests",
    "OldestRequestMaxBandwidth",
    "OldestRequestMaxRequests",
    "POLICIES",
    "PendingList",
    "RoundRobin",
    "Scheduler",
    "SchedulerContext",
    "SelectionContext",
    "ServiceEntry",
    "ServiceList",
    "StaticScheduler",
    "SweepCost",
    "SweepPhase",
    "TapeSelectionPolicy",
    "best_pass_order",
    "coalesce_entries",
    "effective_bandwidth",
    "greedy_cost_order",
    "jukebox_order",
    "make_scheduler",
    "optimal_order",
    "order_cost",
    "reverse_first_order",
    "scheduler_names",
    "schedule_time",
    "sweep_cost",
    "sweep_order",
]
