"""The paper's service model wired into the simulation kernel."""

from .metrics import KB, MB, MetricsCollector, MetricsReport
from .farm import FarmConfig, FarmReport, FarmResult
from .oplog import OpKind, Operation, OperationLog
from .rollup import ReportRollup, merge_reports, report_registry
from .simulator import JukeboxSimulator
from .writeback import DeltaBuffer, WritebackSimulator

__all__ = [
    "DeltaBuffer",
    "FarmConfig",
    "FarmReport",
    "FarmResult",
    "ReportRollup",
    "merge_reports",
    "report_registry",
    "JukeboxSimulator",
    "KB",
    "MB",
    "MetricsCollector",
    "MetricsReport",
    "OpKind",
    "Operation",
    "OperationLog",
    "WritebackSimulator",
]
