"""The paper's service model wired into the simulation kernel."""

from .metrics import KB, MB, MetricsCollector, MetricsReport
from .simulator import JukeboxSimulator
from .writeback import DeltaBuffer, WritebackSimulator

__all__ = [
    "DeltaBuffer",
    "JukeboxSimulator",
    "KB",
    "MB",
    "MetricsCollector",
    "MetricsReport",
    "WritebackSimulator",
]
