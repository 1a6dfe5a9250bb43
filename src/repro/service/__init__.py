"""The paper's service model wired into the simulation kernel."""

from .._lazy import lazy_exports
from .metrics import KB, MB, MetricsCollector, MetricsReport
from .simulator import JukeboxSimulator

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".writeback": ("DeltaBuffer", "WritebackSimulator"),
    },
)

__all__ = [
    "DeltaBuffer",
    "JukeboxSimulator",
    "KB",
    "MB",
    "MetricsCollector",
    "MetricsReport",
    "WritebackSimulator",
]
