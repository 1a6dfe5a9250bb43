"""Workload substrate: request records, skew model, and arrival sources."""

from .._lazy import lazy_exports
from .closed import ClosedSource
from .open import OpenSource
from .requests import Request, RequestFactory
from .skew import HotColdSkew, UniformSkew

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".clustered": ("ClusteredClosedSource",),
        ".zipf": ("ZipfSkew",),
        ".trace": (
            "ClosedReplaySource",
            "OpenReplaySource",
            "TraceRecord",
            "TraceRecorder",
        ),
    },
)

__all__ = [
    "ClosedReplaySource",
    "ClosedSource",
    "ClusteredClosedSource",
    "HotColdSkew",
    "OpenReplaySource",
    "OpenSource",
    "Request",
    "RequestFactory",
    "TraceRecord",
    "TraceRecorder",
    "UniformSkew",
    "ZipfSkew",
]
