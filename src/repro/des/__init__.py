"""A small discrete-event simulation kernel (substrate).

The paper's evaluation rests on a discrete-event simulator.  This package
provides the kernel: an :class:`Environment` with a deterministic event
heap, generator-coroutine :class:`Process` objects, composable events, a
blocking :class:`Store`, and a :class:`UtilizationTimeline` of busy
intervals.
"""

from .._lazy import lazy_exports
from .environment import EmptySchedule, Environment
from .events import (
    AllOf,
    AnyOf,
    Event,
    EventAlreadyTriggered,
    Interrupt,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Timeout,
)
from .process import Process
from .queues import Resource, Store

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".monitor": ("UtilizationTimeline",),
    },
)

__all__ = [
    "AllOf",
    "AnyOf",
    "EmptySchedule",
    "Environment",
    "Event",
    "EventAlreadyTriggered",
    "Interrupt",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "Resource",
    "Store",
    "Timeout",
    "UtilizationTimeline",
]
