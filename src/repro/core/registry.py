"""Scheduler registry: name -> fresh scheduler instance.

Names follow ``<family>-<policy>``:

* ``fifo``
* ``static-{round-robin,max-requests,max-bandwidth,oldest-max-requests,
  oldest-max-bandwidth}``
* ``dynamic-{...same five...}``
* ``envelope-{oldest-max-requests,max-requests,max-bandwidth}``
* ``exact-batch`` (the per-batch-optimal LTSP baseline) and
  ``approx-{greedy-cost,best-pass}`` (see :mod:`repro.core.exact`)

Schedulers carry per-sweep state, so every lookup returns a new instance.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List

from .base import Scheduler
from .dynamic import DynamicScheduler
from .fifo import FifoScheduler
from .policies import (
    MaxBandwidth,
    MaxRequests,
    OldestRequestMaxBandwidth,
    OldestRequestMaxRequests,
    RoundRobin,
)
from .static_ import StaticScheduler

_POLICY_FACTORIES = {
    "round-robin": RoundRobin,
    "max-requests": MaxRequests,
    "max-bandwidth": MaxBandwidth,
    "oldest-max-requests": OldestRequestMaxRequests,
    "oldest-max-bandwidth": OldestRequestMaxBandwidth,
}

_ENVELOPE_POLICIES = ("oldest-max-requests", "max-requests", "max-bandwidth")


def _build_registry() -> Dict[str, Callable[[], Scheduler]]:
    registry: Dict[str, Callable[[], Scheduler]] = {"fifo": FifoScheduler}
    for policy_name, policy_factory in _POLICY_FACTORIES.items():
        registry[f"static-{policy_name}"] = (
            lambda factory=policy_factory: StaticScheduler(factory())
        )
        registry[f"dynamic-{policy_name}"] = (
            lambda factory=policy_factory: DynamicScheduler(factory())
        )
    for policy_name in _ENVELOPE_POLICIES:
        policy_factory = _POLICY_FACTORIES[policy_name]
        registry[f"envelope-{policy_name}"] = (
            lambda factory=policy_factory: _family("envelope").EnvelopeScheduler(
                factory()
            )
        )
    registry["exact-batch"] = lambda: _family("exact").ExactBatchScheduler()
    registry["approx-greedy-cost"] = lambda: _family("exact").GreedyCostScheduler()
    registry["approx-best-pass"] = lambda: _family("exact").BestPassScheduler()
    return registry


def _family(module: str):
    """A scheduler family's module, imported by its factories so that a
    run of another family never loads it."""
    return importlib.import_module(f".{module}", __package__)


_REGISTRY = _build_registry()


def scheduler_names() -> List[str]:
    """All registered scheduler names, sorted."""
    return sorted(_REGISTRY)


def make_scheduler(name: str) -> Scheduler:
    """Instantiate the scheduler registered under ``name``."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(scheduler_names())
        raise KeyError(f"unknown scheduler {name!r}; known: {known}") from None
    return factory()
