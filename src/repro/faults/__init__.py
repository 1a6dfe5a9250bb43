"""Fault injection and recovery for the jukebox simulator.

The subsystem has three layers:

* **injection** — :class:`FaultInjector` raises typed, seeded faults
  (transient :class:`MediaError`, permanent :class:`BadBlockError`,
  :class:`DriveFailureError` under an MTBF/MTTR clock, and
  :class:`RobotPickError`) against the simulator's drive operations;
* **recovery** — :class:`RetryPolicy` bounds retries with exponential
  backoff in simulated time; replica failover re-queues a failed read
  against a surviving copy from the catalog; failed drives release
  their claimed tapes and their sweeps are redistributed (multi-drive
  degraded mode);
* **masking** — :class:`FaultMaskedCatalog` hides out-of-service tapes
  from every scheduler's replica and candidate queries.

With all rates zero (the default :class:`FaultConfig`) the runner skips
the subsystem entirely and simulation results are bit-identical to a
fault-free build.
"""

from .._lazy import lazy_exports
from .config import FaultConfig
from .retry import RetryPolicy

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".errors": (
            "BadBlockError",
            "DriveFailureError",
            "FaultError",
            "MediaError",
            "RobotPickError",
        ),
        ".injector": ("FaultInjector",),
        ".masking": ("FaultMaskedCatalog",),
    },
)

__all__ = [
    "BadBlockError",
    "DriveFailureError",
    "FaultConfig",
    "FaultError",
    "FaultInjector",
    "FaultMaskedCatalog",
    "MediaError",
    "RetryPolicy",
    "RobotPickError",
]
