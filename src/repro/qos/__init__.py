"""Quality-of-service layer: overload control for the service loops.

The paper's open-queueing scenario (Section 4) lets a saturated jukebox
accumulate an unbounded pending list, and its greedy schedulers trade
mean response time for tail latency.  This package adds the overload
discipline production tape stacks treat as first class:

* **admission control** (:mod:`repro.qos.admission`) — configurable
  policies applied at the pending-list boundary (unbounded,
  bounded-queue load shedding, token-bucket rate limiting), so every
  scheduler family sees the same admitted stream;
* **request deadlines** — per-request TTLs stamped at admission and
  enforced lazily (*expiry-on-dequeue*): expired requests are dropped
  from the pending list before planning and from a sweep's service
  entries before the physical read, feeding an ``on_expired`` metrics
  path instead of wasting drive time;
* **starvation guard** (:mod:`repro.qos.guard`) — a scheduler wrapper
  that force-promotes any request older than a threshold into the next
  sweep, bounding worst-case response time for every static, dynamic,
  and envelope scheduler without touching their internals;
* **watchdog + circuit breaker** (:mod:`repro.qos.breaker`) — detects
  stalled sweeps and fault storms (composing with
  :class:`~repro.faults.FaultInjector`) and flips the simulator into a
  degraded shed-load mode until pressure clears;
* **SLO accounting** — deadline-miss rate, shed/expired counts, and
  p50/p95/p99 response percentiles in
  :class:`~repro.service.metrics.MetricsReport`.

With ``qos=None`` (or the inert default :class:`QoSConfig`) the runner
skips the layer entirely and results stay bit-identical to a build
without it — the same pay-for-what-you-use guarantee as
:mod:`repro.faults`.
"""

from .._lazy import lazy_exports
from .config import QoSConfig

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".admission": (
            "AdmissionPolicy",
            "BoundedQueueAdmission",
            "TokenBucketAdmission",
            "UnboundedAdmission",
            "make_admission",
        ),
        ".breaker": ("BreakerState", "CircuitBreaker"),
        ".guard": ("StarvationGuardScheduler",),
        ".manager": ("QoSManager",),
    },
)

__all__ = [
    "AdmissionPolicy",
    "BoundedQueueAdmission",
    "BreakerState",
    "CircuitBreaker",
    "QoSConfig",
    "QoSManager",
    "StarvationGuardScheduler",
    "TokenBucketAdmission",
    "UnboundedAdmission",
    "make_admission",
]
