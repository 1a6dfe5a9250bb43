"""Federation-level reporting: per-library reports plus the fleet rollup.

Mirrors :class:`~repro.service.farm.FarmReport` and shares its
aggregation machinery — both delegate to
:class:`~repro.service.rollup.ReportRollup`, the
``MetricRegistry.merge``-based fold — so a farm and a federation report
the same aggregate vocabulary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Tuple

from typing import TYPE_CHECKING

from ..service.metrics import MetricsReport
from ..service.rollup import ReportRollup

if TYPE_CHECKING:  # pragma: no cover - avoid a circular runtime import
    from ..obs.tracer import Tracer


@dataclass(frozen=True)
class FederationReport:
    """Aggregate metrics of a federated run plus per-library detail."""

    #: One report per library, in fleet index order.
    per_library: List[MetricsReport]
    #: Requests the routing phase sent to each library (parallel to
    #: :attr:`per_library`); the whole population under the
    #: pass-through policy.
    routed_requests: Tuple[int, ...] = ()
    #: The global policy that produced the routing.
    policy: str = ""
    #: Per-library traces (empty unless the run was traced).
    traces: List["Tracer"] = field(default_factory=list)

    @property
    def rollup(self) -> ReportRollup:
        """The additive rollup over :attr:`per_library`."""
        return ReportRollup(self.per_library)

    @property
    def size(self) -> int:
        """Number of libraries in the federation."""
        return len(self.per_library)

    @property
    def aggregate_throughput_kb_s(self) -> float:
        """Total fleet throughput (sum over libraries)."""
        return self.rollup.aggregate_throughput_kb_s

    @property
    def aggregate_requests_per_min(self) -> float:
        """Total fleet completion rate."""
        return self.rollup.aggregate_requests_per_min

    @property
    def mean_response_s(self) -> float:
        """Completion-weighted mean response time across the fleet."""
        return self.rollup.mean_response_s

    @property
    def throughput_per_library_kb_s(self) -> float:
        """Fleet throughput per library (Section 4.8 numerator, scaled out)."""
        return self.aggregate_throughput_kb_s / self.size

    @property
    def total_shed(self) -> int:
        """Requests shed by admission control across the fleet."""
        return self.rollup.total_shed

    @property
    def total_expired(self) -> int:
        """Requests expired (TTL passed) across the fleet."""
        return self.rollup.total_expired

    @property
    def deadline_miss_rate(self) -> float:
        """Finished-work-weighted deadline-miss rate across the fleet."""
        return self.rollup.deadline_miss_rate

    @property
    def worst_p99_response_s(self) -> float:
        """Largest per-library p99 response time (the fleet's SLO tail)."""
        return self.rollup.worst_p99_response_s

    @property
    def saturated_count(self) -> int:
        """Libraries whose measurement window completed nothing."""
        return self.rollup.saturated_count


def federation_report_digest(report: FederationReport) -> str:
    """A content hash of the full federation report.

    Same canonical form as :func:`repro.service.metrics.report_digest`
    (sorted-key JSON of the dataclass dict, traces excluded), so golden
    pins detect any per-library or routing drift bit-for-bit.
    """
    payload = {
        "per_library": [dataclasses.asdict(r) for r in report.per_library],
        "routed_requests": list(report.routed_requests),
        "policy": report.policy,
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
