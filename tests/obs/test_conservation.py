"""Tracing invariants across the simulator matrix.

Three properties hold for every traced run:

* **Conservation** — each terminal request's phase durations sum
  exactly to its response time (the mark-based recorder tiles
  ``[arrival, end]`` by construction).
* **Reconciliation** — the trace-side mean response over completed
  post-warmup requests equals the metrics pipeline's
  ``mean_response_s`` (same population, independent bookkeeping).
* **Pay-for-what-you-use** — attaching a tracer does not perturb the
  simulation: the report digest matches the untraced run bit for bit,
  including against the pinned golden hashes.
"""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, RetryPolicy
from repro.obs import Tracer, TraceSummary
from repro.qos import QoSConfig
from repro.service.metrics import report_digest

#: These tests run through ``repro.api.run``; a deprecated shim sneaking
#: back in fails them.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

BASE = ExperimentConfig(
    tape_count=5, queue_length=20, horizon_s=40_000.0, seed=11
)

MATRIX = {
    "fifo": BASE.with_(scheduler="fifo"),
    "dynamic": BASE.with_(scheduler="dynamic-max-requests"),
    "envelope": BASE.with_(scheduler="envelope-max-requests"),
    "multidrive": BASE.with_(drive_count=2, capacity_mb=2000.0),
    "faults": BASE.with_(
        replicas=2,
        faults=FaultConfig(
            media_error_rate=0.05, bad_replica_rate=0.02, retry=RetryPolicy()
        ),
    ),
    "qos_open": BASE.with_(
        queue_length=None,
        mean_interarrival_s=120.0,
        qos=QoSConfig(
            deadline_s=4000.0,
            admission="bounded-queue",
            max_pending=10,
            starvation_age_s=6000.0,
        ),
    ),
}

TOLERANCE_S = 1e-5


def traced_run(config):
    tracer = Tracer()
    result = run(config, obs=tracer)
    return result, tracer


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_phase_conservation(name):
    _, tracer = traced_run(MATRIX[name])
    terminal = list(tracer.terminal_traces())
    assert terminal, "run produced no terminal requests"
    for trace in terminal:
        assert trace.response_s is not None
        assert trace.phase_total() == pytest.approx(
            trace.response_s, abs=TOLERANCE_S
        ), (
            f"{name}: request {trace.request_id} ({trace.outcome}) leaks "
            f"time: phases {trace.phases} vs response {trace.response_s}"
        )


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_summary_reconciles_with_metrics(name):
    result, tracer = traced_run(MATRIX[name])
    config = MATRIX[name]
    summary = TraceSummary.from_tracer(tracer, warmup_s=config.warmup_s)
    assert summary.completed == result.report.completed
    if summary.completed:
        assert summary.mean_response_s == pytest.approx(
            result.report.mean_response_s, abs=1e-9
        )
        assert summary.phase_mean_total() == pytest.approx(
            summary.mean_response_s, abs=TOLERANCE_S
        )


@pytest.mark.parametrize("name", sorted(MATRIX))
def test_tracer_does_not_perturb_the_run(name):
    config = MATRIX[name]
    untraced = report_digest(run(config).report)
    traced = report_digest(run(config, obs=Tracer()).report)
    assert traced == untraced, (
        f"{name}: attaching a tracer changed the simulation"
    )


def test_traced_run_matches_golden_pins():
    """Tracing must hold the bit-identical guard, not just self-equality."""
    from tests.test_golden_hashes import CASES, GOLDEN

    for name in ("fig4_fifo", "fig4_multidrive"):
        digest = report_digest(
            run(CASES[name], obs=Tracer()).report
        )
        assert digest == GOLDEN[name], f"{name} drifted under tracing"


def test_every_terminal_outcome_is_reachable():
    """The matrix exercises complete, shed, and expired outcomes; failed
    requests come from the fault case when all replicas go bad."""
    outcomes = set()
    for name in ("fifo", "faults", "qos_open"):
        _, tracer = traced_run(MATRIX[name])
        summary = TraceSummary.from_tracer(tracer)
        outcomes.update(summary.outcomes)
    assert "complete" in outcomes
    assert {"shed", "expired"} & outcomes, (
        f"QoS case produced neither shed nor expired: {outcomes}"
    )


def test_decision_log_matches_scheduler():
    _, tracer = traced_run(MATRIX["envelope"])
    assert tracer.decisions
    assert all(
        record.scheduler == "envelope-max-requests"
        for record in tracer.decisions
    )
    assert all(record.request_count >= 1 for record in tracer.decisions)


def test_forced_decisions_are_flagged():
    config = BASE.with_(
        scheduler="envelope-max-requests",
        queue_length=None,
        mean_interarrival_s=60.0,
        qos=QoSConfig(starvation_age_s=1500.0),
    )
    _, tracer = traced_run(config)
    summary = TraceSummary.from_tracer(tracer)
    assert summary.forced_decisions > 0, (
        "starvation guard never forced a promotion in an overloaded run"
    )
    assert summary.forced_decisions <= summary.decision_count
