"""TraceSummary aggregation and its JSON round-trip."""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.obs import SUMMARY_SCHEMA, Tracer, TraceSummary

#: These tests run through ``repro.api.run``; a deprecated shim sneaking
#: back in fails them.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

CONFIG = ExperimentConfig(
    tape_count=5, queue_length=15, horizon_s=30_000.0, seed=3
)


@pytest.fixture(scope="module")
def traced():
    obs = Tracer()
    result = run(CONFIG, obs=obs)
    return result, obs


def test_warmup_filter_matches_metrics_population(traced):
    result, tracer = traced
    summary = TraceSummary.from_tracer(tracer, warmup_s=CONFIG.warmup_s)
    assert summary.completed == result.report.completed
    unfiltered = TraceSummary.from_tracer(tracer, warmup_s=0.0)
    assert unfiltered.completed >= summary.completed


def test_round_trip_through_dict(traced):
    _, tracer = traced
    summary = TraceSummary.from_tracer(tracer, warmup_s=CONFIG.warmup_s)
    payload = summary.to_dict()
    assert payload["schema"] == SUMMARY_SCHEMA
    rebuilt = TraceSummary.from_dict(payload)
    assert rebuilt.to_dict() == payload
    assert rebuilt.tape_heat == summary.tape_heat  # int keys restored
    assert rebuilt.drive_busy == summary.drive_busy
    assert rebuilt.phase_means == summary.phase_means


def test_round_trip_survives_json(traced):
    import json

    _, tracer = traced
    summary = TraceSummary.from_tracer(tracer, warmup_s=CONFIG.warmup_s)
    rebuilt = TraceSummary.from_dict(
        json.loads(json.dumps(summary.to_dict()))
    )
    assert rebuilt.to_dict() == summary.to_dict()


def test_from_dict_rejects_unknown_schema():
    with pytest.raises(ValueError, match="unsupported summary schema"):
        TraceSummary.from_dict({"schema": "bogus/0"})


def test_hottest_tapes_ranked_by_reads_then_id(traced):
    _, tracer = traced
    summary = TraceSummary.from_tracer(tracer)
    ranked = summary.hottest_tapes(top=3)
    assert len(ranked) <= 3
    reads = [count for _, count in ranked]
    assert reads == sorted(reads, reverse=True)
    for (tape_a, count_a), (tape_b, count_b) in zip(ranked, ranked[1:]):
        if count_a == count_b:
            assert tape_a < tape_b


def test_drive_busy_covers_observed_kinds(traced):
    _, tracer = traced
    summary = TraceSummary.from_tracer(tracer)
    assert 0 in summary.drive_busy
    kinds = summary.drive_busy[0]
    assert kinds.get("read", 0.0) > 0.0
    assert kinds.get("switch", 0.0) > 0.0


def test_empty_tracer_summarizes_to_zeroes():
    summary = TraceSummary.from_tracer(Tracer())
    assert summary.completed == 0
    assert summary.mean_response_s == 0.0
    assert summary.phase_means == {}
    assert summary.open_requests == 0
