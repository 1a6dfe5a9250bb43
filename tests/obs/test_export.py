"""Exporter contracts: determinism, round-trips, Chrome schema."""

import json

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, RetryPolicy
from repro.obs import (
    JSONL_SCHEMA,
    Tracer,
    parse_jsonl,
    to_chrome_trace,
    trace_to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

#: These tests run through ``repro.api.run``; a deprecated shim sneaking
#: back in fails them.
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

CONFIG = ExperimentConfig(
    tape_count=5,
    queue_length=15,
    horizon_s=30_000.0,
    seed=9,
    replicas=2,
    faults=FaultConfig(media_error_rate=0.05, retry=RetryPolicy()),
)


@pytest.fixture(scope="module")
def tracer():
    obs = Tracer()
    run(CONFIG, obs=obs)
    return obs


class TestJsonl:
    def test_identical_runs_export_identically(self):
        texts = []
        for _ in range(2):
            obs = Tracer()
            run(CONFIG, obs=obs)
            texts.append("\n".join(trace_to_jsonl(obs)))
        assert texts[0] == texts[1]

    def test_round_trip_preserves_populations(self, tracer):
        grouped = parse_jsonl(trace_to_jsonl(tracer))
        assert grouped["meta"][0]["schema"] == JSONL_SCHEMA
        assert len(grouped["request"]) == len(tracer.requests)
        assert len(grouped["op"]) == len(tracer.drive_spans)
        assert len(grouped["decision"]) == len(tracer.decisions)
        assert len(grouped["event"]) == len(tracer.events)
        assert len(grouped["counters"]) == 1

    def test_request_records_round_trip_phases(self, tracer):
        grouped = parse_jsonl(trace_to_jsonl(tracer))
        by_id = {record["request_id"]: record for record in grouped["request"]}
        for request_id, trace in tracer.requests.items():
            record = by_id[request_id]
            assert record["block_id"] == trace.block_id
            assert record["phases"] == pytest.approx(trace.phases)

    def test_write_jsonl_counts_lines(self, tracer, tmp_path):
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(tracer, str(path))
        assert count == len(path.read_text().splitlines())
        parse_jsonl(path.read_text().splitlines())  # still valid from disk

    def test_bad_schema_is_rejected(self):
        lines = [json.dumps({"type": "meta", "schema": "something-else/9"})]
        with pytest.raises(ValueError, match="unsupported schema"):
            parse_jsonl(lines)

    def test_missing_required_key_is_rejected(self):
        lines = [
            json.dumps({"type": "meta", "schema": JSONL_SCHEMA}),
            json.dumps({"type": "op", "drive": 0, "kind": "read"}),
        ]
        with pytest.raises(ValueError, match="missing"):
            parse_jsonl(lines)

    def test_unknown_record_type_is_rejected(self):
        with pytest.raises(ValueError, match="unknown record type"):
            parse_jsonl([json.dumps({"type": "mystery"})])


class TestChromeTrace:
    def test_export_validates(self, tracer):
        payload = to_chrome_trace(tracer)
        counts = validate_chrome_trace(payload)
        assert counts.get("X", 0) == len(tracer.drive_spans)
        assert counts.get("b", 0) == counts.get("e", 0) > 0

    def test_max_requests_caps_async_slices(self, tracer):
        full = validate_chrome_trace(to_chrome_trace(tracer))
        capped_payload = to_chrome_trace(tracer, max_requests=3)
        capped = validate_chrome_trace(capped_payload)
        assert capped["b"] < full["b"]
        request_ids = {
            event["id"]
            for event in capped_payload["traceEvents"]
            if event["ph"] == "b"
        }
        assert len(request_ids) == 3

    def test_write_chrome_trace_is_loadable_json(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)

    def test_unbalanced_async_is_rejected(self):
        payload = {
            "traceEvents": [
                {
                    "name": "queue", "ph": "b", "cat": "request",
                    "pid": 2, "tid": 1, "id": 1, "ts": 0.0,
                }
            ]
        }
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace(payload)

    def test_unknown_phase_is_rejected(self):
        payload = {
            "traceEvents": [
                {"name": "x", "ph": "Z", "pid": 1, "tid": 1, "ts": 0.0}
            ]
        }
        with pytest.raises(ValueError, match="unknown phase"):
            validate_chrome_trace(payload)
