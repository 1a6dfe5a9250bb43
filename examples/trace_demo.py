#!/usr/bin/env python3
"""Trace a run end to end: spans, phase breakdown, and exports.

Attaches a :class:`repro.obs.Tracer` to a fault-injected envelope run,
then shows the three things the observability layer gives you:

1. *Where the time went* — the per-phase breakdown of the mean
   response time, which reconciles exactly with the metrics pipeline.
2. *A per-request audit* — the span chain of the slowest completed
   request, from arrival to delivery.
3. *Exports* — a Chrome trace-event file (drop it on
   https://ui.perfetto.dev to scrub the timeline), the full JSONL
   record stream, and the summary JSON ``tools/trace_diff.py`` diffs.

Usage::

    python examples/trace_demo.py [horizon_seconds] [output_dir]
"""

import json
import sys
import tempfile
from pathlib import Path

from repro import ExperimentConfig, Layout, run
from repro.faults import FaultConfig, RetryPolicy
from repro.obs import Tracer, TraceSummary, write_chrome_trace, write_jsonl
from repro.report.text import format_trace_summary


def main() -> None:
    horizon_s = float(sys.argv[1]) if len(sys.argv) > 1 else 100_000.0
    out_dir = (
        Path(sys.argv[2])
        if len(sys.argv) > 2
        else Path(tempfile.mkdtemp(prefix="trace-demo-"))
    )

    config = ExperimentConfig(
        scheduler="envelope-max-requests",
        layout=Layout.VERTICAL,
        replicas=2,
        start_position=1.0,
        queue_length=30,
        horizon_s=horizon_s,
        faults=FaultConfig(
            media_error_rate=0.05, bad_replica_rate=0.03, retry=RetryPolicy()
        ),
    )

    tracer = Tracer()
    result = run(config, obs=tracer)
    print(f"[{result.config.describe()}]")
    print(result.report)
    print()

    summary = TraceSummary.from_tracer(tracer, warmup_s=config.warmup_s)
    print(format_trace_summary(summary))
    print()

    completed = [
        trace
        for trace in tracer.terminal_traces()
        if trace.outcome == "complete"
    ]
    slowest = max(completed, key=lambda trace: trace.response_s)
    audits = [("slowest completed request", slowest)]
    recovered = [t for t in completed if "recovery" in t.phases]
    if recovered:
        worst = max(recovered, key=lambda t: t.phases["recovery"])
        audits.append(("completed after fault recovery/failover", worst))
    for label, trace in audits:
        print(
            f"{label}: #{trace.request_id} "
            f"(block {trace.block_id}, {trace.response_s:.1f} s end to end)"
        )
        for phase, start_s, end_s in trace.spans:
            print(f"  {start_s:>10.1f} .. {end_s:>10.1f}  {phase:<10} "
                  f"({end_s - start_s:.1f} s)")
        print()

    out_dir.mkdir(parents=True, exist_ok=True)
    chrome_path = out_dir / "trace.json"
    jsonl_path = out_dir / "trace.jsonl"
    summary_path = out_dir / "summary.json"
    payload = write_chrome_trace(tracer, str(chrome_path))
    records = write_jsonl(tracer, str(jsonl_path))
    summary_path.write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {chrome_path} ({len(payload['traceEvents'])} events) — "
          "open it at https://ui.perfetto.dev")
    print(f"wrote {jsonl_path} ({records} records)")
    print(f"wrote {summary_path} — compare runs with tools/trace_diff.py")


if __name__ == "__main__":
    main()
