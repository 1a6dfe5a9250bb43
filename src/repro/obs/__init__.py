"""Structured tracing and observability for the jukebox simulators.

``repro.obs`` answers *where did the time go?* for a simulated run.
Attach a :class:`Tracer` to a simulator (``obs=`` on the constructors
and on :func:`repro.api.run`) and every
admitted request accumulates a chain of typed phase spans from arrival
to its terminal outcome, every drive gets an activity timeline, every
major reschedule lands in a decision log, and fault/QoS events are
recorded as instantaneous structured events.

The layer is strictly pay-for-what-you-use: with ``obs=None`` (the
default) no tracing code runs and results are bit-identical to an
untraced build — the golden-hash tests pin this.

Exports: JSONL (:func:`write_jsonl`) and Chrome trace-event JSON
(:func:`write_chrome_trace`, loadable in Perfetto); aggregates:
:class:`TraceSummary`.  See ``docs/OBSERVABILITY.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".export": (
            "JSONL_SCHEMA",
            "parse_jsonl",
            "to_chrome_trace",
            "trace_to_jsonl",
            "validate_chrome_trace",
            "write_chrome_trace",
            "write_jsonl",
        ),
        ".registry": ("MetricRegistry",),
        ".spans": (
            "OUTCOMES",
            "PHASES",
            "DecisionRecord",
            "DriveSpan",
            "RequestTrace",
            "TraceEvent",
        ),
        ".summary": ("SUMMARY_SCHEMA", "TraceSummary"),
        ".tracer": ("Tracer",),
    },
)

__all__ = [
    "DecisionRecord",
    "DriveSpan",
    "JSONL_SCHEMA",
    "MetricRegistry",
    "OUTCOMES",
    "PHASES",
    "RequestTrace",
    "SUMMARY_SCHEMA",
    "TraceEvent",
    "TraceSummary",
    "Tracer",
    "parse_jsonl",
    "to_chrome_trace",
    "trace_to_jsonl",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
