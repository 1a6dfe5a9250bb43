"""The tracer's per-drive operation timeline, attached to real runs."""

import random

import pytest

from repro.core import make_scheduler
from repro.des import Environment
from repro.layout import PlacementSpec, build_catalog
from repro.obs import Tracer
from repro.obs.spans import DriveSpan
from repro.report.text import format_drive_spans
from repro.service import JukeboxSimulator, MetricsCollector
from repro.tape import Jukebox
from repro.workload import ClosedSource, HotColdSkew, OpenSource

BLOCK = 16.0


def make_simulator(obs, interarrival=None, queue_length=10, drives=1):
    catalog = build_catalog(
        PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, 7 * 1024.0
    )
    rng = random.Random(4)
    skew = HotColdSkew(40.0)
    if interarrival is None:
        source = ClosedSource(queue_length, skew, catalog, rng)
    else:
        source = OpenSource(interarrival, skew, catalog, rng)
    return JukeboxSimulator(
        env=Environment(),
        jukebox=Jukebox.build(),
        catalog=catalog,
        scheduler=[make_scheduler("dynamic-max-bandwidth") for _ in range(drives)],
        source=source,
        metrics=MetricsCollector(block_mb=BLOCK),
        obs=obs,
    )


def spans_of(tracer, kind):
    return [span for span in tracer.drive_spans if span.kind == kind]


class TestSimulatorDriveSpans:
    @pytest.mark.parametrize("drives", [1, 2])
    def test_spans_ordered_and_non_overlapping_per_drive(self, drives):
        tracer = Tracer()
        simulator = make_simulator(tracer, drives=drives)
        report = simulator.run(10_000.0)
        # Hardware counters mutate at operation *start*; a span is
        # recorded at operation *end*, so each drive's op in flight at
        # the horizon may be counted but not yet traced.
        reads = spans_of(tracer, "read")
        assert 0 <= report.total_completed - len(reads) <= drives
        # A switch span and the switch count are both recorded when the
        # exchange completes (warmup is zero here).
        assert len(spans_of(tracer, "switch")) == simulator.metrics.tape_switches
        for drive in range(drives):
            previous_end = 0.0
            for span in tracer.drive_spans:
                if span.drive != drive:
                    continue
                assert span.start_s >= previous_end - 1e-9
                previous_end = span.end_s
        assert {span.drive for span in tracer.drive_spans} == set(range(drives))

    def test_span_busy_matches_metrics(self):
        tracer = Tracer()
        simulator = make_simulator(tracer)
        simulator.run(10_000.0)
        busy = sum(
            span.duration_s for span in tracer.drive_spans if span.kind != "idle"
        )
        # Spans only cover *finished* operations; allow the one op in
        # flight at the horizon.
        assert busy <= simulator.metrics.busy_s_after_warmup + 300.0
        assert busy > 0.8 * simulator.metrics.busy_s_after_warmup

    def test_idle_spans_in_open_model(self):
        tracer = Tracer()
        make_simulator(tracer, interarrival=1_000.0).run(20_000.0)
        idles = spans_of(tracer, "idle")
        assert idles, "a lightly loaded open system must record idle gaps"
        assert sum(span.duration_s for span in idles) > 1_000.0


class TestDriveSpanCap:
    def test_cap_keeps_first_spans_and_counts_the_rest(self):
        full = Tracer()
        make_simulator(full).run(10_000.0)
        cap = 7
        assert len(full.drive_spans) > cap
        capped = Tracer(max_drive_spans=cap)
        make_simulator(capped).run(10_000.0)
        assert capped.drive_spans == full.drive_spans[:cap]
        assert capped.dropped_drive_spans == len(full.drive_spans) - cap
        assert full.dropped_drive_spans == 0
        # The utilization timeline and per-kind counters see every op.
        assert capped.timeline.intervals == full.timeline.intervals
        counters = {
            name: value
            for name, value in full.metrics.counters()
            if name.startswith("drive.")
        }
        assert counters
        for name, value in counters.items():
            assert capped.metrics.count(name) == value

    def test_zero_cap_keeps_nothing(self):
        tracer = Tracer(max_drive_spans=0)
        make_simulator(tracer).run(2_000.0)
        assert tracer.drive_spans == []
        ops = sum(
            value
            for name, value in tracer.metrics.counters()
            if name.startswith("drive.")
        )
        assert ops > 0
        assert tracer.dropped_drive_spans == ops


class TestFormatDriveSpans:
    def test_fields_and_drive_column(self):
        text = format_drive_spans(
            [
                DriveSpan(
                    drive=1, kind="read", start_s=0.0, duration_s=30.0,
                    tape_id=1, block_id=4, position_mb=64.0,
                ),
                DriveSpan(
                    drive=0, kind="fault", start_s=30.0, duration_s=0.0,
                    tape_id=2, detail="media-error",
                ),
            ]
        )
        first, second = text.splitlines()
        assert "drive 1" in first and "read" in first
        assert "tape=1" in first and "pos=64MB" in first and "block=4" in first
        assert "drive 0" in second and "[media-error]" in second
        assert "more" not in text

    def test_dropped_spans_line(self):
        spans = [DriveSpan(drive=0, kind="idle", start_s=0.0, duration_s=1.0)]
        lines = format_drive_spans(spans, dropped=10).splitlines()
        assert len(lines) == 2
        assert lines[-1] == "... 10 more"
