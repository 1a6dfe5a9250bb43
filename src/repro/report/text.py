"""Plain-text rendering of figure data: aligned tables for the terminal.

The benchmarks print these tables so the regenerated series can be read
directly next to the paper's figures.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.2f}",
) -> str:
    """Render ``rows`` under ``headers`` with right-aligned columns."""
    rendered: List[List[str]] = [[str(header) for header in headers]]
    for row in rows:
        rendered.append(
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(rendered_row[column]) for rendered_row in rendered)
        for column in range(len(headers))
    ]
    lines = []
    for index, rendered_row in enumerate(rendered):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(rendered_row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def format_parametric_series(label: str, points) -> str:
    """Render one parametric curve (CurvePoint list) as a table block."""
    rows = [
        (
            int(point.intensity),
            point.throughput_kb_s,
            point.requests_per_min,
            point.mean_response_s,
            point.tape_switches_per_hour,
        )
        for point in points
    ]
    table = format_table(
        ("queue", "KB/s", "req/min", "delay_s", "switch/h"),
        rows,
        float_format="{:.2f}",
    )
    return f"--- {label} ---\n{table}"


def format_slo_report(report) -> str:
    """Render one run's SLO accounting as an aligned two-column table.

    ``report`` is a :class:`~repro.service.metrics.MetricsReport`; the
    table covers the response-time percentiles plus the overload-control
    counters (all zero for runs without a QoS layer).
    """
    rows = [
        ("completed", report.completed),
        ("p50 response (s)", f"{report.p50_response_s:.1f}"),
        ("p95 response (s)", f"{report.p95_response_s:.1f}"),
        ("p99 response (s)", f"{report.p99_response_s:.1f}"),
        ("max response (s)", f"{report.max_response_s:.1f}"),
        ("shed requests", report.shed_requests),
        ("expired requests", report.expired_requests),
        ("deadline misses", report.deadline_misses),
        ("deadline miss rate", f"{report.deadline_miss_rate:.4f}"),
        ("forced promotions", report.forced_promotions),
        ("breaker trips", report.breaker_trips),
        ("saturated", report.saturated),
    ]
    for reason, count in sorted(report.shed_by_reason.items()):
        rows.append((f"shed[{reason}]", count))
    return format_table(("slo metric", "value"), rows)


def format_gap_report(report) -> str:
    """Render a :class:`~repro.analysis.gap.GapReport` as a ratio table.

    One row per scenario: the baseline's mean response time, then each
    scheduler's gap ratio (its mean response over the baseline's).
    1.0000 matches the per-batch-optimal baseline, which minimizes each
    batch's objective rather than the run's response time, so a ratio
    below 1 is possible; a dash marks a scheduler excluded from that
    scenario (envelope under multidrive).
    """
    headers = ["scenario", f"{report.baseline} (s)"] + list(report.schedulers)
    rows = []
    for row in report.rows:
        cells: list = [row.scenario.key, f"{row.baseline_mean_s:.1f}"]
        for scheduler in report.schedulers:
            cell = row.cell(scheduler)
            cells.append("-" if cell is None else f"{cell.ratio:.4f}")
        rows.append(cells)
    table = format_table(headers, rows)
    legend = "\n".join(
        f"  {row.scenario.key}: {row.scenario.description}" for row in report.rows
    )
    return (
        f"Optimality gap vs {report.baseline}"
        " (ratio = mean response / baseline mean response;"
        " 1.0 = per-batch optimal)\n"
        f"{table}\nscenarios:\n{legend}"
    )


def format_figure(figure_data) -> str:
    """Render a whole :class:`FigureData` for terminal output."""
    lines = [
        f"Figure {figure_data.figure}: {figure_data.title}",
        f"[{figure_data.annotation}]",
        "",
    ]
    for label, points in figure_data.series.items():
        if points and hasattr(points[0], "throughput_kb_s"):
            lines.append(format_parametric_series(label, points))
        else:
            rows = list(points)
            lines.append(
                f"--- {label} ---\n"
                + format_table(("x", "y"), rows, float_format="{:.4f}")
            )
        lines.append("")
    return "\n".join(lines)


def format_trace_summary(summary) -> str:
    """Render a :class:`~repro.obs.TraceSummary` for terminal output.

    Covers the per-phase time breakdown (with the reconciliation line
    showing the phase means summing back to the mean response time),
    outcome counts, the hottest tapes, per-drive busy breakdowns, and
    the scheduler-decision totals.
    """
    blocks = []

    phase_rows = [
        (phase, f"{seconds:.2f}")
        for phase, seconds in sorted(
            summary.phase_means.items(), key=lambda item: -item[1]
        )
    ]
    phase_rows.append(("= mean response", f"{summary.phase_mean_total():.2f}"))
    blocks.append("--- where the time went (mean s/completed request) ---")
    blocks.append(format_table(("phase", "seconds"), phase_rows))
    blocks.append(
        f"reconciliation: sum of phase means {summary.phase_mean_total():.3f} s"
        f" vs mean response {summary.mean_response_s:.3f} s"
        f" over {summary.completed} completed requests"
    )

    outcome_rows = [
        (outcome, count) for outcome, count in sorted(summary.outcomes.items())
    ]
    if summary.open_requests:
        outcome_rows.append(("(still open)", summary.open_requests))
    blocks.append("--- outcomes ---")
    blocks.append(format_table(("outcome", "requests"), outcome_rows))

    hottest = summary.hottest_tapes()
    if hottest:
        blocks.append("--- hottest tapes (delivering reads) ---")
        blocks.append(format_table(("tape", "reads"), hottest))

    if summary.drive_busy:
        kinds = sorted(
            {kind for kinds in summary.drive_busy.values() for kind in kinds}
        )
        rows = [
            (drive, *(f"{summary.drive_busy[drive].get(kind, 0.0):.0f}" for kind in kinds))
            for drive in sorted(summary.drive_busy)
        ]
        blocks.append("--- drive busy seconds by kind ---")
        blocks.append(format_table(("drive", *kinds), rows))

    decision_rows = [
        (name, count)
        for name, count in sorted(summary.decisions_by_scheduler.items())
    ]
    decision_rows.append(("total", summary.decision_count))
    if summary.forced_decisions:
        decision_rows.append(("forced (starvation guard)", summary.forced_decisions))
    blocks.append("--- scheduler decisions ---")
    blocks.append(format_table(("scheduler", "decisions"), decision_rows))

    if summary.event_counts:
        blocks.append("--- events ---")
        blocks.append(
            format_table(
                ("event", "count"), sorted(summary.event_counts.items())
            )
        )

    return "\n".join(blocks)


def format_drive_spans(spans, dropped: int = 0) -> str:
    """One line per drive span, then ``... K more`` for ``dropped`` spans.

    ``spans`` are :class:`~repro.obs.spans.DriveSpan` records, e.g. a
    capped ``Tracer.drive_spans`` with its ``dropped_drive_spans``.
    """
    lines = []
    for span in spans:
        where = ""
        if span.tape_id is not None:
            where = f" tape={span.tape_id}"
        if span.position_mb is not None:
            where += f" pos={span.position_mb:g}MB"
        if span.block_id is not None:
            where += f" block={span.block_id}"
        if span.detail is not None:
            where += f" [{span.detail}]"
        lines.append(
            f"{span.start_s:12.2f}s  drive {span.drive}  {span.kind:6s} "
            f"{span.duration_s:9.2f}s{where}"
        )
    if dropped:
        lines.append(f"... {dropped} more")
    return "\n".join(lines)
