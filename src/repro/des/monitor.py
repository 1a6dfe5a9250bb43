"""Per-track busy intervals recorded during a simulation."""

from __future__ import annotations

from typing import Dict, List, Tuple


class UtilizationTimeline:
    """Per-track busy intervals with windowed utilization queries.

    A *track* is any integer lane of activity — a drive index, a robot
    arm — and each interval carries a ``kind`` label ("read", "switch",
    ...).  Intervals are recorded in start order by the simulation's
    single-threaded event loop, so queries are simple scans.  This is
    the substrate the observability layer's per-component utilization
    reports are computed from.
    """

    def __init__(self) -> None:
        #: track -> list of (start_s, end_s, kind), in start order.
        self.intervals: Dict[int, List[Tuple[float, float, str]]] = {}

    def record(self, track: int, start_s: float, end_s: float, kind: str) -> None:
        """Append one busy interval to ``track``."""
        if end_s < start_s:
            raise ValueError(f"interval ends before it starts: {start_s}..{end_s}")
        self.intervals.setdefault(track, []).append((start_s, end_s, kind))

    def tracks(self) -> List[int]:
        """All tracks with at least one interval, sorted."""
        return sorted(self.intervals)

    def busy_seconds(self, track: int, kind: str = None) -> float:
        """Total busy time on ``track`` (optionally one ``kind`` only)."""
        return sum(
            end - start
            for start, end, interval_kind in self.intervals.get(track, [])
            if kind is None or interval_kind == kind
        )

    def busy_by_kind(self, track: int) -> Dict[str, float]:
        """Busy seconds on ``track`` broken down by kind."""
        breakdown: Dict[str, float] = {}
        for start, end, kind in self.intervals.get(track, []):
            breakdown[kind] = breakdown.get(kind, 0.0) + (end - start)
        return breakdown

    def utilization(self, track: int, window_start_s: float, window_end_s: float) -> float:
        """Fraction of ``[window_start, window_end]`` the track was busy.

        Intervals are clipped to the window; returns 0.0 for an empty
        or inverted window.
        """
        window = window_end_s - window_start_s
        if window <= 0:
            return 0.0
        busy = 0.0
        for start, end, _kind in self.intervals.get(track, []):
            busy += max(0.0, min(end, window_end_s) - max(start, window_start_s))
        return busy / window
