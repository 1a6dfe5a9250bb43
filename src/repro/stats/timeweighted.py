"""Time-weighted statistics for piecewise-constant signals.

Queue length, drive utilization, and similar signals change at event
instants and hold their value in between, so their mean must be weighted
by how long each value persisted.
"""

from __future__ import annotations

from typing import Optional


class TimeWeightedStats:
    """Accumulates a piecewise-constant signal's time-weighted statistics.

    Call :meth:`update` at every instant the signal changes, then
    :meth:`finalize` (or read :attr:`mean` with an explicit ``now``) at the
    end of the run.
    """

    def __init__(self, initial_time: float = 0.0, initial_value: float = 0.0) -> None:
        self._last_time = float(initial_time)
        self._last_value = float(initial_value)
        self._weighted_sum = 0.0
        self._weighted_sq_sum = 0.0
        self._elapsed = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def update(self, now: float, value: float) -> None:
        """Record that the signal takes ``value`` from time ``now`` onward."""
        now = float(now)
        last_time = self._last_time
        if now < last_time:
            raise ValueError(f"time went backwards: {now} < {last_time}")
        # _accumulate(now), inlined: the same expressions in the same order.
        span = now - last_time
        if span > 0:
            last_value = self._last_value
            self._weighted_sum += span * last_value
            self._weighted_sq_sum += span * last_value * last_value
            self._elapsed += span
        self._last_time = now
        self._last_value = float(value)
        if self._min is None or value < self._min:
            self._min = float(value)
        if self._max is None or value > self._max:
            self._max = float(value)

    def _accumulate(self, now: float) -> None:
        span = now - self._last_time
        if span > 0:
            self._weighted_sum += span * self._last_value
            self._weighted_sq_sum += span * self._last_value * self._last_value
            self._elapsed += span
        self._last_time = now

    def finalize(self, now: float) -> None:
        """Extend the current value up to ``now`` (end of run)."""
        self._accumulate(float(now))

    @property
    def elapsed(self) -> float:
        """Total time accumulated so far."""
        return self._elapsed

    @property
    def mean(self) -> float:
        """Time-weighted mean of the signal (0.0 if no time elapsed)."""
        if self._elapsed == 0:
            return 0.0
        return self._weighted_sum / self._elapsed

    @property
    def mean_square(self) -> float:
        """Time-weighted mean of the squared signal."""
        if self._elapsed == 0:
            return 0.0
        return self._weighted_sq_sum / self._elapsed

    @property
    def variance(self) -> float:
        """Time-weighted population variance."""
        mean = self.mean
        return max(0.0, self.mean_square - mean * mean)

    @property
    def minimum(self) -> float:
        """Smallest value observed (0.0 if never updated)."""
        return self._min if self._min is not None else 0.0

    @property
    def maximum(self) -> float:
        """Largest value observed (0.0 if never updated)."""
        return self._max if self._max is not None else 0.0
