"""A fixed reference loop that measures how fast the host runs right now.

On a shared machine the speed of one core drifts by a third or more
over a few seconds, as neighbours come and go.  The benchmark times
:func:`reference_loop` next to every simulation run and reports host
times *calibrated* to a nominal reference duration::

    calibrated = measured * NOMINAL_REFERENCE_S / reference_time

so a run that happened while the core was slow reads the same as one
that happened while it was fast.  The loop is pure Python, like the
simulator (a heap of tuples, slotted objects, dict counters, small
lists), and it never changes between commits, so calibrated times of
two commits compare as a same-machine ratio.  The raw times are
reported too, in the traced run.
"""

from __future__ import annotations

import heapq
import random
import time

#: Reference-loop duration that calibrated times are scaled to (about
#: its duration on a 2-vCPU x86-64 cloud VM running Python 3.11).
NOMINAL_REFERENCE_S = 0.025


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value

    def bump(self, amount: float) -> float:
        self.value += amount
        return self.value


def reference_loop(steps: int = 10_000) -> float:
    """A fixed amount of interpreter work; returns a checksum."""
    rng = random.Random(12345)
    heap = []
    counts = {}
    slots = [_Slot(key, 0.0) for key in range(256)]
    total = 0.0
    for step in range(steps):
        heapq.heappush(heap, (rng.random() * 100.0, step, slots[step & 255]))
        if len(heap) > 64:
            when, _, slot = heapq.heappop(heap)
            total += slot.bump(when)
            counts[slot.key] = counts.get(slot.key, 0) + 1
        total += sum([value for value in range(step & 15)]) * 0.5
    return total


def time_reference() -> float:
    """Seconds one :func:`reference_loop` takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
