"""Analytic schedule cost model.

Computes, without touching any drive state, the execution time of a sweep
and the *effective bandwidth* of a candidate schedule (paper Section 3.1:
bytes retrieved divided by total seconds including tape-switch overhead).
The arithmetic mirrors :class:`repro.tape.drive.TapeDrive` exactly — a
property the test suite asserts — so scheduling decisions are consistent
with what the simulated hardware will actually do.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..tape.timing import DriveTimingModel

#: Bytes per MB, used when converting block counts to bytes.
MB = 1 << 20


@dataclass(frozen=True)
class SweepCost:
    """Breakdown of a sweep's execution time."""

    locate_s: float
    read_s: float
    end_head_mb: float

    @property
    def total_s(self) -> float:
        """Locate plus read time for the sweep."""
        return self.locate_s + self.read_s


def _sweep(
    timing: DriveTimingModel,
    head_mb: float,
    positions: Sequence[float],
    block_mb: float,
    startup_pending: bool,
) -> Tuple[float, float, float]:
    """The sweep kernel: ``(locate_s, read_s, end_head_mb)``.

    Blocks at or beyond the head are read in ascending order, then the
    rest in descending order.  For a plain :class:`DriveTimingModel`
    the per-block loop runs call-free on :func:`extension_constants`,
    evaluating the exact expressions ``locate_forward``,
    ``locate_reverse`` and ``read`` would have (``distance <= short
    threshold`` is the segment rule of their ``bisect_left``), with the
    sums taken in the same order, so every float is bit-identical to
    the method-call loop that any other model (e.g. a serpentine
    subclass) runs.
    """
    ordered = sorted(positions)
    split = bisect_left(ordered, head_mb)
    forward = ordered[split:] if split else ordered
    reverse = ordered[split - 1 :: -1] if split else ()
    constants = extension_constants(timing, block_mb)
    locate_s = 0.0
    read_s = 0.0
    head = head_mb
    if constants is None:
        locate_forward = timing.locate_forward
        locate_reverse = timing.locate_reverse
        read_plain_s = timing.read(block_mb, startup=False)
        read_startup_s = timing.read(block_mb, startup=True)
        for position in forward:
            distance = position - head
            if distance > 0:
                locate_s += locate_forward(distance)
                startup_pending = True
            read_s += read_startup_s if startup_pending else read_plain_s
            startup_pending = False
            head = position + block_mb
        for position in reverse:
            distance = head - position
            if distance > 0:
                locate_s += locate_reverse(distance, lands_on_bot=(position == 0))
                startup_pending = False
            read_s += read_startup_s if startup_pending else read_plain_s
            startup_pending = False
            head = position + block_mb
        return locate_s, read_s, head
    threshold = constants.short_threshold_mb
    forward_short_startup = constants.forward_short_startup
    forward_short_rate = constants.forward_short_rate
    forward_long_startup = constants.forward_long_startup
    forward_long_rate = constants.forward_long_rate
    read_plain_s = constants.read_plain_s
    read_startup_s = constants.read_startup_s
    for position in forward:
        distance = position - head
        if distance > 0:
            locate_s += (
                forward_short_startup + forward_short_rate * distance
                if distance <= threshold
                else forward_long_startup + forward_long_rate * distance
            )
            startup_pending = True
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    for position in reverse:
        distance = head - position
        if distance > 0:
            seconds = (
                constants.reverse_short_startup
                + constants.reverse_short_rate * distance
                if distance <= threshold
                else constants.reverse_long_startup
                + constants.reverse_long_rate * distance
            )
            if position == 0:
                seconds += constants.bot_overhead_s
            locate_s += seconds
            startup_pending = False
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    return locate_s, read_s, head


def sweep_cost(
    timing: DriveTimingModel,
    head_mb: float,
    positions: Sequence[float],
    block_mb: float,
    startup_pending: bool = True,
) -> SweepCost:
    """Cost of a forward-then-reverse sweep from ``head_mb``.

    ``positions`` are block start positions in any order.  Each entry is
    charged as one block read, so a position listed twice is read twice:
    coalesce duplicates first to cost the sweep the drive will run.
    ``startup_pending`` mirrors the drive's state: whether a read begun
    without any repositioning would still pay the forward startup.
    Returns the time split and the final head position (end of the last
    block read).
    """
    locate_s, read_s, end_head_mb = _sweep(
        timing, head_mb, positions, block_mb, startup_pending
    )
    return SweepCost(locate_s=locate_s, read_s=read_s, end_head_mb=end_head_mb)


def schedule_time(
    timing: DriveTimingModel,
    positions: Sequence[float],
    block_mb: float,
    mounted: bool,
    head_mb: float,
    rewind_from_mb: float = 0.0,
    switch_s: Optional[float] = None,
) -> float:
    """Total seconds to service ``positions`` on a candidate tape.

    For the currently mounted tape (``mounted=True``) this is just the
    sweep from ``head_mb``.  For another tape it adds the full switch
    overhead — rewinding the mounted tape from ``rewind_from_mb``, eject,
    robot swap, load — and sweeps from position 0.  ``switch_s``, when
    given, is that overhead already computed
    (``timing.switch_with_rewind(rewind_from_mb)``), for callers that
    rank many tapes against one mounted head.
    """
    if mounted:
        locate_s, read_s, _ = _sweep(timing, head_mb, positions, block_mb, True)
        return locate_s + read_s
    if switch_s is None:
        switch_s = timing.switch_with_rewind(rewind_from_mb)
    locate_s, read_s, _ = _sweep(timing, 0.0, positions, block_mb, True)
    return switch_s + (locate_s + read_s)


def effective_bandwidth(
    timing: DriveTimingModel,
    positions: Sequence[float],
    block_mb: float,
    mounted: bool,
    head_mb: float,
    rewind_from_mb: float = 0.0,
    switch_s: Optional[float] = None,
) -> float:
    """Effective bandwidth (bytes/s) of servicing ``positions`` on a tape.

    Arguments are those of :func:`schedule_time`.
    """
    if not positions:
        return 0.0
    seconds = schedule_time(
        timing, positions, block_mb, mounted, head_mb, rewind_from_mb, switch_s
    )
    if seconds <= 0:
        return float("inf")
    return len(positions) * block_mb * MB / seconds


@dataclass(frozen=True)
class ExtensionConstants:
    """Flattened timing constants for call-free cost loops.

    The envelope scheduler's step-3 search evaluates an incremental
    bandwidth for *every* candidate prefix length on every tape, and
    every max-bandwidth decision costs a full sweep on every candidate
    tape; going through the model's methods (or
    :class:`ExtensionCostTracker`) costs a method call plus memo-dict
    lookups per block.  For the plain piecewise-linear
    :class:`~repro.tape.timing.DriveTimingModel` those calls reduce to
    straight-line arithmetic over a handful of constants.  This bundle
    hoists them once so both loops can run call-free.

    Every float here is produced by the timing model's own methods, and
    the consumer applies them with the exact expressions the tracker's
    ``locate_forward``/``locate_reverse``/``read`` calls would have
    evaluated, so the resulting bandwidths are bit-identical.  Only
    exact :class:`DriveTimingModel` instances qualify (a subclass may
    override the locate arithmetic): callers must check
    :func:`extension_constants` for ``None`` and fall back to the
    method calls.
    """

    short_threshold_mb: float
    forward_short_startup: float
    forward_short_rate: float
    forward_long_startup: float
    forward_long_rate: float
    reverse_short_startup: float
    reverse_short_rate: float
    reverse_long_startup: float
    reverse_long_rate: float
    bot_overhead_s: float
    read_plain_s: float
    read_startup_s: float
    switch_s: float


#: ``(id(model), block_mb) -> (model, constants)``.  Keying by identity
#: keeps the lookup off the model's field-by-field hash (it runs once per
#: swept tape); each entry holds its model, so the id cannot be reused
#: while the entry lives.
_EXTENSION_CONSTANTS: Dict[
    Tuple[int, float], Tuple[DriveTimingModel, ExtensionConstants]
] = {}


def extension_constants(
    timing: DriveTimingModel, block_mb: float
) -> Optional[ExtensionConstants]:
    """The flattened constants for ``timing``, or ``None`` if ineligible.

    Eligibility is an exact-type check: subclasses of
    :class:`DriveTimingModel` (e.g. serpentine models) may override the
    locate arithmetic, so they keep the method-call slow path.
    Results are cached per ``(model instance, block_mb)``.
    """
    if type(timing) is not DriveTimingModel:
        return None
    key = (id(timing), block_mb)
    entry = _EXTENSION_CONSTANTS.get(key)
    if entry is None:
        if len(_EXTENSION_CONSTANTS) >= 256:
            _EXTENSION_CONSTANTS.clear()
        entry = _EXTENSION_CONSTANTS[key] = (
            timing,
            ExtensionConstants(
                short_threshold_mb=timing.short_threshold_mb,
                forward_short_startup=timing.forward_short.startup,
                forward_short_rate=timing.forward_short.rate,
                forward_long_startup=timing.forward_long.startup,
                forward_long_rate=timing.forward_long.rate,
                reverse_short_startup=timing.reverse_short.startup,
                reverse_short_rate=timing.reverse_short.rate,
                reverse_long_startup=timing.reverse_long.startup,
                reverse_long_rate=timing.reverse_long.rate,
                bot_overhead_s=timing.bot_overhead_s,
                read_plain_s=timing.read(block_mb, startup=False),
                read_startup_s=timing.read(block_mb, startup=True),
                switch_s=timing.switch(),
            ),
        )
    return entry[1]


class ExtensionCostTracker:
    """Incremental round-trip costs for envelope extension prefixes.

    For one tape's extension list (requests outside the envelope, sorted
    by position), tracks the cost of extending the envelope through the
    first ``j`` blocks: locate/read out from the envelope through the
    prefix, plus the reverse locate back to the envelope position, plus
    the tape-switch overhead when the tape is unmounted with a zero
    envelope (paper Section 3.2, step 3).  Each :meth:`extend` call is
    O(1), keeping the envelope algorithm's inner loop linear.
    """

    def __init__(
        self,
        timing: DriveTimingModel,
        envelope_mb: float,
        block_mb: float,
        charge_switch: bool,
    ) -> None:
        self._timing = timing
        self._envelope_mb = envelope_mb
        self._block_mb = block_mb
        self._switch_s = timing.switch() if charge_switch else 0.0
        self._outbound_s = 0.0
        self._head = envelope_mb
        self._startup_pending = True
        self._count = 0
        # Fixed block size means only two possible read costs; hoisting
        # them (and the locate methods) out of ``extend`` keeps the
        # envelope inner loop call-free with bit-identical floats.
        self._read_plain_s = timing.read(block_mb, startup=False)
        self._read_startup_s = timing.read(block_mb, startup=True)
        self._locate_forward = timing.locate_forward
        self._locate_reverse = timing.locate_reverse

    @property
    def count(self) -> int:
        """Number of blocks in the current prefix."""
        return self._count

    def extend(self, position_mb: float) -> float:
        """Add the block at ``position_mb`` to the prefix; return its cost.

        Returns the full incremental time cost of the extended prefix
        (outbound + return + switch), per the paper's definition.
        """
        if position_mb < self._head - self._block_mb:
            raise ValueError(
                f"extension list not sorted: {position_mb} behind head {self._head}"
            )
        distance = position_mb - self._head
        if distance > 0:
            self._outbound_s += self._locate_forward(distance)
            self._startup_pending = True
        self._outbound_s += (
            self._read_startup_s if self._startup_pending else self._read_plain_s
        )
        self._startup_pending = False
        self._head = position_mb + self._block_mb
        self._count += 1
        return self.prefix_cost()

    def prefix_cost(self) -> float:
        """Cost of the current prefix (outbound + return leg + switch)."""
        if self._count == 0:
            return self._switch_s
        return_s = self._locate_reverse(
            self._head - self._envelope_mb,
            lands_on_bot=(self._envelope_mb == 0),
        )
        return self._switch_s + self._outbound_s + return_s

    def prefix_bandwidth(self) -> float:
        """Incremental bandwidth (bytes/s) of the current prefix."""
        if self._count == 0:
            return 0.0
        cost = self.prefix_cost()
        if cost <= 0:
            return float("inf")
        return self._count * self._block_mb * MB / cost
