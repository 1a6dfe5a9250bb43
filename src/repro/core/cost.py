"""Analytic schedule cost model.

Computes, without touching any drive state, the execution time of a sweep
and the *effective bandwidth* of a candidate schedule (paper Section 3.1:
bytes retrieved divided by total seconds including tape-switch overhead).
The arithmetic mirrors :class:`repro.tape.drive.TapeDrive` exactly — a
property the test suite asserts — so scheduling decisions are consistent
with what the simulated hardware will actually do.

Every decision prices through one *pricing kernel* per (timing model,
block size), from :func:`pricing_kernel`.  Both kernels expose the same
five operations — a sweep, a transition row, the one-block extension
bandwidth, the envelope's per-tape prefix scan and a tape-level lower
bound — plus ``read_plain_s``, ``read_startup_s`` and ``switch_s``.
:class:`HelicalKernel` runs them call-free on a plain
:class:`~repro.tape.timing.DriveTimingModel`'s flattened constants;
:class:`MethodKernel` runs them through any model's own methods and is
the reference the helical kernel must match bit for bit.  A new timing
model needs no code here; a newly priced quantity is one operation on
both kernels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    """``(locate_s, read_s, end_head_mb)`` of the kernel's sweep: blocks
    at or beyond the head in ascending order, then the rest in
    descending order."""
    return pricing_kernel(timing, block_mb).sweep(
        head_mb, sorted(positions), startup_pending
    )


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
class HelicalKernel:
    """The call-free pricing kernel of a plain piecewise-linear model.

    The scheduling decisions price locates and reads per block: every
    max-bandwidth decision sweeps every candidate tape, every envelope
    step-3 round scans every prefix of every tape's candidates and every
    arrival prices each copy outside its envelope, and every exact-batch
    plan fills a transition matrix.  For the plain
    :class:`~repro.tape.timing.DriveTimingModel` those method calls
    reduce to straight-line arithmetic over a handful of constants,
    which this kernel hoists once per (model, ``block_mb``).

    Every float here is produced by the timing model's own methods, and
    each operation applies them with the exact expressions
    ``locate_forward``/``locate_reverse``/``read`` evaluate
    (``distance <= short_threshold_mb`` is the segment rule of their
    ``bisect_left``), with the sums taken in the same order, so every
    operation is bit-identical to :class:`MethodKernel`'s on the same
    model — except :meth:`tape_bound`, which is a tighter bound.
    """

    block_mb: float
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

    @classmethod
    def of(cls, timing: DriveTimingModel, block_mb: float) -> "HelicalKernel":
        """Flatten a plain :class:`DriveTimingModel` at ``block_mb``."""
        return cls(
            block_mb=block_mb,
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
        )

    def sweep(
        self, head_mb: float, ordered: Sequence[float], startup_pending: bool
    ) -> Tuple[float, float, float]:
        """``(locate_s, read_s, end_head_mb)`` of sweeping the ascending
        ``ordered`` positions from ``head_mb``: blocks at or beyond the
        head in ascending order, then the rest in descending order."""
        block_mb = self.block_mb
        threshold = self.short_threshold_mb
        forward_short_startup = self.forward_short_startup
        forward_short_rate = self.forward_short_rate
        forward_long_startup = self.forward_long_startup
        forward_long_rate = self.forward_long_rate
        read_plain_s = self.read_plain_s
        read_startup_s = self.read_startup_s
        split = bisect_left(ordered, head_mb)
        locate_s = 0.0
        read_s = 0.0
        head = head_mb
        for position in ordered[split:] if split else ordered:
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
        if split:
            reverse_short_startup = self.reverse_short_startup
            reverse_short_rate = self.reverse_short_rate
            reverse_long_startup = self.reverse_long_startup
            reverse_long_rate = self.reverse_long_rate
            bot_overhead_s = self.bot_overhead_s
            for position in ordered[split - 1 :: -1]:
                distance = head - position
                if distance > 0:
                    seconds = (
                        reverse_short_startup + reverse_short_rate * distance
                        if distance <= threshold
                        else reverse_long_startup + reverse_long_rate * distance
                    )
                    if position == 0:
                        seconds += bot_overhead_s
                    locate_s += seconds
                    startup_pending = False
                read_s += read_startup_s if startup_pending else read_plain_s
                startup_pending = False
                head = position + block_mb
        return locate_s, read_s, head

    def transition_row(
        self, head_mb: float, startup_pending: bool, positions: Sequence[float]
    ) -> List[float]:
        """Locate-and-read seconds from ``head_mb`` to each of ``positions``.

        One float per position: a forward locate plus the startup read,
        a reverse locate (plus the beginning-of-tape overhead when it
        lands on 0) plus the plain read, or a zero-distance ``0.0`` plus
        the read the startup state selects.  The exact planner's
        transition matrix is made of these rows.
        """
        threshold = self.short_threshold_mb
        forward_short_startup = self.forward_short_startup
        forward_short_rate = self.forward_short_rate
        forward_long_startup = self.forward_long_startup
        forward_long_rate = self.forward_long_rate
        reverse_short_startup = self.reverse_short_startup
        reverse_short_rate = self.reverse_short_rate
        reverse_long_startup = self.reverse_long_startup
        reverse_long_rate = self.reverse_long_rate
        bot_overhead_s = self.bot_overhead_s
        read_plain_s = self.read_plain_s
        read_startup_s = self.read_startup_s
        in_place_s = 0.0 + (read_startup_s if startup_pending else read_plain_s)
        row = []
        for position in positions:
            if position > head_mb:
                distance = position - head_mb
                seconds = (
                    forward_short_startup + forward_short_rate * distance
                    if distance <= threshold
                    else forward_long_startup + forward_long_rate * distance
                ) + read_startup_s
            elif position < head_mb:
                distance = head_mb - position
                seconds = (
                    reverse_short_startup + reverse_short_rate * distance
                    if distance <= threshold
                    else reverse_long_startup + reverse_long_rate * distance
                )
                if position == 0:
                    seconds += bot_overhead_s
                seconds += read_plain_s
            else:
                seconds = in_place_s
            row.append(seconds)
        return row

    def extension_bandwidth(
        self, envelope_mb: float, charge_switch: bool, position_mb: float
    ) -> float:
        """Incremental bandwidth of extending an envelope through one block.

        The outbound leg is ``0.0``, plus the forward locate when the
        block starts beyond the envelope, plus the startup read; the
        return leg is the reverse locate over ``(position_mb + block_mb)
        - envelope_mb``, plus the beginning-of-tape overhead when the
        envelope is at 0; the cost is ``(switch + outbound) + return``
        and the bandwidth one block's bytes over it (``inf`` when the
        cost is not positive).
        """
        block_mb = self.block_mb
        if position_mb < envelope_mb - block_mb:
            raise ValueError(
                f"extension list not sorted: {position_mb} behind head {envelope_mb}"
            )
        threshold = self.short_threshold_mb
        outbound_s = 0.0
        distance = position_mb - envelope_mb
        if distance > 0:
            outbound_s += (
                self.forward_short_startup + self.forward_short_rate * distance
                if distance <= threshold
                else self.forward_long_startup + self.forward_long_rate * distance
            )
        outbound_s += self.read_startup_s
        return_distance = (position_mb + block_mb) - envelope_mb
        if return_distance > 0:
            return_s = (
                self.reverse_short_startup + self.reverse_short_rate * return_distance
                if return_distance <= threshold
                else self.reverse_long_startup
                + self.reverse_long_rate * return_distance
            )
            if envelope_mb == 0:
                return_s += self.bot_overhead_s
        elif return_distance == 0:
            return_s = 0.0
        else:
            raise ValueError(
                f"reverse locate distance must be >= 0, got {return_distance!r}"
            )
        cost = ((self.switch_s if charge_switch else 0.0) + outbound_s) + return_s
        if cost <= 0:
            return float("inf")
        # ``1 * block_mb`` is exact, so one block's bytes need no count.
        return block_mb * MB / cost

    def best_prefix(
        self, envelope_mb: float, charge_switch: bool, positions: Iterable[float]
    ) -> Tuple[Optional[float], int]:
        """The envelope's step 3 on one tape: the greatest incremental
        bandwidth over the prefixes of ``positions``, and the length of
        the first prefix that attains it (``(None, 0)`` when empty).

        ``positions`` are ascending and at or beyond ``envelope_mb``,
        one per candidate request, so a block two requests want appears
        twice.  A prefix costs what :class:`ExtensionCostTracker`
        extended through its distinct blocks costs; a length ending on a
        repeated position adds a request but no read, so its bandwidth
        equals the previous length's and it is skipped.
        """
        block_mb = self.block_mb
        threshold = self.short_threshold_mb
        forward_short_startup = self.forward_short_startup
        forward_short_rate = self.forward_short_rate
        forward_long_startup = self.forward_long_startup
        forward_long_rate = self.forward_long_rate
        reverse_short_startup = self.reverse_short_startup
        reverse_short_rate = self.reverse_short_rate
        reverse_long_startup = self.reverse_long_startup
        reverse_long_rate = self.reverse_long_rate
        bot_overhead_s = self.bot_overhead_s
        read_plain_s = self.read_plain_s
        read_startup_s = self.read_startup_s
        switch_s = self.switch_s if charge_switch else 0.0
        lands_on_bot = envelope_mb == 0
        head = envelope_mb
        startup_pending = True
        outbound = 0.0
        reads = 0
        length = 0
        best_bandwidth: Optional[float] = None
        best_length = 0
        previous: Optional[float] = None
        for position in positions:
            length += 1
            if position == previous:
                continue
            previous = position
            if position < head - block_mb:
                raise ValueError(
                    f"extension list not sorted: {position} behind head {head}"
                )
            distance = position - head
            if distance > 0:
                outbound += (
                    forward_short_startup + forward_short_rate * distance
                    if distance <= threshold
                    else forward_long_startup + forward_long_rate * distance
                )
                startup_pending = True
            outbound += read_startup_s if startup_pending else read_plain_s
            startup_pending = False
            head = position + block_mb
            reads += 1
            return_distance = head - envelope_mb
            return_s = (
                reverse_short_startup + reverse_short_rate * return_distance
                if return_distance <= threshold
                else reverse_long_startup + reverse_long_rate * return_distance
            )
            if lands_on_bot:
                return_s += bot_overhead_s
            cost = (switch_s + outbound) + return_s
            bandwidth = reads * block_mb * MB / cost if cost > 0 else float("inf")
            if best_bandwidth is None or bandwidth > best_bandwidth:
                best_bandwidth = bandwidth
                best_length = length
        return best_bandwidth, best_length

    def tape_bound(
        self,
        head_mb: float,
        positions: Sequence[float],
        served: float,
        deferred_weight: float,
        overhead_s: float,
    ) -> float:
        """Certified lower bound on one tape's normalized batch cost: the
        *arrival-span bound*.

        ``positions`` holds one start position per distinct block (any
        order), each block carrying at least one of the ``served``
        requests; ``deferred_weight`` requests wait for the whole batch and
        ``overhead_s`` (the tape switch) delays all of them.  The value is
        at most ``(overhead_s * c + J) / served`` for *every* read order of
        the batch from ``head_mb`` with the read startup pending, where
        ``c = served + deferred_weight`` and ``J`` is the exact planner's
        objective (:func:`repro.core.exact.order_cost`).  With ``n`` served
        requests, ``d`` the deferred weight and ``b`` blocks::

            LB = (overhead_s * c + n * r0 + d * M + sum_{k<b} f(k) * (b - k)) / n

        * ``r0`` is the cheapest root transition (a :meth:`transition_row`
          minimum).
        * ``f(1) <= f(2) <= ...`` are the blocks' sorted *arrival floors*.
          A read after the first starts at the end of another block.  From
          below, the nearest end is the next-lower block's, and a forward
          locate over gap ``x > 0`` costs at least ``F(x)`` — the minimum
          of the short and long forward segments at ``x`` — plus the
          startup read; a gap ``<= 0`` leaves only the plain read.  From
          above, the nearest end is the next-higher block's, at distance
          ``y``: the reverse minimum ``R(y)``, plus the beginning-of-tape
          overhead onto position 0, plus the plain read.  ``F`` and ``R``
          are increasing, so the nearest end in each direction is the
          cheapest arrival from that side, and the floor is the cheaper of
          the two sides.
        * ``M = max(r0 + sum_{k<b} f(k), S)`` bounds the batch's makespan.
          ``S`` applies only when the head is at or below every block: the
          head must then pass every uncovered stretch of tape between it
          and the last block, of total length ``G``, and only forward
          locates move it across one.  ``F`` is concave with ``F(0+) > 0``,
          hence subadditive, so those locates cost at least ``F(G)``, and
          the read after a forward locate pays the startup:
          ``S = F(G) + read_startup + (b - 1) * read_plain``, or
          ``b * read_plain`` when ``G == 0``.

        Proof: let ``t_k`` be the ``k``-th transition and ``W_k`` the weight
        still waiting during it.  ``W_1 = c`` and, as every block carries
        at least one request, ``W_k >= d + (b - k + 1)``, so ``J >= n * t_1
        + d * sum(t) + sum_{k>=2} (b - k + 1) * t_k``.  ``t_1 >= r0`` and
        ``sum(t) >= M``; the ``b - 1`` arrivals ``t_2..t_b`` land on
        distinct blocks, so by the rearrangement inequality their weighted
        sum is at least the ``b - 1`` smallest floors paired with the
        largest coefficients.  Every segment is evaluated with the timing
        model's own float expression and float arithmetic is monotone, so
        each floor is at most the transition it stands for; only the final
        sums round differently from the cost's.  The timing constants must
        be non-negative, as every fitted and scaled model's are.  Every
        floor is at least one plain read, so this bound is never below
        :meth:`MethodKernel.tape_bound` (up to rounding).
        """
        block_mb = self.block_mb
        forward_short_startup = self.forward_short_startup
        forward_short_rate = self.forward_short_rate
        forward_long_startup = self.forward_long_startup
        forward_long_rate = self.forward_long_rate
        reverse_short_startup = self.reverse_short_startup
        reverse_short_rate = self.reverse_short_rate
        reverse_long_startup = self.reverse_long_startup
        reverse_long_rate = self.reverse_long_rate
        read_plain_s = self.read_plain_s
        read_startup_s = self.read_startup_s
        ordered = sorted(positions)
        count = len(ordered)
        root = min(self.transition_row(head_mb, True, ordered))
        charged = served + deferred_weight
        if count == 1:
            # One read: J = c * t_1 exactly.
            return (overhead_s * charged + charged * root) / served
        floors = []
        gap_total = 0.0
        for index in range(count):
            position = ordered[index]
            floor = float("inf")
            if index:
                # Forward from the next-lower block's end, or only the plain
                # read when the blocks touch or overlap.
                gap = position - (ordered[index - 1] + block_mb)
                if gap > 0:
                    gap_total += gap
                    short = forward_short_startup + forward_short_rate * gap
                    long = forward_long_startup + forward_long_rate * gap
                    floor = (short if short < long else long) + read_startup_s
                else:
                    floor = read_plain_s
            if index + 1 < count and floor > read_plain_s:
                # Reverse from the next-higher block's end.
                distance = (ordered[index + 1] + block_mb) - position
                if distance > 0:
                    short = reverse_short_startup + reverse_short_rate * distance
                    long = reverse_long_startup + reverse_long_rate * distance
                    seconds = short if short < long else long
                    if position == 0:
                        seconds += self.bot_overhead_s
                    seconds += read_plain_s
                else:
                    seconds = read_plain_s
                if seconds < floor:
                    floor = seconds
            floors.append(floor)
        # Reads 2..b take the b - 1 cheapest floors, the cheapest paired
        # with the most waiting requests.
        floors.sort()
        pairing = 0.0
        span = root
        coefficient = count - 1
        for floor in floors[:-1]:
            pairing += floor * coefficient
            span += floor
            coefficient -= 1
        if head_mb <= ordered[0]:
            gap_total += ordered[0] - head_mb
            if gap_total > 0:
                short = forward_short_startup + forward_short_rate * gap_total
                long = forward_long_startup + forward_long_rate * gap_total
                sweep = (
                    (short if short < long else long)
                    + read_startup_s
                    + (count - 1) * read_plain_s
                )
            else:
                sweep = count * read_plain_s
            if sweep > span:
                span = sweep
        return (
            overhead_s * charged + served * root + deferred_weight * span + pairing
        ) / served


class MethodKernel:
    """The pricing kernel of any timing model, through its own methods.

    The operations of :class:`HelicalKernel`, with every locate a call to
    the model's ``locate_forward``/``locate_reverse`` and the envelope
    arithmetic an :class:`ExtensionCostTracker`.  Serpentine models take
    it (their expected locate is not piecewise-linear), so does any
    :class:`DriveTimingModel` subclass, and on a plain model it is the
    reference the helical kernel is checked against.  The model's
    methods must be deterministic: the kernel keeps their read and
    switch times.
    """

    __slots__ = ("timing", "block_mb", "read_plain_s", "read_startup_s", "switch_s")

    def __init__(self, timing: DriveTimingModel, block_mb: float) -> None:
        self.timing = timing
        self.block_mb = block_mb
        self.read_plain_s = timing.read(block_mb, startup=False)
        self.read_startup_s = timing.read(block_mb, startup=True)
        self.switch_s = timing.switch()

    def sweep(
        self, head_mb: float, ordered: Sequence[float], startup_pending: bool
    ) -> Tuple[float, float, float]:
        """As :meth:`HelicalKernel.sweep`."""
        block_mb = self.block_mb
        locate_forward = self.timing.locate_forward
        locate_reverse = self.timing.locate_reverse
        read_plain_s = self.read_plain_s
        read_startup_s = self.read_startup_s
        split = bisect_left(ordered, head_mb)
        locate_s = 0.0
        read_s = 0.0
        head = head_mb
        for position in ordered[split:] if split else ordered:
            distance = position - head
            if distance > 0:
                locate_s += locate_forward(distance)
                startup_pending = True
            read_s += read_startup_s if startup_pending else read_plain_s
            startup_pending = False
            head = position + block_mb
        for position in ordered[split - 1 :: -1] if split else ():
            distance = head - position
            if distance > 0:
                locate_s += locate_reverse(distance, lands_on_bot=(position == 0))
                startup_pending = False
            read_s += read_startup_s if startup_pending else read_plain_s
            startup_pending = False
            head = position + block_mb
        return locate_s, read_s, head

    def transition_row(
        self, head_mb: float, startup_pending: bool, positions: Sequence[float]
    ) -> List[float]:
        """As :meth:`HelicalKernel.transition_row`."""
        locate_forward = self.timing.locate_forward
        locate_reverse = self.timing.locate_reverse
        read_plain_s = self.read_plain_s
        read_startup_s = self.read_startup_s
        in_place_s = 0.0 + (read_startup_s if startup_pending else read_plain_s)
        row = []
        for position in positions:
            if position > head_mb:
                seconds = locate_forward(position - head_mb) + read_startup_s
            elif position < head_mb:
                seconds = (
                    locate_reverse(head_mb - position, lands_on_bot=(position == 0))
                    + read_plain_s
                )
            else:
                seconds = in_place_s
            row.append(seconds)
        return row

    def extension_bandwidth(
        self, envelope_mb: float, charge_switch: bool, position_mb: float
    ) -> float:
        """As :meth:`HelicalKernel.extension_bandwidth`."""
        tracker = ExtensionCostTracker(
            self.timing, envelope_mb, self.block_mb, charge_switch
        )
        tracker.extend(position_mb)
        return tracker.prefix_bandwidth()

    def best_prefix(
        self, envelope_mb: float, charge_switch: bool, positions: Iterable[float]
    ) -> Tuple[Optional[float], int]:
        """As :meth:`HelicalKernel.best_prefix`."""
        tracker = ExtensionCostTracker(
            self.timing, envelope_mb, self.block_mb, charge_switch
        )
        best_bandwidth: Optional[float] = None
        best_length = 0
        previous: Optional[float] = None
        for length, position in enumerate(positions, 1):
            if position == previous:
                continue
            previous = position
            tracker.extend(position)
            bandwidth = tracker.prefix_bandwidth()
            if best_bandwidth is None or bandwidth > best_bandwidth:
                best_bandwidth = bandwidth
                best_length = length
        return best_bandwidth, best_length

    def tape_bound(
        self,
        head_mb: float,
        positions: Sequence[float],
        served: float,
        deferred_weight: float,
        overhead_s: float,
    ) -> float:
        """The *plain-read bound*, with the arguments of
        :meth:`HelicalKernel.tape_bound`.

        All ``served + deferred_weight`` requests wait through the
        switch overhead and the first read, which costs at least the
        cheapest root transition (a sweep starts with the read startup
        pending); each of the other ``k - 1`` reads costs at least one
        plain read, while at least ``deferred_weight + m`` requests
        still wait when ``m`` blocks remain.
        """
        charged = served + deferred_weight
        first_read = min(self.transition_row(head_mb, True, positions))
        later_waiting = sum(deferred_weight + m for m in range(1, len(positions)))
        return (
            overhead_s * charged
            + charged * first_read
            + self.read_plain_s * later_waiting
        ) / served


#: ``(id(model), block_mb) -> (model, kernel)``.  Keying by identity
#: keeps the lookup off the model's field-by-field hash (it runs once per
#: decision); each entry holds its model, so the id cannot be reused
#: while the entry lives.
_KERNELS: Dict[
    Tuple[int, float], Tuple[DriveTimingModel, Union[HelicalKernel, MethodKernel]]
] = {}


def pricing_kernel(
    timing: DriveTimingModel, block_mb: float
) -> Union[HelicalKernel, MethodKernel]:
    """The pricing kernel of ``timing`` at ``block_mb``.

    Kernels are cached per ``(model instance, block_mb)``.  This is the
    one place that looks at a model's type.  Only an exact
    :class:`DriveTimingModel` is known to keep the piecewise-linear
    locates :class:`HelicalKernel` flattens (a subclass may override
    them), so it gets the call-free kernel; every other model, such as
    the standalone :class:`~repro.tape.serpentine.SerpentineTimingModel`,
    gets a :class:`MethodKernel`.
    """
    key = (id(timing), block_mb)
    entry = _KERNELS.get(key)
    if entry is None:
        if len(_KERNELS) >= 256:
            _KERNELS.clear()
        kernel = (
            HelicalKernel.of(timing, block_mb)
            if type(timing) is DriveTimingModel
            else MethodKernel(timing, block_mb)
        )
        entry = _KERNELS[key] = (timing, kernel)
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
