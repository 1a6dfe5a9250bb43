"""Tests for the analytic cost model, including drive-consistency."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EnvelopeScheduler,
    ExtensionCostTracker,
    MaxBandwidth,
    SelectionContext,
    ServiceEntry,
    ServiceList,
    effective_bandwidth,
    schedule_time,
    sweep_cost,
)
from repro.core.cost import MB, HelicalKernel, MethodKernel, pricing_kernel
from repro.core.exact import _BatchCost
from repro.tape import EXB_8505XL, DriveTimingModel, Jukebox
from repro.workload import RequestFactory

from .conftest import catalog_from, make_context

BLOCK = 16.0


class TestSweepCost:
    def test_empty_sweep_is_free(self):
        cost = sweep_cost(EXB_8505XL, 0.0, [], BLOCK)
        assert cost.total_s == 0.0
        assert cost.end_head_mb == 0.0

    def test_single_forward_block(self):
        cost = sweep_cost(EXB_8505XL, 0.0, [100.0], BLOCK)
        expected = EXB_8505XL.locate_forward(100.0) + 0.38 + 1.77 * BLOCK
        assert cost.total_s == pytest.approx(expected)
        assert cost.end_head_mb == 116.0

    def test_block_at_head_streams(self):
        cost = sweep_cost(EXB_8505XL, 100.0, [100.0], BLOCK, startup_pending=False)
        assert cost.locate_s == 0.0
        assert cost.read_s == pytest.approx(1.77 * BLOCK)

    def test_reverse_block_skips_read_startup(self):
        cost = sweep_cost(EXB_8505XL, 500.0, [100.0], BLOCK)
        assert cost.locate_s == pytest.approx(EXB_8505XL.locate_reverse(400.0))
        assert cost.read_s == pytest.approx(1.77 * BLOCK)

    def test_reverse_to_position_zero_pays_bot(self):
        cost = sweep_cost(EXB_8505XL, 500.0, [0.0], BLOCK)
        assert cost.locate_s == pytest.approx(
            EXB_8505XL.locate_reverse(500.0, lands_on_bot=True)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        positions=st.lists(
            st.integers(min_value=0, max_value=440),
            min_size=1,
            max_size=25,
            unique=True,
        ),
        head_slot=st.integers(min_value=0, max_value=440),
    )
    def test_matches_drive_execution_exactly(self, positions, head_slot):
        """The analytic sweep cost equals what the drive actually does.

        This is the consistency property that makes max-bandwidth
        decisions faithful to the simulated hardware.
        """
        position_mbs = [slot * BLOCK for slot in positions]
        head_mb = head_slot * BLOCK
        jukebox = Jukebox.build()
        jukebox.switch_to(0)
        jukebox.drive.locate(head_mb)
        startup = jukebox.drive.read_startup_pending

        predicted = sweep_cost(
            EXB_8505XL, head_mb, position_mbs, BLOCK, startup_pending=startup
        )

        service = ServiceList(
            [ServiceEntry(position, block_id=index) for index, position in enumerate(position_mbs)],
            head_mb=head_mb,
        )
        actual = 0.0
        while not service.is_empty:
            entry = service.pop_next()
            actual += jukebox.access(entry.position_mb, BLOCK)
            service.finish_in_flight()
        assert actual == pytest.approx(predicted.total_s, rel=1e-12, abs=1e-9)
        assert jukebox.head_mb == pytest.approx(predicted.end_head_mb)


class TestScheduleTime:
    def test_mounted_tape_has_no_switch_overhead(self):
        mounted_time = schedule_time(
            EXB_8505XL, [100.0], BLOCK, mounted=True, head_mb=0.0
        )
        other_time = schedule_time(
            EXB_8505XL, [100.0], BLOCK, mounted=False, head_mb=0.0, rewind_from_mb=0.0
        )
        assert other_time - mounted_time == pytest.approx(81.0)

    def test_switch_includes_rewind_of_current_tape(self):
        shallow = schedule_time(
            EXB_8505XL, [0.0], BLOCK, mounted=False, head_mb=0.0, rewind_from_mb=0.0
        )
        deep = schedule_time(
            EXB_8505XL, [0.0], BLOCK, mounted=False, head_mb=0.0, rewind_from_mb=2000.0
        )
        assert deep - shallow == pytest.approx(EXB_8505XL.rewind(2000.0))


class TestEffectiveBandwidth:
    def test_empty_schedule_zero_bandwidth(self):
        assert effective_bandwidth(EXB_8505XL, [], BLOCK, True, 0.0) == 0.0

    def test_more_blocks_amortize_overhead(self):
        one = effective_bandwidth(EXB_8505XL, [0.0], BLOCK, False, 0.0)
        many = effective_bandwidth(
            EXB_8505XL, [index * BLOCK for index in range(20)], BLOCK, False, 0.0
        )
        assert many > one

    def test_closer_blocks_higher_bandwidth(self):
        near = effective_bandwidth(EXB_8505XL, [0.0, 16.0, 32.0], BLOCK, True, 0.0)
        far = effective_bandwidth(EXB_8505XL, [0.0, 3000.0, 6000.0], BLOCK, True, 0.0)
        assert near > far


class TestExtensionCostTracker:
    def test_prefix_costs_match_batch_computation(self):
        """Incremental O(1) updates equal the from-scratch round trip."""
        from repro.analysis import extension_round_trip_cost

        positions = [160.0, 400.0, 3200.0, 6000.0]
        envelope = 100.0
        tracker = ExtensionCostTracker(EXB_8505XL, envelope, BLOCK, charge_switch=False)
        for length, position in enumerate(positions, start=1):
            tracker.extend(position)
            batch = extension_round_trip_cost(
                EXB_8505XL, envelope, positions[:length], BLOCK, charge_switch=False
            )
            assert tracker.prefix_cost() == pytest.approx(batch)

    def test_switch_charge_applies_once(self):
        charged = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=True)
        free = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        charged.extend(100.0)
        free.extend(100.0)
        assert charged.prefix_cost() - free.prefix_cost() == pytest.approx(81.0)

    def test_bandwidth_monotone_in_density(self):
        """Adding a block adjacent to the prefix raises bandwidth; adding a
        distant one lowers it."""
        tracker = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        tracker.extend(0.0)
        base = tracker.prefix_bandwidth()
        tracker.extend(16.0)  # adjacent: nearly free extra bytes
        assert tracker.prefix_bandwidth() > base
        dense = tracker.prefix_bandwidth()
        tracker.extend(6000.0)  # long haul for one block
        assert tracker.prefix_bandwidth() < dense

    def test_unsorted_extension_rejected(self):
        tracker = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        tracker.extend(300.0)
        with pytest.raises(ValueError):
            tracker.extend(100.0)

    def test_count_tracks_blocks(self):
        tracker = ExtensionCostTracker(EXB_8505XL, 0.0, BLOCK, charge_switch=False)
        assert tracker.count == 0
        tracker.extend(10 * BLOCK)
        tracker.extend(20 * BLOCK)
        assert tracker.count == 2


class _MethodCallTiming(DriveTimingModel):
    """A trivial subclass: it gets the method kernel, so every cost
    through it takes the method-call loop."""


def _method_call_twin(timing):
    return _MethodCallTiming(
        **{field.name: getattr(timing, field.name) for field in dataclasses.fields(timing)}
    )


_MODELS = (EXB_8505XL, EXB_8505XL.scaled(2.0))


@st.composite
def _sweeps(draw):
    """A timing model, block size, head and positions for one sweep.

    Positions mix block-aligned slots, free floats, ``0.0``, the head
    itself, duplicates, and positions whose distance from the head (or
    from the end of a block read) is exactly the short-segment
    threshold; the head may lie past every position.
    """
    timing = draw(st.sampled_from(_MODELS))
    block_mb = draw(st.sampled_from([1.0, 16.0]))
    threshold = timing.short_threshold_mb
    head_mb = draw(
        st.one_of(
            st.just(0.0),
            st.integers(0, 300).map(lambda slot: slot * block_mb),
            st.floats(0.0, 5000.0),
            st.just(1e6),  # past every position: an all-reverse sweep
        )
    )
    anchors = [0.0, head_mb, head_mb + threshold]
    if head_mb >= threshold:
        anchors.append(head_mb - threshold)
    slot = st.integers(0, 300)
    position = st.one_of(
        st.sampled_from(anchors),
        slot.map(lambda k: k * block_mb),
        slot.map(lambda k: (k + 1) * block_mb + threshold),
        slot.map(lambda k: max((k + 1) * block_mb - threshold, 0.0)),
        st.floats(0.0, 5000.0),
    )
    positions = draw(st.lists(position, max_size=30))
    if positions:
        positions += draw(st.lists(st.sampled_from(positions), max_size=5))
        positions = draw(st.permutations(positions))
    startup_pending = draw(st.booleans())
    return timing, block_mb, head_mb, positions, startup_pending


def _reference_effective_bandwidth(
    timing, positions, block_mb, mounted, head_mb, rewind_from_mb=0.0
):
    """The method-call sweep and bandwidth exactly as written before the
    flattened kernel, kept as the oracle for scheduling decisions."""
    if not positions:
        return 0.0
    start = head_mb if mounted else 0.0
    forward = []
    reverse = []
    for position in positions:
        if position >= start:
            forward.append(position)
        else:
            reverse.append(position)
    forward.sort()
    reverse.sort(reverse=True)
    read_plain_s = timing.read(block_mb, startup=False)
    read_startup_s = timing.read(block_mb, startup=True)
    startup_pending = True
    locate_s = 0.0
    read_s = 0.0
    head = start
    for position in forward:
        distance = position - head
        if distance > 0:
            locate_s += timing.locate_forward(distance)
            startup_pending = True
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    for position in reverse:
        distance = head - position
        if distance > 0:
            locate_s += timing.locate_reverse(distance, lands_on_bot=(position == 0))
            startup_pending = False
        read_s += read_startup_s if startup_pending else read_plain_s
        startup_pending = False
        head = position + block_mb
    total_s = locate_s + read_s
    if mounted:
        seconds = total_s
    else:
        seconds = timing.switch_with_rewind(rewind_from_mb) + total_s
    if seconds <= 0:
        return float("inf")
    return len(positions) * block_mb * MB / seconds


class TestKernelTwin:
    """The flattened sweep kernel against the method-call loop, bit for bit."""

    def test_fallback_is_taken_only_for_subclasses(self):
        for timing in _MODELS:
            assert isinstance(pricing_kernel(timing, BLOCK), HelicalKernel)
            assert isinstance(
                pricing_kernel(_method_call_twin(timing), BLOCK), MethodKernel
            )

    @settings(max_examples=300, deadline=None)
    @given(sweep=_sweeps())
    def test_sweep_cost_matches_method_calls(self, sweep):
        timing, block_mb, head_mb, positions, startup_pending = sweep
        flat = sweep_cost(timing, head_mb, positions, block_mb, startup_pending)
        slow = sweep_cost(
            _method_call_twin(timing), head_mb, positions, block_mb, startup_pending
        )
        assert flat.locate_s == slow.locate_s
        assert flat.read_s == slow.read_s
        assert flat.end_head_mb == slow.end_head_mb

    @settings(max_examples=300, deadline=None)
    @given(sweep=_sweeps())
    def test_transition_row_matches_batch_step(self, sweep):
        """Every row the exact planner builds equals the ``step`` loop bit
        for bit: the root row from the drawn head and startup state, and
        the between-reads row from the end of each block (startup
        cleared), where threshold-distance targets land too."""
        timing, block_mb, head_mb, positions, startup_pending = sweep
        model = _BatchCost(timing, block_mb)
        kernel = pricing_kernel(timing, block_mb)
        states = [(head_mb, startup_pending)] + [
            (position + block_mb, False) for position in positions
        ]
        for head, startup in states:
            expected = [model.step(head, startup, p)[0].hex() for p in positions]
            for row in (
                kernel.transition_row(head, startup, positions),
                model.row(head, startup, positions),
            ):
                assert [seconds.hex() for seconds in row] == expected

    def test_transition_row_for_subclass_takes_the_step_loop(self):
        """A model subclass may override the locate arithmetic, so its rows
        go through ``step`` and the overriding methods."""

        class CountingTiming(DriveTimingModel):
            distances = []

            def locate_forward(self, distance_mb):
                self.distances.append(distance_mb)
                return super().locate_forward(distance_mb)

        positions = [0.0, 40.0, 100.0, 500.0]
        for timing in _MODELS:
            counting = CountingTiming(
                **{f.name: getattr(timing, f.name) for f in dataclasses.fields(timing)}
            )
            model = _BatchCost(counting, BLOCK)
            assert isinstance(pricing_kernel(counting, BLOCK), MethodKernel)
            CountingTiming.distances.clear()
            row = model.row(100.0, True, positions)
            assert CountingTiming.distances == [400.0]
            assert row == _BatchCost(timing, BLOCK).row(100.0, True, positions)

    @settings(max_examples=200, deadline=None)
    @given(sweep=_sweeps(), mounted=st.booleans())
    def test_schedule_time_matches_method_calls(self, sweep, mounted):
        timing, block_mb, head_mb, positions, _ = sweep
        flat = schedule_time(timing, positions, block_mb, mounted, head_mb, head_mb)
        slow = schedule_time(
            _method_call_twin(timing), positions, block_mb, mounted, head_mb, head_mb
        )
        assert flat == slow

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        timing=st.sampled_from(_MODELS),
        tape_count=st.integers(1, 6),
        head_slot=st.integers(0, 400),
    )
    def test_max_bandwidth_picks_the_reference_tape(
        self, data, timing, tape_count, head_slot
    ):
        mounted_id = data.draw(
            st.one_of(st.none(), st.integers(0, tape_count - 1)), label="mounted"
        )
        head_mb = head_slot * BLOCK if mounted_id is not None else 0.0
        position = st.one_of(
            st.integers(0, 400).map(lambda slot: slot * BLOCK),
            st.just(head_mb),
            st.floats(0.0, 6400.0),
        )
        positions = {
            tape_id: data.draw(st.lists(position, max_size=12), label=f"tape {tape_id}")
            for tape_id in range(tape_count)
        }
        factory = RequestFactory()
        candidates = {
            tape_id: [factory.create(block_id=tape_id, arrival_s=0.0)]
            for tape_id in range(tape_count)
            if data.draw(st.booleans(), label=f"candidate {tape_id}")
        }
        context = SelectionContext(
            timing=timing,
            block_mb=BLOCK,
            tape_count=tape_count,
            mounted_id=mounted_id,
            head_mb=head_mb,
            candidates=candidates,
            positions_for=lambda tape_id: list(positions[tape_id]),
            resolve_oldest=lambda: None,
        )
        expected = None
        best = -1.0
        for tape_id in context.tapes_with_requests():
            mounted = tape_id == mounted_id
            bandwidth = _reference_effective_bandwidth(
                timing,
                positions[tape_id],
                BLOCK,
                mounted,
                head_mb,
                head_mb if mounted_id is not None else 0.0,
            )
            assert bandwidth == effective_bandwidth(
                timing,
                positions[tape_id],
                BLOCK,
                mounted,
                head_mb,
                head_mb if mounted_id is not None else 0.0,
            )
            if bandwidth > best:
                expected, best = tape_id, bandwidth
        assert MaxBandwidth().select(context) == expected


@st.composite
def _extensions(draw):
    """A timing model, block size, envelope, switch charge and position
    for one single-block envelope extension.

    Envelopes are ``0.0`` (the return leg lands on the beginning of
    tape), block-aligned or free mid-tape floats.  Positions cover the
    last block's reach ``[envelope - block, envelope]`` (no forward
    locate), both of its ends, a forward distance and a return distance
    of exactly the short-segment threshold, block-aligned slots and free
    floats beyond the envelope, and positions behind the reach, which
    the tracker rejects.
    """
    timing = draw(st.sampled_from(_MODELS))
    block_mb = draw(st.sampled_from([1.0, 16.0]))
    threshold = timing.short_threshold_mb
    envelope_mb = draw(
        st.one_of(
            st.just(0.0),
            st.integers(1, 300).map(lambda slot: slot * block_mb),
            st.floats(0.0, 5000.0),
        )
    )
    position_mb = draw(
        st.one_of(
            st.floats(envelope_mb - block_mb, envelope_mb),
            st.sampled_from(
                [
                    envelope_mb - block_mb,
                    envelope_mb,
                    envelope_mb + threshold,
                    envelope_mb + threshold - block_mb,
                ]
            ),
            st.integers(0, 300).map(lambda slot: envelope_mb + slot * block_mb),
            st.floats(envelope_mb, envelope_mb + 5000.0),
            st.floats(envelope_mb - 100.0, envelope_mb - block_mb),
        )
    )
    charge_switch = draw(st.booleans())
    return timing, block_mb, envelope_mb, charge_switch, position_mb


def _outcome(compute):
    """``compute()``'s float as hex, or the exception type it raised."""
    try:
        return compute().hex()
    except ValueError:
        return "ValueError"


class TestExtensionKernelTwin:
    """The one-block extension kernel against the tracker, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(extension=_extensions())
    def test_kernel_matches_tracker(self, extension):
        timing, block_mb, envelope_mb, charge_switch, position_mb = extension

        def tracked():
            tracker = ExtensionCostTracker(
                timing, envelope_mb, block_mb, charge_switch
            )
            tracker.extend(position_mb)
            return tracker.prefix_bandwidth()

        def flat():
            return pricing_kernel(timing, block_mb).extension_bandwidth(
                envelope_mb, charge_switch, position_mb
            )

        assert _outcome(flat) == _outcome(tracked)

    def test_arrival_pricing_for_subclass_takes_the_tracker(self):
        """A model subclass may override the locate arithmetic, so the
        envelope scheduler prices an arriving request's copies through
        the tracker and the overriding methods, and decides as the
        flattened kernel does for the plain model."""
        class CountingTiming(DriveTimingModel):
            reverse = []

            def locate_reverse(self, distance_mb, lands_on_bot=False):
                self.reverse.append((distance_mb, lands_on_bot))
                return super().locate_reverse(distance_mb, lands_on_bot)

        catalog = catalog_from([[(0, 0.0)], [(0, 32.0), (1, 6500.0)]])
        outcomes = []
        for timing in (
            EXB_8505XL,
            CountingTiming(
                **{
                    f.name: getattr(EXB_8505XL, f.name)
                    for f in dataclasses.fields(EXB_8505XL)
                }
            ),
        ):
            factory = RequestFactory()
            context = make_context(catalog, tape_count=2, mounted=0, timing=timing)
            scheduler = EnvelopeScheduler(MaxBandwidth())
            context.pending.append(factory.create(block_id=0, arrival_s=0.0))
            decision = scheduler.major_reschedule(context)
            context.service = ServiceList(decision.entries, head_mb=0.0)
            CountingTiming.reverse.clear()
            late = factory.create(block_id=1, arrival_s=1.0)
            outcomes.append(
                (
                    scheduler.on_arrival(context, late),
                    context.service.remaining_positions(),
                    dict(scheduler._active_envelope),
                )
            )
        # Both copies lie outside their envelopes and go through the
        # tracker, whose ``extend`` and ``prefix_bandwidth`` each price
        # the return leg: the mounted tape's from the end of block 1 to
        # the envelope at 16, tape 1's from 6516 back onto BOT.
        assert CountingTiming.reverse == [(32.0, False)] * 2 + [(6516.0, True)] * 2
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] is True
