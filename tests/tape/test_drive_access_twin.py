"""The fused ``TapeDrive.access`` against locate-then-read.

``FrozenDrive`` keeps a verbatim copy of the drive's ``locate`` and
``read`` as they were before ``access`` was fused into one pass, with
``access`` defined as the old two calls.  Every generated access must
return the same duration bit for bit, leave the same drive state and
counters, make the same timing-model calls (a noisy model on equally
seeded generators draws the same jitters) and, for an extent off the
tape, raise the same error with the same state committed before it.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.tape import EXB_8505XL, DriveStateError, Tape, TapeDrive
from repro.tape.noisy import NoisyTimingModel
from repro.tape.serpentine import SerpentineTimingModel
from repro.tape.timing import Direction

CAPACITY_MB = 2000.0


class FrozenDrive(TapeDrive):
    """``TapeDrive`` with the pre-fusion locate, read and access."""

    def _frozen_require_loaded(self):
        if self.mounted is None:
            raise DriveStateError("operation requires a mounted tape")
        return self.mounted

    def locate(self, target_mb):
        tape = self._frozen_require_loaded()
        tape.validate_extent(target_mb, 0.0)
        seconds = self.timing.locate(self.head_mb, target_mb)
        if target_mb > self.head_mb:
            self.last_motion = Direction.FORWARD
            self.read_startup_pending = True
        elif target_mb < self.head_mb:
            self.last_motion = Direction.REVERSE
            self.read_startup_pending = False
        self.head_mb = target_mb
        self.last_locate_s = seconds
        self.counters.locate_s += seconds
        if seconds > 0:
            self.counters.locates += 1
        return seconds

    def read(self, size_mb):
        tape = self._frozen_require_loaded()
        tape.validate_extent(self.head_mb, size_mb)
        seconds = self.timing.read(size_mb, startup=self.read_startup_pending)
        self.head_mb += size_mb
        self.last_motion = Direction.FORWARD
        self.read_startup_pending = False
        self.counters.read_s += seconds
        self.counters.reads += 1
        return seconds

    def access(self, position_mb, size_mb):
        return self.locate(position_mb) + self.read(size_mb)


def timing_pair(kind, seed):
    """Two timing models that answer every call identically."""
    if kind == "exb":
        return EXB_8505XL, EXB_8505XL
    if kind == "scaled":
        model = EXB_8505XL.scaled(2.0)
        return model, model
    if kind == "serpentine":
        model = SerpentineTimingModel()
        return model, model
    return (
        NoisyTimingModel(EXB_8505XL, random.Random(seed)),
        NoisyTimingModel(EXB_8505XL, random.Random(seed)),
    )


def state(drive):
    return (
        drive.mounted,
        drive.head_mb.hex(),
        drive.last_motion,
        drive.read_startup_pending,
        drive.last_locate_s.hex(),
        drive.counters.locate_s.hex(),
        drive.counters.read_s.hex(),
        drive.counters.rewind_s.hex(),
        drive.counters.eject_load_s.hex(),
        drive.counters.locates,
        drive.counters.reads,
        drive.counters.rewinds,
        drive.counters.loads,
    )


def outcome(drive, position_mb, size_mb):
    try:
        return ("ok", drive.access(position_mb, size_mb).hex())
    except (ValueError, DriveStateError) as error:
        return (type(error), str(error))


THRESHOLD = EXB_8505XL.short_threshold_mb

#: How a step picks its target relative to the head.
TARGETS = st.one_of(
    st.tuples(st.just("forward"), st.floats(0.0, 600.0)),
    st.tuples(st.just("reverse"), st.floats(0.0, 600.0)),
    st.tuples(st.just("zero"), st.just(0.0)),
    st.tuples(st.just("bot"), st.just(0.0)),
    st.tuples(st.sampled_from(["forward", "reverse"]), st.just(THRESHOLD)),
    st.tuples(st.just("absolute"), st.floats(-50.0, CAPACITY_MB + 50.0)),
)
SIZES = st.one_of(
    st.sampled_from([0.0, 1.0, 16.0, THRESHOLD]),
    st.floats(0.0, 64.0),
    st.just(-1.0),
    st.just(CAPACITY_MB),
)


def target(kind, amount, head_mb):
    if kind == "forward":
        return head_mb + amount
    if kind == "reverse":
        return head_mb - amount
    if kind == "zero":
        return head_mb
    if kind == "bot":
        return 0.0
    return amount


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(["exb", "scaled", "serpentine", "noisy"]),
    seed=st.integers(0, 2**16),
    start_head=st.floats(0.0, CAPACITY_MB),
    startup_pending=st.booleans(),
    last_motion=st.sampled_from(list(Direction)),
    loaded=st.booleans(),
    steps=st.lists(st.tuples(TARGETS, SIZES), min_size=1, max_size=12),
)
def test_fused_access_matches_locate_then_read(
    model, seed, start_head, startup_pending, last_motion, loaded, steps
):
    fused_timing, frozen_timing = timing_pair(model, seed)
    fused = TapeDrive(timing=fused_timing)
    frozen = FrozenDrive(timing=frozen_timing)
    for drive in (fused, frozen):
        if loaded:
            drive.load(Tape(tape_id=0, capacity_mb=CAPACITY_MB))
        drive.head_mb = start_head
        drive.read_startup_pending = startup_pending
        drive.last_motion = last_motion
    assert state(fused) == state(frozen)
    for (kind, amount), size_mb in steps:
        position_mb = target(kind, amount, fused.head_mb)
        assert outcome(fused, position_mb, size_mb) == outcome(
            frozen, position_mb, size_mb
        )
        assert state(fused) == state(frozen)
    if model == "noisy":
        # Both generators drew the same jitters, so they stay in step.
        assert fused_timing.rng.getstate() == frozen_timing.rng.getstate()


def test_zero_distance_keeps_the_startup_flag():
    """The case the fused branch spells out: streaming onto the next
    block pays no startup, a zero-distance access after a forward
    locate still does (the flag carries over)."""
    for pending in (True, False):
        fused = TapeDrive()
        frozen = FrozenDrive()
        for drive in (fused, frozen):
            drive.load(Tape(tape_id=0, capacity_mb=CAPACITY_MB))
            drive.head_mb = 100.0
            drive.read_startup_pending = pending
        assert fused.access(100.0, 16.0).hex() == frozen.access(100.0, 16.0).hex()
        assert state(fused) == state(frozen)
