"""Schedulers price with the clean model when the drive is noisy.

A :class:`~repro.tape.noisy.NoisyTimingModel` stands in for hardware
that deviates from the model; the schedulers must keep deciding with
the model itself (``SchedulerContext.pricing_timing``), so no scheduling
call draws from the drive's noise stream.
"""

import random

import pytest

from repro.core import make_scheduler
from repro.core.base import SchedulerContext
from repro.core.pending import PendingList
from repro.des import Environment
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.service import JukeboxSimulator, MetricsCollector
from repro.tape import EXB_8505XL, Jukebox, NoisyTimingModel, RobotArm, TapeDrive, TapePool
from repro.workload import ClosedSource, HotColdSkew

TAPES = 6
CAPACITY_MB = 2000.0
BLOCK_MB = 16.0


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the draws made from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


def noisy_jukebox(rng):
    timing = NoisyTimingModel(
        EXB_8505XL, rng, locate_amplitude=0.02, read_amplitude=0.10
    )
    return Jukebox(
        pool=TapePool.uniform(TAPES, CAPACITY_MB),
        drive=TapeDrive(timing=timing),
        robot=RobotArm(timing=timing, slot_count=TAPES),
    )


def test_pricing_timing_unwraps_a_noisy_model():
    catalog = build_catalog(PlacementSpec(block_mb=BLOCK_MB), TAPES, CAPACITY_MB)
    noisy = SchedulerContext(
        jukebox=noisy_jukebox(random.Random(1)),
        catalog=catalog,
        pending=PendingList(catalog),
    )
    assert noisy.pricing_timing is EXB_8505XL
    scaled = EXB_8505XL.scaled(2.0)
    clean = SchedulerContext(
        jukebox=Jukebox.build(tape_count=TAPES, timing=scaled),
        catalog=catalog,
        pending=PendingList(catalog),
    )
    assert clean.pricing_timing is scaled


def test_run_pricing_is_read_once_per_context():
    """The decision loops price with ``run_pricing()``: the unwrapped
    model, the block size and the tape count, read on the first call
    and kept for the context's run."""
    catalog = build_catalog(PlacementSpec(block_mb=BLOCK_MB), TAPES, CAPACITY_MB)
    context = SchedulerContext(
        jukebox=noisy_jukebox(random.Random(1)),
        catalog=catalog,
        pending=PendingList(catalog),
    )
    pricing = context.run_pricing()
    assert pricing == (EXB_8505XL, BLOCK_MB, TAPES)
    assert pricing[0] is EXB_8505XL
    assert context.run_pricing() is pricing


@pytest.mark.parametrize(
    "scheduler_name",
    [
        "static-max-bandwidth",
        "dynamic-max-bandwidth",
        "envelope-max-bandwidth",
        "exact-batch",
    ],
)
def test_no_scheduling_call_draws_noise(scheduler_name):
    spec = PlacementSpec(
        layout=Layout.VERTICAL,
        percent_hot=10,
        replicas=3,
        start_position=1.0,
        block_mb=BLOCK_MB,
    )
    catalog = build_catalog(spec, TAPES, CAPACITY_MB)
    rng = CountingRandom(7)
    scheduler = make_scheduler(scheduler_name)
    drawn_while_scheduling = []

    def counted(method):
        def call(*args, **kwargs):
            before = rng.draws
            result = method(*args, **kwargs)
            drawn_while_scheduling.append(rng.draws - before)
            return result

        return call

    scheduler.major_reschedule = counted(scheduler.major_reschedule)
    scheduler.on_arrival = counted(scheduler.on_arrival)
    simulator = JukeboxSimulator(
        env=Environment(),
        jukebox=noisy_jukebox(rng),
        catalog=catalog,
        scheduler=scheduler,
        source=ClosedSource(12, HotColdSkew(40.0), catalog, random.Random(8)),
        metrics=MetricsCollector(block_mb=BLOCK_MB),
    )
    report = simulator.run(15_000.0)
    assert report.total_completed > 0
    assert drawn_while_scheduling, "no scheduling call was made"
    assert rng.draws > 0, "the noisy drive drew no jitter"
    assert set(drawn_while_scheduling) == {0}
