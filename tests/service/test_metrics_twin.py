"""The one-pass metrics bookkeeping against frozen copies.

``FrozenTimeWeightedStats`` and ``FrozenMetricsCollector`` keep
verbatim copies of ``TimeWeightedStats.update`` (with its
``_accumulate``) and of the collector's arrival, completion and
drive-busy hooks as they were before those paths were folded into one
pass.  On generated event sequences — samples on both sides of the
warm-up boundary, equal timestamps, ``service_s=None``, deadlines met
and missed — both must produce equal reports with equal digests.
"""

from hypothesis import example, given, settings, strategies as st

from repro.service.metrics import MetricsCollector, report_digest
from repro.stats import TimeWeightedStats
from repro.workload.requests import Request


class FrozenTimeWeightedStats(TimeWeightedStats):
    """``TimeWeightedStats`` with the pre-fusion update."""

    def update(self, now, value):
        now = float(now)
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._frozen_accumulate(now)
        self._last_value = float(value)
        if self._min is None or value < self._min:
            self._min = float(value)
        if self._max is None or value > self._max:
            self._max = float(value)

    def _frozen_accumulate(self, now):
        span = now - self._last_time
        if span > 0:
            self._weighted_sum += span * self._last_value
            self._weighted_sq_sum += span * self._last_value * self._last_value
            self._elapsed += span
        self._last_time = now

    def finalize(self, now):
        self._frozen_accumulate(float(now))


class FrozenMetricsCollector(MetricsCollector):
    """``MetricsCollector`` with the pre-fusion per-request hooks."""

    def __init__(self, block_mb, warmup_s=0.0):
        super().__init__(block_mb, warmup_s)
        self.queue = FrozenTimeWeightedStats()

    def on_arrival(self, request, now):
        self.arrivals += 1
        self._outstanding += 1
        self.queue.update(now, self._outstanding)

    def on_completion(self, request, now, service_s=None):
        request.completion_s = now
        self.total_completed += 1
        self._outstanding -= 1
        self.queue.update(now, self._outstanding)
        if now >= self.warmup_s:
            self.completed_after_warmup += 1
            self.response.add(request.response_s)
            self.response_hist.add(request.response_s)
            if service_s is not None:
                self.waiting.add(max(0.0, request.response_s - service_s))
            if request.deadline_s is not None and now > request.deadline_s:
                self.late_completions += 1

    def on_drive_busy(self, start_s, duration_s):
        end_s = start_s + duration_s
        overlap = max(0.0, end_s - max(start_s, self.warmup_s))
        self.busy_s_after_warmup += overlap


def stats_state(stats):
    return (
        stats.elapsed.hex(),
        stats.mean.hex(),
        stats.mean_square.hex(),
        stats.variance.hex(),
        stats.minimum,
        stats.maximum,
        stats._last_time.hex(),
        stats._last_value.hex(),
    )


#: Gaps between events: many exact ties, some tiny, some long.
GAPS = st.one_of(
    st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 500.0), st.just(0.1)
)
VALUES = st.one_of(st.integers(-5, 60), st.floats(-100.0, 100.0))


@settings(max_examples=300, deadline=None)
@given(
    start=st.floats(0.0, 100.0),
    steps=st.lists(st.tuples(GAPS, VALUES), max_size=40),
    end_gap=GAPS,
)
def test_time_weighted_update_matches_frozen(start, steps, end_gap):
    fused = TimeWeightedStats(initial_time=start)
    frozen = FrozenTimeWeightedStats(initial_time=start)
    now = start
    for gap, value in steps:
        now += gap
        fused.update(now, value)
        frozen.update(now, value)
        assert stats_state(fused) == stats_state(frozen)
    fused.finalize(now + end_gap)
    frozen.finalize(now + end_gap)
    assert stats_state(fused) == stats_state(frozen)


def test_time_going_backwards_raises_the_same_error():
    errors = []
    pair = (TimeWeightedStats(), FrozenTimeWeightedStats())
    for stats in pair:
        stats.update(10.0, 1)
        try:
            stats.update(5.0, 2)
        except ValueError as error:
            errors.append(str(error))
    assert len(errors) == 2 and errors[0] == errors[1]
    assert stats_state(pair[0]) == stats_state(pair[1])


#: One collector event: an arrival, a completion of the ``pick``-th
#: outstanding request, or a drive busy span.
EVENTS = st.one_of(
    st.tuples(st.just("arrive"), GAPS, st.one_of(st.none(), st.floats(0.0, 800.0))),
    st.tuples(
        st.just("complete"),
        GAPS,
        st.tuples(
            st.integers(0, 1000),
            st.one_of(st.none(), st.floats(0.0, 300.0), st.just(0.0)),
        ),
    ),
    st.tuples(st.just("busy"), GAPS, st.floats(0.0, 400.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    # 0.1-second gaps land exactly on the listed boundaries.
    warmup_s=st.one_of(
        st.sampled_from([0.0, 0.1, 0.2, 0.1 + 0.1 + 0.1]), st.floats(0.0, 3000.0)
    ),
    block_mb=st.sampled_from([1.0, 16.0]),
    events=st.lists(EVENTS, max_size=60),
    end_gap=GAPS,
)
# A subnormal window: positive, but its minutes and hours underflow.
@example(warmup_s=0.0, block_mb=16.0, events=[], end_gap=5e-324)
def test_collector_matches_frozen(warmup_s, block_mb, events, end_gap):
    fused = MetricsCollector(block_mb=block_mb, warmup_s=warmup_s)
    frozen = FrozenMetricsCollector(block_mb=block_mb, warmup_s=warmup_s)
    outstanding = []  # (fused request, frozen request) pairs
    now = 0.0
    next_id = 0
    for kind, gap, detail in events:
        now += gap
        if kind == "arrive":
            deadline = None if detail is None else now + detail
            pair = tuple(
                Request(next_id, next_id % 7, now, deadline_s=deadline)
                for _ in range(2)
            )
            next_id += 1
            outstanding.append(pair)
            fused.on_arrival(pair[0], now)
            frozen.on_arrival(pair[1], now)
        elif kind == "complete":
            pick, service_s = detail
            if not outstanding:
                continue
            mine, theirs = outstanding.pop(pick % len(outstanding))
            fused.on_completion(mine, now, service_s=service_s)
            frozen.on_completion(theirs, now, service_s=service_s)
            assert mine.completion_s == theirs.completion_s
        else:
            fused.on_drive_busy(now, detail)
            frozen.on_drive_busy(now, detail)
    fused.finalize(now + end_gap)
    frozen.finalize(now + end_gap)
    assert stats_state(fused.queue) == stats_state(frozen.queue)
    assert fused.report() == frozen.report()
    assert report_digest(fused.report()) == report_digest(frozen.report())
