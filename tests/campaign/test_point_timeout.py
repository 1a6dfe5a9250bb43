"""Per-point wall-clock timeouts: a hung worker becomes an error record."""

import time

import pytest

from repro.api import run
from repro.campaign import Campaign, PointTimeoutError
from repro.campaign.engine import _wall_clock_limit
from repro.experiments import ExperimentConfig

BASE = ExperimentConfig(
    queue_length=5, horizon_s=5_000.0, tape_count=4, capacity_mb=500.0
)


def _hanging_runner(config):
    """Module-level (hence picklable) runner that hangs on one point."""
    if config.queue_length == 10:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:  # un-cooperative busy loop
            pass
    return run(config)


def _grid(count: int = 3):
    return [BASE.with_(queue_length=5 * (index + 1)) for index in range(count)]


class TestWallClockLimit:
    def test_interrupts_a_busy_loop(self):
        with pytest.raises(PointTimeoutError):
            with _wall_clock_limit(0.05):
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    pass

    def test_no_timeout_is_a_no_op(self):
        with _wall_clock_limit(None):
            pass

    def test_fast_work_passes_and_disarms(self):
        with _wall_clock_limit(5.0):
            value = 1 + 1
        # The timer must be disarmed: sleeping past nothing raises nothing.
        time.sleep(0.01)
        assert value == 2

    def test_off_main_thread_warns_and_degrades_to_no_op(self):
        # SIGALRM can only be armed on the Unix main thread; elsewhere
        # the limit must degrade loudly instead of raising ValueError
        # (the supervisor's deadline kill is the backstop there).
        import threading
        import warnings

        outcome = {}

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    with _wall_clock_limit(0.05):
                        time.sleep(0.15)  # well past the "limit"
                    outcome["raised"] = False
                except PointTimeoutError:
                    outcome["raised"] = True
                outcome["warnings"] = [str(w.message) for w in caught]

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=10.0)
        assert outcome["raised"] is False
        assert any(
            "off the main thread" in message
            for message in outcome["warnings"]
        )


class TestCampaignTimeouts:
    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError):
            Campaign(point_timeout_s=0.0)

    def test_hung_point_becomes_error_record(self):
        campaign = Campaign(runner=_hanging_runner, point_timeout_s=0.5)
        configs = _grid(3)
        submission = campaign.submit(configs)
        hung = configs[1]
        failure = submission.failure_for(hung)
        assert failure is not None
        assert failure.error == "PointTimeoutError"
        # The other points still ran to completion.
        assert submission.result_for(configs[0]) is not None
        assert submission.result_for(configs[2]) is not None
        assert submission.stats.failures == 1

    def test_hung_point_in_parallel_batch(self):
        campaign = Campaign(
            jobs=2, runner=_hanging_runner, point_timeout_s=0.5
        )
        configs = _grid(3)
        submission = campaign.submit(configs)
        assert submission.failure_for(configs[1]).error == "PointTimeoutError"
        assert len(submission.results) == 2

    def test_timeouts_are_not_cached(self, tmp_path):
        campaign = Campaign(
            runner=_hanging_runner, point_timeout_s=0.5, cache_dir=tmp_path
        )
        configs = _grid(3)
        campaign.submit(configs)
        # Re-submit without the hang: the timed-out point must re-run
        # (a cache hit would replay the failure forever).
        retry = Campaign(runner=run, cache_dir=tmp_path)
        submission = retry.submit(configs)
        assert submission.stats.cache_hits == 2
        assert submission.stats.executed == 1
        assert submission.result_for(configs[1]) is not None

    def test_generous_timeout_changes_nothing(self):
        configs = _grid(2)
        plain = Campaign().submit(configs)
        timed = Campaign(point_timeout_s=300.0).submit(configs)
        for config in configs:
            assert (
                timed.require(config).report == plain.require(config).report
            )
