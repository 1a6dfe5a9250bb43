"""Tests for journaled campaigns: resume, interrupts, and the breaker."""

import pytest

from repro.api import run
from repro.campaign import (
    Campaign,
    CampaignJournal,
    JournalCompatError,
    config_digest,
)
from repro.experiments import ExperimentConfig

BASE = ExperimentConfig(
    queue_length=5, horizon_s=5_000.0, tape_count=4, capacity_mb=500.0
)


def _grid(count: int = 4):
    return [BASE.with_(queue_length=5 * (index + 1)) for index in range(count)]


class _InterruptOn:
    """Raises KeyboardInterrupt (once per instance) on the victim point."""

    def __init__(self, victim_queue_length):
        self.victim_queue_length = victim_queue_length
        self.fired = False

    def __call__(self, config):
        if config.queue_length == self.victim_queue_length and not self.fired:
            self.fired = True
            raise KeyboardInterrupt
        return run(config)


def _failing_runner(config):
    if config.queue_length == 10:
        raise RuntimeError("synthetic point failure")
    return run(config)


class TestJournaling:
    def test_submit_writes_a_replayable_journal(self, tmp_path):
        configs = _grid(2)
        journal_path = tmp_path / "journal.jsonl"
        campaign = Campaign(
            cache_dir=tmp_path / "cache", journal_path=journal_path
        )
        submission = campaign.submit(configs)
        assert submission.journal_path == journal_path
        state = CampaignJournal(journal_path).load_state()
        for config in configs:
            assert state.classify(config_digest(config)) == "done"
        assert state.done and not state.in_flight and not state.failed

    def test_failures_are_journaled_as_failed(self, tmp_path):
        configs = _grid(2)  # queue 10 fails deterministically
        campaign = Campaign(
            journal_path=tmp_path / "journal.jsonl", runner=_failing_runner
        )
        campaign.submit(configs)
        state = CampaignJournal(tmp_path / "journal.jsonl").load_state()
        assert state.failed[config_digest(configs[1])] == "RuntimeError"

    def test_fresh_submission_truncates_the_journal(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        Campaign(journal_path=journal_path).submit(_grid(2))
        Campaign(journal_path=journal_path).submit(_grid(1))
        state = CampaignJournal(journal_path).load_state()
        assert len(state.done) == 1


class TestInterruptAndResume:
    def test_keyboard_interrupt_flushes_journal_and_cache(self, tmp_path):
        configs = _grid(4)
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "journal.jsonl"
        campaign = Campaign(
            cache_dir=cache_dir,
            journal_path=journal_path,
            runner=_InterruptOn(victim_queue_length=15),
        )
        with pytest.raises(KeyboardInterrupt):
            campaign.submit(configs)
        assert campaign.metrics.count("campaign.interrupts") == 1
        assert campaign.last_stats.interrupted

        state = CampaignJournal(journal_path).load_state()
        assert state.interrupted
        # Points 0 and 1 completed and were cached incrementally; the
        # victim is journaled in flight; point 3 never started.
        assert len(state.done) == 2
        assert config_digest(configs[2]) in state.in_flight
        assert state.classify(config_digest(configs[3])) == "unknown"

    def test_resume_completes_without_rerunning_done_points(self, tmp_path):
        configs = _grid(4)
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "journal.jsonl"
        with pytest.raises(KeyboardInterrupt):
            Campaign(
                cache_dir=cache_dir,
                journal_path=journal_path,
                runner=_InterruptOn(victim_queue_length=15),
            ).submit(configs)

        resumed = Campaign(
            cache_dir=cache_dir, journal_path=journal_path
        )
        submission = resumed.submit(configs, resume=True)
        assert len(submission.results) == 4
        assert submission.stats.cache_hits == 2
        assert submission.stats.resumed_done == 2
        assert submission.stats.executed == 2  # victim + never-started
        assert resumed.metrics.count("campaign.resume.done_skipped") == 2
        assert (
            resumed.metrics.count("campaign.resume.requeued_in_flight") == 1
        )
        # Resumed results are bit-identical to an undisturbed run.
        fresh = Campaign().submit([configs[2]])
        assert (
            submission.require(configs[2]).report
            == fresh.require(configs[2]).report
        )

    def test_resume_reruns_journaled_failures(self, tmp_path):
        configs = _grid(2)
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "journal.jsonl"
        Campaign(
            cache_dir=cache_dir,
            journal_path=journal_path,
            runner=_failing_runner,
        ).submit(configs)
        healed = Campaign(cache_dir=cache_dir, journal_path=journal_path)
        submission = healed.submit(configs, resume=True)
        assert submission.stats.failures == 0
        assert len(submission.results) == 2
        assert healed.metrics.count("campaign.resume.failed_retried") == 1

    def test_journal_done_without_cache_entry_reruns(self, tmp_path):
        # The journal alone can never substitute for a verifiable
        # cached result: done-but-missing-cache points re-execute.
        configs = _grid(2)
        journal_path = tmp_path / "journal.jsonl"
        Campaign(journal_path=journal_path).submit(configs)  # no cache
        resumed = Campaign(
            cache_dir=tmp_path / "cache", journal_path=journal_path
        )
        submission = resumed.submit(configs, resume=True)
        assert submission.stats.executed == 2
        assert (
            resumed.metrics.count("campaign.resume.done_missing_cache") == 2
        )

    def test_resume_refuses_a_foreign_salt(self, tmp_path):
        configs = _grid(1)
        journal_path = tmp_path / "journal.jsonl"
        Campaign(journal_path=journal_path, salt="old").submit(configs)
        with pytest.raises(JournalCompatError):
            Campaign(journal_path=journal_path, salt="new").submit(
                configs, resume=True
            )

    def test_resume_without_prior_journal_just_runs(self, tmp_path):
        configs = _grid(2)
        campaign = Campaign(
            cache_dir=tmp_path / "cache",
            journal_path=tmp_path / "journal.jsonl",
        )
        submission = campaign.submit(configs, resume=True)
        assert len(submission.results) == 2
        assert submission.stats.resumed_done == 0


class TestAbortBreaker:
    def test_consecutive_failures_trip_the_breaker(self, tmp_path):
        configs = _grid(4)

        journal_path = tmp_path / "journal.jsonl"
        campaign = Campaign(
            journal_path=journal_path,
            runner=_always_failing,
            abort_after=2,
        )
        submission = campaign.submit(configs)
        assert submission.stats.aborted
        assert campaign.metrics.count("campaign.aborts") == 1
        errors = [failure.error for failure in submission.failures]
        assert errors.count("RuntimeError") == 2
        assert errors.count("CampaignAborted") == 2
        state = CampaignJournal(journal_path).load_state()
        assert state.aborted

    def test_success_resets_the_consecutive_counter(self):
        configs = _grid(4)  # only queue 10 fails
        campaign = Campaign(runner=_failing_runner, abort_after=2)
        submission = campaign.submit(configs)
        assert not submission.stats.aborted
        assert submission.stats.failures == 1


def _always_failing(config):
    raise RuntimeError("every point fails")
