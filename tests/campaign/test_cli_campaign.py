"""Tests for the shared CLI campaign flags (--jobs/--cache-dir/--no-cache/--progress)."""

import pytest

from repro.api import run
from repro.campaign import Campaign
from repro.cli import main

SWEEP = [
    "sweep", "--tapes", "4", "--queues", "5,10", "--horizon", "5000",
]


class TestSweepFlags:
    def test_parallel_sweep_matches_serial(self, capsys):
        assert main(SWEEP) == 0
        serial_out = capsys.readouterr().out
        assert main(SWEEP + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_cache_dir_serves_second_invocation(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(SWEEP + ["--cache-dir", cache, "--progress"]) == 0
        first = capsys.readouterr()
        assert "2 executed" in first.err
        assert main(SWEEP + ["--cache-dir", cache, "--progress"]) == 0
        second = capsys.readouterr()
        assert "2 cache hits" in second.err
        assert "0 executed" in second.err
        assert second.out == first.out

    def test_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(SWEEP + ["--cache-dir", cache, "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "cache").exists()

    def test_progress_lines_on_stderr(self, capsys):
        assert main(SWEEP + ["--progress"]) == 0
        captured = capsys.readouterr()
        assert "[1/2]" in captured.err
        assert "[2/2]" in captured.err
        assert "[1/2]" not in captured.out


class TestRunFlags:
    RUN = ["run", "--tapes", "4", "--queue", "5", "--horizon", "5000"]

    def test_run_accepts_campaign_flags(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(self.RUN + ["--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        assert main(self.RUN + ["--cache-dir", cache, "--progress"]) == 0
        second = capsys.readouterr()
        assert second.out == first
        assert "1 cache hits" in second.err

    def test_env_cache_dir_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert main(self.RUN) == 0
        capsys.readouterr()
        assert (tmp_path / "envcache").exists()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        assert main(self.RUN + ["--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "ignored").exists()


def _failing_runner(config):
    if config.queue_length == 10:
        raise RuntimeError("synthetic point failure")
    return run(config)


class _FailingCampaign(Campaign):
    """A Campaign whose runner fails one point (injected under the CLI)."""

    def __init__(self, **kwargs):
        kwargs["runner"] = _failing_runner
        super().__init__(**kwargs)


class TestFailureExit:
    def test_failed_point_exits_nonzero_with_summary(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("repro.campaign.Campaign", _FailingCampaign)
        cache = str(tmp_path / "cache")
        assert main(SWEEP + ["--cache-dir", cache]) != 0
        err = capsys.readouterr().err
        assert "campaign failed: 1 of 2 point(s) did not complete" in err
        assert "campaign-journal.jsonl" in err

    def test_journal_failure_summary_without_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("repro.campaign.Campaign", _FailingCampaign)
        journal = str(tmp_path / "j.jsonl")
        assert main(SWEEP + ["--no-cache", "--journal", journal]) != 0
        err = capsys.readouterr().err
        assert f"journal: {journal}" in err


class TestJournalFlags:
    def test_sweep_writes_journal_next_to_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(SWEEP + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert (cache / "campaign-journal.jsonl").exists()

    def test_no_journal_suppresses_it(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(
            SWEEP + ["--cache-dir", str(cache), "--no-journal"]
        ) == 0
        capsys.readouterr()
        assert not (cache / "campaign-journal.jsonl").exists()

    def test_resume_reuses_cached_points(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(SWEEP + ["--cache-dir", cache]) == 0
        first = capsys.readouterr().out
        argv = SWEEP + ["--cache-dir", cache, "--resume", "--progress"]
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first
        assert "2 cache hits" in second.err

    def test_resume_without_journal_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(SWEEP + ["--no-cache", "--resume"])


class TestCacheSubcommand:
    def test_stats_and_clean(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(SWEEP + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        shard = next(cache.glob("*/"))
        (shard / ".dead.json.1.tmp").write_text("{ torn")

        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        assert "2 cached result(s)" in capsys.readouterr().out
        assert main(["cache", "clean", "--cache-dir", str(cache)]) == 0
        assert "removed 1 orphaned temp file(s)" in capsys.readouterr().out
        assert not (shard / ".dead.json.1.tmp").exists()

    def test_cache_without_dir_is_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        with pytest.raises(SystemExit):
            main(["cache", "stats"])


class TestFigureFlags:
    def test_analytic_figure_accepts_campaign_flags(self, capsys):
        assert main(["figure", "10a", "--jobs", "2"]) == 0
        assert "PH-10" in capsys.readouterr().out

    def test_simulated_figure_with_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = [
            "figure", "3", "--horizon", "5000",
            "--jobs", "2", "--cache-dir", cache, "--progress",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "0 executed" in second.err
