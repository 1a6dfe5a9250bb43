#!/usr/bin/env python3
"""Chaos harness for crash-safe campaign execution.

Subjects a real (small) campaign grid to the failures the supervisor,
journal, and cache claim to survive — worker kills mid-point, a
SIGKILLed campaign process, corrupted cache entries and journal lines,
a full disk — and asserts the crash-safety invariant every time:

    the campaign either completes with results **bit-identical** to an
    undisturbed serial run (compared by
    :func:`repro.service.metrics.report_digest` golden hashes), or it
    fails loudly leaving a resumable journal — and a resume never
    re-executes a point the journal marked done whose cache entry is
    intact.

Run from the repository root::

    PYTHONPATH=src python tools/chaos_campaign.py --profile quick
    PYTHONPATH=src python tools/chaos_campaign.py --profile full -v

Exit status 0 means every scenario held the invariant; 1 means at
least one violated it (the JSON report on stdout names it).  The quick
profile (worker kill + crash/resume + corrupt cache entry) is what CI's
``chaos-smoke`` job runs; the full profile adds journal corruption,
disk-full, and orphan-GC scenarios.

Worker-kill injection uses picklable runner objects coordinated
through marker files, so it works across process boundaries without
shared state; the harness therefore requires a platform with
``fork``/``SIGKILL`` (any Linux/macOS CI).
"""

from __future__ import annotations

import argparse
import errno
import json
import multiprocessing
import os
import signal
import sys
import tempfile
import time
import warnings
from pathlib import Path

if __package__ in (None, ""):
    # Allow `python tools/chaos_campaign.py` from the repo root.
    _here = Path(__file__).resolve()
    sys.path.insert(0, str(_here.parent.parent / "src"))
    sys.path.insert(0, str(_here.parent))

from repro.api import run
from repro.campaign import Campaign, CampaignJournal, ResultCache
from repro.campaign.hashing import config_digest
from repro.experiments import ExperimentConfig
from repro.obs import MetricRegistry
from repro.service.metrics import report_digest


def chaos_grid(points: int = 6, horizon_s: float = 5_000.0):
    """The harness's small-but-real campaign grid."""
    base = ExperimentConfig(
        queue_length=5, horizon_s=horizon_s, tape_count=4, capacity_mb=500.0
    )
    return [base.with_(queue_length=5 * (index + 1)) for index in range(points)]


def baseline_digests(configs) -> dict:
    """Golden hashes of an undisturbed serial, uncached run."""
    submission = Campaign().submit(configs)
    return {
        config_digest(config): report_digest(submission.require(config).report)
        for config in configs
    }


def result_digests(submission, configs) -> dict:
    return {
        config_digest(config): report_digest(submission.require(config).report)
        for config in configs
    }


# ----------------------------------------------------------------------
# Picklable chaos runners (must be importable by worker processes).
# ----------------------------------------------------------------------
class KillOnceRunner:
    """SIGKILLs its own worker the first time the victim point runs.

    The marker file makes the kill happen exactly once across any
    number of processes: the first worker to reach the victim creates
    it and dies; the retry (in a fresh worker) finds it and simulates
    normally.
    """

    def __init__(self, marker_dir: str, victim_queue_length: int) -> None:
        self.marker = os.path.join(marker_dir, "killed-once")
        self.victim_queue_length = victim_queue_length

    def __call__(self, config):
        if config.queue_length == self.victim_queue_length:
            try:
                fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass  # already killed once; run normally this time
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return run(config)


class RecordingRunner:
    """Records every executed config digest as a file in ``record_dir``."""

    def __init__(self, record_dir: str) -> None:
        self.record_dir = record_dir

    def __call__(self, config):
        path = os.path.join(self.record_dir, config_digest(config))
        with open(path, "a", encoding="utf-8"):
            pass
        return run(config)


class SlowRunner:
    """Delays each point so the harness can kill the campaign mid-run."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def __call__(self, config):
        time.sleep(self.delay_s)
        return run(config)


class FullDiskCache(ResultCache):
    """A cache whose disk 'fills up' after the first ``capacity`` writes."""

    def __init__(self, root, capacity: int = 1, **kwargs) -> None:
        super().__init__(root, **kwargs)
        self.capacity = capacity
        self.writes = 0

    def put(self, result):
        if self.writes >= self.capacity:
            raise OSError(errno.ENOSPC, "no space left on device (chaos)")
        self.writes += 1
        return super().put(result)


def _campaign_victim_process(configs, cache_dir, journal_path, delay_s):
    """Target for the crash scenario: a journaled campaign to SIGKILL."""
    Campaign(
        cache_dir=cache_dir,
        journal_path=journal_path,
        runner=SlowRunner(delay_s),
    ).submit(configs)


def corrupt_one_entry(cache_dir, config) -> Path:
    """Overwrite ``config``'s cache entry with a torn, unparsable write."""
    path = ResultCache(cache_dir, sweep_orphans=False).path_for(config)
    original = path.read_text()
    path.write_text(original[: max(4, len(original) // 3)] + "\x00garbage")
    return path


# ----------------------------------------------------------------------
# Scenarios.  Each returns a JSON-able dict with at least {"ok": bool}.
# ----------------------------------------------------------------------
def scenario_worker_kill(configs, golden, workdir, verbose) -> dict:
    """A worker SIGKILLed mid-point: retried, completed, bit-identical."""
    marker_dir = tempfile.mkdtemp(dir=workdir, prefix="kill-")
    cache_dir = os.path.join(workdir, "cache-kill")
    victim = configs[len(configs) // 2].queue_length
    campaign = Campaign(
        jobs=2,
        cache_dir=cache_dir,
        journal_path=os.path.join(workdir, "journal-kill.jsonl"),
        runner=KillOnceRunner(marker_dir, victim),
        max_attempts=3,
        backoff_base_s=0.05,
    )
    submission = campaign.submit(configs)
    digests = result_digests(submission, configs)
    return {
        "ok": (
            len(submission.failures) == 0
            and digests == golden
            and submission.stats.retried >= 1
            and campaign.metrics.count("campaign.workers.died") >= 1
        ),
        "failures": len(submission.failures),
        "retried": submission.stats.retried,
        "workers_died": campaign.metrics.count("campaign.workers.died"),
        "bit_identical": digests == golden,
    }


def scenario_crash_resume_corrupt(configs, golden, workdir, verbose) -> dict:
    """The CI invariant: SIGKILL the campaign process mid-run, corrupt
    one finished point's cache entry, then resume.

    Asserts the resumed campaign (a) re-executes *only* points that are
    not journal-done-with-intact-cache — zero intact done points re-run
    — (b) quarantines the corrupted entry as evidence, and (c) ends
    bit-identical to the undisturbed serial baseline.
    """
    cache_dir = os.path.join(workdir, "cache-crash")
    journal_path = os.path.join(workdir, "journal-crash.jsonl")
    process = multiprocessing.Process(
        target=_campaign_victim_process,
        args=(configs, cache_dir, journal_path, 0.25),
    )
    process.start()
    journal = CampaignJournal(journal_path)
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        if journal.exists() and len(journal.load_state().done) >= 2:
            break
        time.sleep(0.02)
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10.0)

    state = journal.load_state()
    done_before = set(state.done)
    if not done_before or len(done_before) >= len(configs):
        return {
            "ok": False,
            "reason": "kill timing produced no partial campaign",
            "done_before_resume": len(done_before),
        }

    # SIGKILL can land between the journal's `done` append and the
    # cache write, so "done" and "done with a verifiable cache entry"
    # can legitimately differ by the in-flight point — the invariant is
    # about the latter set.
    by_digest = {config_digest(config): config for config in configs}
    probe = ResultCache(cache_dir, sweep_orphans=False)
    intact_before = {
        digest
        for digest in done_before
        if probe.path_for(by_digest[digest]).exists()
    }
    if not intact_before:
        return {
            "ok": False,
            "reason": "kill timing left no intact done point to corrupt",
            "done_before_resume": len(done_before),
        }

    # Corrupt the cache entry of one journal-done point: the resume
    # must quarantine it and re-run that point (the journal alone can
    # never substitute for a verifiable cached result).
    corrupted_digest = sorted(intact_before)[0]
    corrupt_one_entry(cache_dir, by_digest[corrupted_digest])

    record_dir = tempfile.mkdtemp(dir=workdir, prefix="executed-")
    campaign = Campaign(
        cache_dir=cache_dir,
        journal_path=journal_path,
        runner=RecordingRunner(record_dir),
    )
    submission = campaign.submit(configs, resume=True)
    executed = set(os.listdir(record_dir))
    digests = result_digests(submission, configs)

    intact_done = intact_before - {corrupted_digest}
    rerun_of_intact_done = executed & intact_done
    quarantined = ResultCache(cache_dir, sweep_orphans=False).corrupt_entries()
    return {
        "ok": (
            digests == golden
            and not rerun_of_intact_done
            and corrupted_digest in executed
            and len(quarantined) == 1
            and submission.stats.resumed_done == len(intact_done)
        ),
        "bit_identical": digests == golden,
        "done_before_resume": len(done_before),
        "executed_on_resume": len(executed),
        "rerun_of_intact_done_points": len(rerun_of_intact_done),
        "corrupted_entry_requeued": corrupted_digest in executed,
        "quarantined_entries": [str(path) for path in quarantined],
        "resumed_done": submission.stats.resumed_done,
    }


def scenario_corrupt_journal(configs, golden, workdir, verbose) -> dict:
    """Garbage + torn lines in the journal: resume degrades, never dies."""
    cache_dir = os.path.join(workdir, "cache-journal")
    journal_path = os.path.join(workdir, "journal-corrupt.jsonl")
    first = Campaign(cache_dir=cache_dir, journal_path=journal_path)
    first.submit(configs[: len(configs) // 2])
    with open(journal_path, "ab") as handle:
        handle.write(b"\x00\xff this is not json\n")
        handle.write(b'{"event": "done", "digest": 42}\n')  # wrong types
        handle.write(b'{"event":"start","digest":"abc","attempt":1')  # torn
    journal = CampaignJournal(journal_path)
    state = journal.load_state()
    campaign = Campaign(cache_dir=cache_dir, journal_path=journal_path)
    submission = campaign.submit(configs, resume=True)
    digests = result_digests(submission, configs)
    # Reliability counters aggregated across both campaigns of the
    # scenario (the partial run and the resumed one).
    totals = MetricRegistry().merge(first.metrics).merge(campaign.metrics)
    return {
        "ok": (
            digests == golden
            and state.corrupt_lines >= 3
            and len(submission.failures) == 0
        ),
        "bit_identical": digests == golden,
        "corrupt_lines": state.corrupt_lines,
        "counters": totals.snapshot()["counters"],
    }


def scenario_disk_full(configs, golden, workdir, verbose) -> dict:
    """ENOSPC during cache writes: results stay correct, loss is loud."""
    cache = FullDiskCache(
        os.path.join(workdir, "cache-full"), capacity=2
    )
    campaign = Campaign(cache_dir=cache)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        submission = campaign.submit(configs)
    digests = result_digests(submission, configs)
    write_errors = campaign.metrics.count("campaign.cache.write_errors")
    warned = any("cache write failed" in str(w.message) for w in caught)
    return {
        "ok": (
            digests == golden
            and len(submission.failures) == 0
            and write_errors == len(configs) - 2
            and warned
        ),
        "bit_identical": digests == golden,
        "write_errors": write_errors,
        "warned": warned,
    }


def scenario_orphan_gc(configs, golden, workdir, verbose) -> dict:
    """Crashed-writer temp files are swept; entries stay untouched."""
    cache_dir = os.path.join(workdir, "cache-orphan")
    Campaign(cache_dir=cache_dir).submit(configs[:2])
    cache = ResultCache(cache_dir, sweep_orphans=False)
    shard = next(iter(sorted(Path(cache_dir).glob("*/"))))
    orphan = shard / ".deadbeef.json.12345.tmp"
    orphan.write_text("{ torn")
    removed = cache.clean()
    entries_before = len(cache)
    submission = Campaign(cache_dir=cache_dir).submit(configs[:2])
    return {
        "ok": (
            removed == 1
            and not orphan.exists()
            and entries_before == 2
            and submission.stats.cache_hits == 2
        ),
        "orphans_removed": removed,
        "entries": entries_before,
    }


PROFILES = {
    "quick": (
        scenario_worker_kill,
        scenario_crash_resume_corrupt,
    ),
    "full": (
        scenario_worker_kill,
        scenario_crash_resume_corrupt,
        scenario_corrupt_journal,
        scenario_disk_full,
        scenario_orphan_gc,
    ),
}


def run_profile(
    profile: str = "quick",
    points: int = 6,
    horizon_s: float = 5_000.0,
    workdir=None,
    verbose: bool = False,
) -> dict:
    """Run every scenario in ``profile``; returns the JSON-able report."""
    configs = chaos_grid(points=points, horizon_s=horizon_s)
    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="chaos-campaign-")
        workdir = own_tmp.name
    try:
        golden = baseline_digests(configs)
        report = {"profile": profile, "points": points, "scenarios": {}}
        ok = True
        for scenario in PROFILES[profile]:
            name = scenario.__name__.replace("scenario_", "")
            if verbose:
                print(f"chaos: running {name} ...", file=sys.stderr)
            outcome = scenario(configs, golden, workdir, verbose)
            report["scenarios"][name] = outcome
            ok = ok and bool(outcome.get("ok"))
        report["ok"] = ok
        return report
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="chaos-test crash-safe campaign execution"
    )
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default="quick",
        help="quick: worker kill + crash/resume/corrupt-cache (CI); "
        "full: adds journal corruption, disk-full, and orphan GC",
    )
    parser.add_argument("--points", type=int, default=6)
    parser.add_argument("--horizon", type=float, default=5_000.0)
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    report = run_profile(
        profile=args.profile,
        points=args.points,
        horizon_s=args.horizon,
        verbose=args.verbose,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report["ok"]:
        print("chaos: INVARIANT VIOLATED", file=sys.stderr)
        return 1
    print(
        f"chaos: all {len(report['scenarios'])} scenario(s) held the "
        "crash-safety invariant",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
