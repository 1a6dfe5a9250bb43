"""Chunked dispatch: batching, mid-chunk death, overhead accounting.

The supervised pool ships points to workers in chunks (one pickle per
chunk, results streamed back per point).  These tests pin the contract
that batching must not change: per-point retry/journal semantics, a
worker death requeues *only* the unfinished remainder of its chunk,
and resume sees exactly the per-point lifecycle it always did.
"""

import math
import os
import pickle
import time

import pytest

from repro.api import run
from repro.campaign import (
    Campaign,
    CampaignJournal,
    SupervisedPool,
    SupervisorHooks,
    config_digest,
)
from repro.campaign.supervisor import auto_chunk_size
from repro.experiments import ExperimentConfig
from repro.obs import MetricRegistry

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="supervisor tests need fork + SIGKILL"
)


# ----------------------------------------------------------------------
# Module-level (fork/pickle-safe) runners.
# ----------------------------------------------------------------------
def _identity(value):
    return value


class _DieOnceOn:
    """SIGKILL-equivalent death on ``victim``, exactly once (marker file)."""

    def __init__(self, marker_dir, victim):
        self.marker = os.path.join(marker_dir, "died-once")
        self.victim = victim

    def __call__(self, value):
        if value == self.victim and not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os._exit(11)
        return value


class _Recorder:
    """Captures every supervisor callback, including streamed walls."""

    def __init__(self):
        self.started = []
        self.retried = []
        self.finals = {}
        self.attempts = {}
        self.abandoned = []
        self.walls = {}

    def hooks(self):
        return SupervisorHooks(
            on_start=lambda index, attempt: self.started.append((index, attempt)),
            on_retry=lambda index, attempt, error, message: self.retried.append(
                (index, attempt, error)
            ),
            on_final=self.on_final,
            on_abandoned=lambda index, reason: self.abandoned.append(
                (index, reason)
            ),
            on_wall=lambda index, wall_s: self.walls.setdefault(index, wall_s),
        )

    def on_final(self, index, status, payload, attempts):
        self.finals[index] = (status, payload)
        self.attempts[index] = attempts
        return True


class TestAutoChunkSize:
    def test_small_batches_degrade_to_per_point(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(4, 2) == 1
        assert auto_chunk_size(5, 1) == 2

    def test_large_batches_are_capped(self):
        assert auto_chunk_size(100, 2) == math.ceil(100 / 8)
        assert auto_chunk_size(10_000, 4) == 16


class TestMidChunkDeath:
    def test_kill_requeues_only_the_unfinished_points(self, tmp_path):
        """Streamed results survive; only the chunk's tail retries."""
        recorder = _Recorder()
        pool = SupervisedPool(
            jobs=1,
            runner=_DieOnceOn(str(tmp_path), victim=2),
            chunk_size=4,
            backoff_base_s=0.01,
        )
        pool.run([(index, index, 0) for index in range(4)], recorder.hooks())
        assert recorder.finals == {index: ("ok", index) for index in range(4)}
        # Points 0 and 1 streamed back before the death: one attempt,
        # never retried.  The victim and the point behind it in the
        # chunk were requeued exactly once each.
        assert recorder.attempts[0] == 1 and recorder.attempts[1] == 1
        assert recorder.attempts[2] == 2 and recorder.attempts[3] == 2
        assert sorted(index for index, _a, _e in recorder.retried) == [2, 3]
        assert all(error == "WorkerCrashError" for _i, _a, error in recorder.retried)

    def test_streamed_results_are_not_rerun(self, tmp_path):
        """on_start fires once per surviving point, twice per requeued."""
        recorder = _Recorder()
        pool = SupervisedPool(
            jobs=1,
            runner=_DieOnceOn(str(tmp_path), victim=1),
            chunk_size=3,
            backoff_base_s=0.01,
        )
        pool.run([(index, index, 0) for index in range(3)], recorder.hooks())
        starts = {}
        for index, _attempt in recorder.started:
            starts[index] = starts.get(index, 0) + 1
        assert starts == {0: 1, 1: 2, 2: 2}


class TestStreamingAndOverhead:
    def test_results_stream_with_worker_measured_walls(self):
        recorder = _Recorder()
        pool = SupervisedPool(jobs=2, runner=_identity, chunk_size=3)
        pool.run([(index, index, 0) for index in range(8)], recorder.hooks())
        assert len(recorder.finals) == 8
        assert set(recorder.walls) == set(range(8))
        assert all(wall >= 0.0 for wall in recorder.walls.values())

    def test_overhead_accounting(self):
        metrics = MetricRegistry()
        pool = SupervisedPool(
            jobs=2, runner=_identity, chunk_size=3, metrics=metrics
        )
        pool.run([(index, index, 0) for index in range(8)], _Recorder().hooks())
        overhead = pool.overhead
        assert overhead["chunk_size"] == 3
        assert overhead["points_dispatched"] == 8
        assert overhead["chunks_dispatched"] == math.ceil(8 / 3)
        assert overhead["payload_bytes"] > 0
        assert overhead["dispatch_s"] >= 0.0
        assert 1 <= len(overhead["worker_startup_ms"]) <= 2
        assert metrics.count("campaign.chunks.dispatched") == 3
        assert (
            metrics.count("campaign.dispatch.payload_bytes")
            == overhead["payload_bytes"]
        )

    def test_chunk_pickle_dedups_shared_subobjects(self):
        """One chunk pickle ships a shared sub-config once, not per point."""
        shared = tuple(range(2000))
        points = [(index, ("config", index, shared), 0) for index in range(8)]
        per_point_bytes = sum(
            len(pickle.dumps(("chunk", [(index, config)])))
            for index, config, _attempts in points
        )
        pool = SupervisedPool(jobs=1, runner=_identity, chunk_size=8)
        pool.run(points, _Recorder().hooks())
        assert pool.overhead["chunks_dispatched"] == 1
        assert pool.overhead["payload_bytes"] < per_point_bytes / 4


def _warm_marker(path):
    with open(path, "w") as handle:
        handle.write("warm")


def _broken_initializer():
    raise RuntimeError("initializer exploded")


class TestInitializer:
    def test_initializer_runs_before_first_chunk(self, tmp_path):
        marker = str(tmp_path / "warm")
        recorder = _Recorder()
        pool = SupervisedPool(
            jobs=1,
            runner=_identity,
            chunk_size=2,
            initializer=_warm_marker,
            initializer_args=(marker,),
        )
        pool.run([(0, 0, 0), (1, 1, 0)], recorder.hooks())
        assert os.path.exists(marker)
        assert recorder.finals == {0: ("ok", 0), 1: ("ok", 1)}
        assert len(pool.overhead["worker_initializer_ms"]) == 1

    def test_initializer_failure_is_not_fatal(self):
        metrics = MetricRegistry()
        recorder = _Recorder()
        pool = SupervisedPool(
            jobs=1,
            runner=_identity,
            chunk_size=2,
            initializer=_broken_initializer,
            metrics=metrics,
        )
        pool.run([(0, 0, 0), (1, 1, 0)], recorder.hooks())
        assert recorder.finals == {0: ("ok", 0), 1: ("ok", 1)}
        assert metrics.count("campaign.workers.init_errors") == 1


# ----------------------------------------------------------------------
# Engine-level: journal/resume semantics survive batching.
# ----------------------------------------------------------------------
BASE = ExperimentConfig(
    queue_length=5, horizon_s=5_000.0, tape_count=4, capacity_mb=500.0
)


def _grid(count=4):
    return [BASE.with_(queue_length=5 * (index + 1)) for index in range(count)]


class _DieOnceOnQueue:
    """Worker death (once) on a specific config, else a real run."""

    def __init__(self, marker_dir, victim_queue_length):
        self.marker = os.path.join(marker_dir, "died-once")
        self.victim_queue_length = victim_queue_length

    def __call__(self, config):
        if (
            config.queue_length == self.victim_queue_length
            and not os.path.exists(self.marker)
        ):
            with open(self.marker, "w"):
                pass
            os._exit(9)
        return run(config)


class _DieAlwaysOnQueues:
    """Unconditional worker death on the victim configs."""

    def __init__(self, victims):
        self.victims = victims

    def __call__(self, config):
        if config.queue_length in self.victims:
            os._exit(9)
        return run(config)


class TestEngineChunking:
    def test_journal_requeues_only_the_dead_workers_chunk_tail(self, tmp_path):
        configs = _grid(4)
        campaign = Campaign(
            jobs=2,
            chunk_size=2,
            cache_dir=tmp_path / "cache",
            journal_path=tmp_path / "journal.jsonl",
            runner=_DieOnceOnQueue(str(tmp_path), victim_queue_length=5),
            backoff_base_s=0.01,
        )
        submission = campaign.submit(configs)
        assert len(submission.results) == 4
        # The first worker's chunk was [q5, q10]; it died on q5 before
        # either streamed back, so exactly those two were requeued.
        # The second worker's chunk [q15, q20] never retried.
        assert submission.stats.retried == 2
        state = CampaignJournal(tmp_path / "journal.jsonl").load_state()
        for config in configs:
            assert state.classify(config_digest(config)) == "done"

    def test_resume_skips_finished_points_of_a_dead_chunk(self, tmp_path):
        configs = _grid(4)
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "journal.jsonl"
        broken = Campaign(
            jobs=2,
            chunk_size=2,
            cache_dir=cache_dir,
            journal_path=journal_path,
            runner=_DieAlwaysOnQueues(victims={15, 20}),
            max_attempts=1,
        )
        first = broken.submit(configs)
        # One worker's chunk [q5, q10] completed and was cached; the
        # other chunk's points died terminally (no attempts left).
        assert len(first.results) == 2
        assert len(first.failures) == 2

        resumed = Campaign(
            jobs=2,
            chunk_size=2,
            cache_dir=cache_dir,
            journal_path=journal_path,
        )
        submission = resumed.submit(configs, resume=True)
        assert len(submission.results) == 4
        # Resume honors the chunk boundary: the finished chunk is
        # served from cache, only the failed chunk re-executes.
        assert submission.stats.cache_hits == 2
        assert submission.stats.executed == 2
        assert resumed.metrics.count("campaign.resume.failed_retried") == 2

    def test_chunked_results_match_serial(self, tmp_path):
        configs = _grid(3)
        serial = Campaign().submit(configs)
        chunked = Campaign(jobs=2, chunk_size=3).submit(configs)
        for config in configs:
            assert (
                serial.require(config).report == chunked.require(config).report
            )

    def test_last_overhead_exposed(self, tmp_path):
        campaign = Campaign(jobs=2, chunk_size=2)
        campaign.submit(_grid(4))
        overhead = campaign.last_overhead
        assert overhead is not None
        assert overhead["points_dispatched"] == 4
        assert overhead["payload_bytes"] > 0
        # The worker initializer pre-warmed the catalog cache.
        assert len(overhead["worker_initializer_ms"]) >= 1
        serial = Campaign()
        serial.submit(_grid(2))
        assert serial.last_overhead is None
