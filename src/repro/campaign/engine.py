"""The campaign engine: dedup, cache, fan out, isolate, survive.

:meth:`Campaign.submit` is the single public execution surface every
sweep, figure, and replication plan compiles down to.  Execution order
is an implementation detail; results are keyed by config, and a given
config's result is bit-identical whether it ran serially, in a worker
process, on a retry after its first worker was killed, or came from
the cache — workers receive the full config (seed included) and run
the exact same :func:`repro.api.run`.

Failure handling is layered:

* One crashed point produces a :class:`PointFailure` record instead of
  killing the batch (exceptions raised *inside* a worker are caught
  there and shipped back).
* A hard worker death (signal, ``os._exit``) or a wedged worker is
  detected by the :class:`~repro.campaign.supervisor.SupervisedPool`,
  which kills/replaces the worker and requeues the point with bounded
  exponential backoff — transient failures retry, deterministic
  exceptions do not (see
  :data:`~repro.campaign.supervisor.TRANSIENT_ERRORS`).
* With ``journal_path`` set, every point lifecycle event is appended
  durably to a ``repro-journal/1`` JSONL file; after a crash or
  Ctrl-C, ``submit(configs, resume=True)`` skips journaled-done points
  (served from the cache), requeues the ones the dead process left in
  flight, and carries attempt counts forward.
* ``abort_after`` consecutive point failures trip a breaker that stops
  the campaign loudly (remaining points become ``CampaignAborted``
  failure records) instead of grinding through a doomed grid.

Every reliability event (retry, worker kill, resume, abort, quarantined
cache entry) is counted in a :class:`~repro.obs.MetricRegistry` exposed
as :attr:`Campaign.metrics`.
"""

from __future__ import annotations

import os
import sys
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..experiments.config import ExperimentConfig
from ..experiments.runner import ExperimentResult
from ..obs import MetricRegistry
from ..rng import derive_seed
from .cache import ResultCache
from .execution import (
    PointTimeoutError,
    _execute_point,
    _wall_clock_limit,
    _warm_catalog_caches,
)
from .hashing import CODE_VERSION, config_digest
from .journal import CampaignJournal, JournalState
from .progress import ProgressCallback, ProgressEvent
from .supervisor import SupervisedPool, SupervisorHooks, is_transient_error

__all__ = [
    "Campaign",
    "CampaignPointError",
    "CampaignResult",
    "CampaignStats",
    "PointFailure",
    "PointTimeoutError",
]


@dataclass(frozen=True)
class PointFailure:
    """Error record of one failed campaign point."""

    config: ExperimentConfig
    error: str
    message: str
    traceback: str = ""
    #: Execution attempts consumed (0 when the point never started,
    #: e.g. abandoned by an abort).
    attempts: int = 1


@dataclass(frozen=True)
class CampaignStats:
    """Execution accounting of one submission."""

    submitted: int
    unique: int
    cache_hits: int
    executed: int
    failures: int
    duration_s: float
    #: Transient-failure retries performed (attempts beyond the first).
    retried: int = 0
    #: Cache hits that a resume's journal had already marked done.
    resumed_done: int = 0
    #: The consecutive-failure breaker stopped the campaign early.
    aborted: bool = False
    #: The campaign was interrupted (stats recorded before re-raise).
    interrupted: bool = False

    @property
    def hit_fraction(self) -> float:
        """Fraction of unique points served from cache."""
        return self.cache_hits / self.unique if self.unique else 0.0


def _catalog_warm_entries(configs, limit: int = 64) -> list:
    """Distinct catalog-builder arguments the batch will need.

    Mirrors the ``(spec, tape_count, capacity_mb, data_blocks,
    replicas)`` key of ``repro.experiments.runner._cached_catalog`` for
    every :class:`ExperimentConfig` in ``configs``.  Capped at
    ``limit`` (the runner cache size): warming more than the cache can
    hold would evict itself.
    """
    from ..layout.placement import PlacementSpec

    entries: list = []
    seen = set()
    for config in configs:
        try:
            spec = PlacementSpec(
                layout=config.layout,
                percent_hot=config.percent_hot,
                replicas=config.replicas,
                start_position=config.start_position,
                block_mb=config.block_mb,
                pack_cold=config.pack_cold,
            )
        except (AttributeError, TypeError, ValueError):
            continue
        entry = (
            spec,
            config.tape_count,
            config.capacity_mb,
            config.data_blocks,
            config.replicas,
        )
        if entry in seen:
            continue
        seen.add(entry)
        entries.append(entry)
        if len(entries) >= limit:
            break
    return entries


class CampaignPointError(RuntimeError):
    """Raised when a required campaign point failed to execute."""

    def __init__(self, failure: PointFailure) -> None:
        super().__init__(
            f"campaign point failed ({failure.error}: {failure.message}) "
            f"for {failure.config.describe()}"
        )
        self.failure = failure


class CampaignResult:
    """Results of one submission, keyed by configuration."""

    def __init__(
        self,
        configs: Sequence[ExperimentConfig],
        outcomes: Dict[ExperimentConfig, ExperimentResult],
        failures: Dict[ExperimentConfig, PointFailure],
        stats: CampaignStats,
        journal_path=None,
    ) -> None:
        self.configs: Tuple[ExperimentConfig, ...] = tuple(configs)
        self._outcomes = dict(outcomes)
        self._failures = dict(failures)
        self.stats = stats
        #: Where this submission journaled (None when journaling is off).
        self.journal_path = journal_path

    @property
    def results(self) -> Tuple[ExperimentResult, ...]:
        """Successful results in submission order."""
        return tuple(
            self._outcomes[config]
            for config in self.configs
            if config in self._outcomes
        )

    @property
    def failures(self) -> Tuple[PointFailure, ...]:
        """Error records in submission order."""
        return tuple(
            self._failures[config]
            for config in self.configs
            if config in self._failures
        )

    def result_for(self, config: ExperimentConfig) -> Optional[ExperimentResult]:
        """The result for ``config``, or ``None`` if it failed."""
        return self._outcomes.get(config)

    def failure_for(self, config: ExperimentConfig) -> Optional[PointFailure]:
        """The error record for ``config``, or ``None`` if it succeeded."""
        return self._failures.get(config)

    def require(self, config: ExperimentConfig) -> ExperimentResult:
        """The result for ``config``; raises if the point failed."""
        result = self._outcomes.get(config)
        if result is not None:
            return result
        failure = self._failures.get(config)
        if failure is not None:
            raise CampaignPointError(failure)
        raise KeyError(f"config was not part of this campaign: {config!r}")

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.results)


class Campaign:
    """Deduplicating, caching, supervised parallel executor of configs.

    Args:
        jobs: worker processes; 1 (the default) runs in-process.
        cache_dir: directory of the content-addressed result cache, or
            a ready :class:`ResultCache` instance; ``None`` disables
            caching.  Successful points are written to the cache *as
            they finish*, so a crash loses at most the in-flight work.
        progress: optional per-point callback (see
            :class:`~repro.campaign.progress.ProgressEvent`).
        runner: the function executed per config.  Must be picklable
            when ``jobs > 1`` (the default, :func:`repro.api.run`, is).
        salt: cache-key code-version salt (see
            :data:`~repro.campaign.hashing.CODE_VERSION`).
        point_timeout_s: wall-clock budget per executed point; a point
            that exceeds it yields a transient failure (error
            ``PointTimeoutError``) instead of hanging the batch, and —
            like every failure — is never written to the cache.
            ``None`` (the default) leaves points unbounded.
        journal_path: durable ``repro-journal/1`` JSONL file recording
            every point lifecycle event.  ``None`` disables journaling.
            A non-resume submission truncates and restarts the journal.
        resume: default for :meth:`submit`'s ``resume`` argument.
        max_attempts: total attempts per point for *transient* failures
            (worker death, stall, wall-clock timeout).  Deterministic
            exceptions never retry — rerunning the same seeded
            simulation would reproduce them.
        backoff_base_s / backoff_cap_s: exponential retry backoff
            (``base * 2**(attempt-1)``, capped).
        abort_after: trip a breaker after this many *consecutive*
            terminal point failures: remaining points become
            ``CampaignAborted`` failure records and the journal gets an
            ``abort`` event.  ``None`` (default) never aborts.
        metrics: a :class:`~repro.obs.MetricRegistry` to count
            reliability events into (default: a fresh private one,
            exposed as :attr:`metrics`).
        chunk_size: points per worker dispatch message under
            ``jobs > 1``; ``None`` (default) auto-sizes per batch (see
            :func:`~repro.campaign.supervisor.auto_chunk_size`).
            Retry, journal, and progress granularity stay per-point
            either way.
        supervisor_options: extra keyword arguments for the
            :class:`~repro.campaign.supervisor.SupervisedPool`
            (``heartbeat_s``, ``stall_timeout_s``, ``hang_grace_s``,
            ``drain_grace_s``, ``poll_s``, ``mp_context``).
        profile_dir: when set, every *executed* point (cache hits are
            exempt) runs under :mod:`cProfile` and dumps its raw stats
            to ``<profile_dir>/<config_digest[:16]>.prof``.  The
            directory is created on construction.
        trace_dir: when set, every *executed* point runs with a
            :class:`~repro.obs.Tracer` attached (if the runner accepts
            an ``obs`` keyword) and dumps
            ``<trace_dir>/<config_digest[:16]>.trace.json`` (Chrome
            trace-event) plus ``....summary.json``.  Cache hits produce
            no trace — tracing rides on execution, and does not alter
            cache keys or results (traced runs are bit-identical).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        progress: Optional[ProgressCallback] = None,
        runner: Optional[Callable[[ExperimentConfig], ExperimentResult]] = None,
        salt: str = CODE_VERSION,
        point_timeout_s: Optional[float] = None,
        journal_path=None,
        resume: bool = False,
        max_attempts: int = 3,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 30.0,
        abort_after: Optional[int] = None,
        metrics: Optional[MetricRegistry] = None,
        chunk_size: Optional[int] = None,
        supervisor_options: Optional[dict] = None,
        profile_dir: Optional[str] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs!r}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size!r}")
        cpu_count = os.cpu_count() or 1
        if jobs > cpu_count:
            warnings.warn(
                f"jobs={jobs} exceeds this machine's {cpu_count} CPU(s); "
                "workers will timeshare cores, so parallel 'speedup' "
                "measures oversubscription, not throughput",
                RuntimeWarning,
                stacklevel=2,
            )
        if point_timeout_s is not None and point_timeout_s <= 0:
            raise ValueError(
                f"point_timeout_s must be positive, got {point_timeout_s!r}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts!r}")
        if abort_after is not None and abort_after < 1:
            raise ValueError(f"abort_after must be >= 1, got {abort_after!r}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.point_timeout_s = point_timeout_s
        self.salt = salt
        self.journal_path = journal_path
        self.resume = resume
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.abort_after = abort_after
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.supervisor_options = dict(supervisor_options or {})
        self.profile_dir = profile_dir
        if profile_dir is not None:
            os.makedirs(profile_dir, exist_ok=True)
        self.trace_dir = trace_dir
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        if cache_dir is None:
            self.cache: Optional[ResultCache] = None
        elif isinstance(cache_dir, ResultCache):
            self.cache = cache_dir
            self.cache.metrics = self.metrics
        else:
            self.cache = ResultCache(cache_dir, salt=salt, metrics=self.metrics)
        self.progress = progress
        if runner is None:
            # The run surface, one picklable entry point.  Imported
            # lazily — repro.api sits above this package.
            from ..api import run

            runner = run
        self.runner = runner
        #: Stats of the most recent :meth:`submit` (None before any).
        self.last_stats: Optional[CampaignStats] = None
        #: Dispatch-overhead accounting of the most recent parallel
        #: :meth:`submit` (payload bytes, chunk counts, worker startup
        #: ms — see ``SupervisedPool.overhead``); None for serial runs.
        self.last_overhead: Optional[dict] = None

    @staticmethod
    def derive_variants(
        config: ExperimentConfig, count: int, stream: str = "replication"
    ) -> List[ExperimentConfig]:
        """``count`` copies of ``config`` under deterministic derived seeds.

        Seed ``i`` is ``derive_seed(config.seed, f"{stream}:{i}")``, so
        the variant set depends only on the root seed and the stream
        name — identical across processes, sessions, and machines.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        return [
            config.with_(seed=derive_seed(config.seed, f"{stream}:{index}") % (2**31))
            for index in range(count)
        ]

    # ------------------------------------------------------------------
    def submit(
        self,
        configs: Iterable[ExperimentConfig],
        resume: Optional[bool] = None,
    ) -> CampaignResult:
        """Execute every distinct config and return the keyed results.

        Args:
            resume: adopt the journal's prior state — skip points it
                marked done (their results come from the cache), requeue
                the ones it left in flight, and carry attempt counts
                forward.  ``None`` uses the campaign's default.

        Raises:
            KeyboardInterrupt: re-raised after a SIGINT/SIGTERM drain;
                by then finished points are cached, the journal carries
                an ``interrupted`` event, and a resume hint has been
                printed to stderr.
        """
        resume = self.resume if resume is None else bool(resume)
        submitted = list(configs)
        unique = list(dict.fromkeys(submitted))
        started = time.monotonic()
        outcomes: Dict[ExperimentConfig, ExperimentResult] = {}
        failures: Dict[ExperimentConfig, PointFailure] = {}
        state = _SubmissionState(
            campaign=self,
            unique=unique,
            outcomes=outcomes,
            failures=failures,
        )

        journal: Optional[CampaignJournal] = None
        prior: Optional[JournalState] = None
        if self.journal_path is not None:
            journal = CampaignJournal(self.journal_path, salt=self.salt)
            if resume and journal.exists():
                prior = journal.load_state()
            journal.open(fresh=not resume)
        state.journal = journal

        pending: List[ExperimentConfig] = []
        prior_attempts: Dict[ExperimentConfig, int] = {}
        requeued_in_flight = 0
        failed_retried = 0
        for config in unique:
            digest = config_digest(config, salt=self.salt)
            state.digests[config] = digest
            cached = self.cache.get(config) if self.cache is not None else None
            if cached is not None:
                outcomes[config] = cached
                state.hits += 1
                self.metrics.inc("campaign.points.cache_hits")
                if prior is not None and digest in prior.done:
                    state.resumed_done += 1
                    self.metrics.inc("campaign.resume.done_skipped")
                state.record("hit", config)
                continue
            attempts = 0
            if prior is not None:
                fate = prior.classify(digest)
                if fate == "done":
                    # Journal says done but the cache cannot prove it —
                    # the entry is missing or was quarantined; re-run.
                    self.metrics.inc("campaign.resume.done_missing_cache")
                elif fate == "in-flight":
                    attempts = prior.attempts.get(digest, 0)
                    journal.record_requeued(digest, attempts, "resume")
                    requeued_in_flight += 1
                    self.metrics.inc("campaign.resume.requeued_in_flight")
                elif fate == "failed":
                    failed_retried += 1
                    self.metrics.inc("campaign.resume.failed_retried")
            pending.append(config)
            prior_attempts[config] = attempts
        if journal is not None and resume and prior is not None:
            journal.record_resume(
                done=state.resumed_done,
                in_flight=requeued_in_flight,
                failed=failed_retried,
            )

        state.pending = pending
        hooks = state.hooks()
        try:
            if self.jobs > 1 and len(pending) > 1:
                warm_entries = _catalog_warm_entries(pending)
                pool = SupervisedPool(
                    jobs=self.jobs,
                    runner=self.runner,
                    point_timeout_s=self.point_timeout_s,
                    profile_dir=self.profile_dir,
                    trace_dir=self.trace_dir,
                    max_attempts=self.max_attempts,
                    backoff_base_s=self.backoff_base_s,
                    backoff_cap_s=self.backoff_cap_s,
                    metrics=self.metrics,
                    chunk_size=self.chunk_size,
                    initializer=(
                        _warm_catalog_caches if warm_entries else None
                    ),
                    initializer_args=(
                        (warm_entries,) if warm_entries else ()
                    ),
                    **self.supervisor_options,
                )
                try:
                    pool.run(
                        [
                            (index, config, prior_attempts[config])
                            for index, config in enumerate(pending)
                        ],
                        hooks,
                    )
                finally:
                    self.last_overhead = pool.overhead
            else:
                self.last_overhead = None
                self._run_serial(pending, prior_attempts, hooks, state)
        except KeyboardInterrupt:
            self.metrics.inc("campaign.interrupts")
            unfinished = len(unique) - len(outcomes) - len(failures)
            if journal is not None:
                journal.record_interrupted(unfinished)
                print(
                    f"campaign interrupted: {unfinished} of {len(unique)} "
                    f"points unfinished; journal at {journal.path} — "
                    "resubmit with resume=True to continue",
                    file=sys.stderr,
                )
            self.last_stats = self._stats(
                submitted, unique, state, started, interrupted=True
            )
            raise
        finally:
            if journal is not None:
                if journal.broken is not None:
                    warnings.warn(
                        f"campaign journal degraded ({journal.broken}); "
                        "resume information may be incomplete",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                journal.close()

        stats = self._stats(submitted, unique, state, started)
        self.last_stats = stats
        return CampaignResult(
            unique,
            outcomes,
            failures,
            stats,
            journal_path=journal.path if journal is not None else None,
        )

    # ------------------------------------------------------------------
    def _stats(
        self, submitted, unique, state, started, interrupted: bool = False
    ) -> CampaignStats:
        return CampaignStats(
            submitted=len(submitted),
            unique=len(unique),
            cache_hits=state.hits,
            executed=len(state.pending),
            failures=len(state.failures),
            duration_s=time.monotonic() - started,
            retried=state.retried,
            resumed_done=state.resumed_done,
            aborted=state.aborted,
            interrupted=interrupted,
        )

    def store(self, config: ExperimentConfig, result: ExperimentResult) -> None:
        """Write one finished result to the cache, tolerating I/O errors.

        A full disk must not fail the point — the result is still
        returned in memory; the miss is counted
        (``campaign.cache.write_errors``) and warned about.
        """
        if self.cache is None:
            return
        try:
            self.cache.put(result)
        except OSError as error:
            self.metrics.inc("campaign.cache.write_errors")
            warnings.warn(
                f"result cache write failed for {config.describe()}: "
                f"{error}",
                RuntimeWarning,
                stacklevel=2,
            )

    def _run_serial(self, pending, prior_attempts, hooks, state) -> None:
        """In-process execution with the same retry/abort semantics."""
        queue = deque(
            (index, config, prior_attempts[config])
            for index, config in enumerate(pending)
        )
        while queue:
            index, config, attempts = queue.popleft()
            attempts += 1
            hooks.on_start(index, attempts)
            point_started = time.perf_counter()
            _index, status, payload = _execute_point(
                (
                    index,
                    config,
                    self.runner,
                    self.point_timeout_s,
                    self.profile_dir,
                    self.trace_dir,
                )
            )
            hooks.on_wall(index, time.perf_counter() - point_started)
            if status != "ok" and (
                is_transient_error(payload[0]) and attempts < self.max_attempts
            ):
                hooks.on_retry(index, attempts, payload[0], payload[1])
                time.sleep(
                    min(
                        self.backoff_cap_s,
                        self.backoff_base_s * (2 ** (attempts - 1)),
                    )
                )
                queue.append((index, config, attempts))
                continue
            keep_going = hooks.on_final(index, status, payload, attempts)
            if keep_going is False:
                while queue:
                    abandoned_index, _config, _attempts = queue.popleft()
                    hooks.on_abandoned(abandoned_index, "campaign aborted")
                break


class _SubmissionState:
    """Mutable bookkeeping of one ``submit`` call, shared with hooks."""

    def __init__(self, campaign, unique, outcomes, failures) -> None:
        self.campaign = campaign
        self.unique = unique
        self.outcomes = outcomes
        self.failures = failures
        self.digests: Dict[ExperimentConfig, str] = {}
        self.pending: List[ExperimentConfig] = []
        self.journal: Optional[CampaignJournal] = None
        self.hits = 0
        self.retried = 0
        self.resumed_done = 0
        self.aborted = False
        self.finished = 0
        self.consecutive_failures = 0
        self.start_times: Dict[int, float] = {}
        #: Worker-measured execution seconds, streamed per point; used
        #: for journal wall times in preference to the parent-side
        #: dispatch-to-final interval (which includes queue time).
        self.wall_s: Dict[int, float] = {}

    # -- progress ------------------------------------------------------
    def emit(self, kind: str, config, attempt: int = 1) -> None:
        if self.campaign.progress is not None:
            self.campaign.progress(
                ProgressEvent(
                    kind=kind,
                    config=config,
                    completed=self.finished,
                    total=len(self.unique),
                    attempt=attempt,
                )
            )

    def record(self, kind: str, config, attempt: int = 1) -> None:
        self.finished += 1
        self.emit(kind, config, attempt)

    # -- supervisor hooks ----------------------------------------------
    def hooks(self) -> SupervisorHooks:
        return SupervisorHooks(
            on_start=self.on_start,
            on_retry=self.on_retry,
            on_final=self.on_final,
            on_abandoned=self.on_abandoned,
            on_wall=self.on_wall,
        )

    def on_wall(self, index: int, wall_s: float) -> None:
        self.wall_s[index] = wall_s

    def on_start(self, index: int, attempt: int) -> None:
        config = self.pending[index]
        self.start_times[index] = time.monotonic()
        if self.journal is not None:
            self.journal.record_start(self.digests[config], attempt)

    def on_retry(self, index: int, attempt: int, error: str, message: str) -> None:
        config = self.pending[index]
        self.retried += 1
        self.campaign.metrics.inc("campaign.points.retried")
        if self.journal is not None:
            self.journal.record_requeued(self.digests[config], attempt, error)
        self.emit("retry", config, attempt)

    def on_final(self, index: int, status: str, payload, attempts: int) -> bool:
        config = self.pending[index]
        campaign = self.campaign
        wall_s = self.wall_s.pop(index, None)
        if wall_s is None:
            wall_s = time.monotonic() - self.start_times.get(
                index, time.monotonic()
            )
        if status == "ok":
            self.outcomes[config] = payload
            self.consecutive_failures = 0
            campaign.metrics.inc("campaign.points.executed")
            if self.journal is not None:
                self.journal.record_done(self.digests[config], attempts, wall_s)
            campaign.store(config, payload)
            self.record("done", config, attempts)
            return True
        error, message, trace = payload
        self.failures[config] = PointFailure(
            config=config,
            error=error,
            message=message,
            traceback=trace,
            attempts=attempts,
        )
        campaign.metrics.inc("campaign.points.failed")
        if self.journal is not None:
            self.journal.record_failed(self.digests[config], attempts, error)
        self.record("error", config, attempts)
        self.consecutive_failures += 1
        if (
            campaign.abort_after is not None
            and self.consecutive_failures >= campaign.abort_after
            and not self.aborted
        ):
            self.aborted = True
            campaign.metrics.inc("campaign.aborts")
            if self.journal is not None:
                self.journal.record_abort(
                    f"{self.consecutive_failures} consecutive point failures"
                )
            return False
        return True

    def on_abandoned(self, index: int, reason: str) -> None:
        config = self.pending[index]
        if reason == "campaign aborted":
            self.failures[config] = PointFailure(
                config=config,
                error="CampaignAborted",
                message=(
                    "not executed: the campaign breaker tripped after "
                    "consecutive failures"
                ),
                attempts=0,
            )
            self.campaign.metrics.inc("campaign.points.failed")
            if self.journal is not None:
                self.journal.record_failed(
                    self.digests[config], 0, "CampaignAborted"
                )
            self.record("error", config, 0)
        else:
            # Interrupted: leave the point unfinished but journaled as
            # in flight so a resume picks it back up.
            if self.journal is not None:
                self.journal.record_requeued(
                    self.digests[config], 0, "interrupted"
                )
