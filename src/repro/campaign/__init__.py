"""Parallel experiment-execution engine with caching and crash safety.

Every paper figure is a family of parametric curves, and every curve is
an embarrassingly parallel set of independent simulations.  This package
is the single choke point those families compile down to:

* :class:`Campaign` — deduplicates a batch of
  :class:`~repro.experiments.config.ExperimentConfig`\\ s, serves what it
  can from the on-disk cache, fans the rest out over a supervised
  worker pool, and isolates per-point failures as error records.
* :class:`ResultCache` — content-addressed storage keyed by a stable
  hash of the full config (faults included) plus a code-version salt;
  quarantines corrupt entries and sweeps orphaned temp files.
* :class:`CampaignJournal` — durable ``repro-journal/1`` JSONL log of
  point lifecycle events enabling ``submit(..., resume=True)`` after a
  crash or Ctrl-C.
* :class:`SupervisedPool` — persistent heartbeat-monitored workers fed
  chunked point batches (one pickle per chunk, results streamed back
  per point), with kill-and-requeue hang handling, transient-failure
  retries with bounded exponential backoff, and graceful
  SIGINT/SIGTERM draining.
* :class:`ProgressPrinter` / :class:`ProgressEvent` — optional progress
  callbacks for long campaigns.

The sweep/figure/replication helpers in :mod:`repro.experiments` each
make one :meth:`Campaign.submit` call (see docs/RELIABILITY.md for the
journal format, resume workflow, and failure taxonomy).
"""

from .cache import ResultCache
from .engine import (
    Campaign,
    CampaignPointError,
    CampaignResult,
    CampaignStats,
    PointFailure,
    PointTimeoutError,
)
from .hashing import CODE_VERSION, canonical_config_json, config_digest
from .journal import (
    JOURNAL_SCHEMA,
    CampaignJournal,
    JournalCompatError,
    JournalState,
)
from .progress import ProgressEvent, ProgressPrinter
from .supervisor import (
    TRANSIENT_ERRORS,
    SupervisedPool,
    SupervisorHooks,
    WorkerCrashError,
    WorkerStallError,
    auto_chunk_size,
    is_transient_error,
)

__all__ = [
    "CODE_VERSION",
    "JOURNAL_SCHEMA",
    "Campaign",
    "CampaignJournal",
    "CampaignPointError",
    "CampaignResult",
    "CampaignStats",
    "JournalCompatError",
    "JournalState",
    "PointFailure",
    "PointTimeoutError",
    "ProgressEvent",
    "ProgressPrinter",
    "ResultCache",
    "SupervisedPool",
    "SupervisorHooks",
    "TRANSIENT_ERRORS",
    "WorkerCrashError",
    "WorkerStallError",
    "auto_chunk_size",
    "canonical_config_json",
    "config_digest",
    "is_transient_error",
]
