"""Evaluation harness: configs, runs, sweeps, and figure regeneration.

Single runs go through :func:`repro.api.run`.  The sweep, figure and
replication helpers here each make one submission to
:class:`repro.campaign.Campaign` — the execution engine with process
parallelism, content-addressed result caching, and failure isolation —
and accept ``campaign=`` to run it in parallel and/or cached.
"""

from .config import DEFAULT_HORIZON_S, ExperimentConfig
from .figures import FIGURES, FigureData
from .replications import ReplicationReport, replicate, significantly_better
from .runner import ExperimentResult, build_simulator
from .store import (
    config_from_dict,
    config_to_dict,
    load_results,
    save_results,
    schema_fingerprint,
)
from .sweeps import (
    CurvePoint,
    PAPER_QUEUE_LENGTHS,
    curve_family,
    queue_sweep,
    queue_sweep_configs,
)

__all__ = [
    "CurvePoint",
    "DEFAULT_HORIZON_S",
    "ExperimentConfig",
    "ExperimentResult",
    "FIGURES",
    "FigureData",
    "PAPER_QUEUE_LENGTHS",
    "ReplicationReport",
    "build_simulator",
    "config_from_dict",
    "config_to_dict",
    "curve_family",
    "load_results",
    "queue_sweep",
    "queue_sweep_configs",
    "replicate",
    "save_results",
    "schema_fingerprint",
    "significantly_better",
]
