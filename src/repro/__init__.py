"""Reproduction of Hillyer, Rastogi & Silberschatz (ICDE 1999):
*Scheduling and Data Replication to Improve Tape Jukebox Performance*.

The package is organized as substrates plus the paper's contribution:

* :mod:`repro.des` — discrete-event simulation kernel;
* :mod:`repro.stats` — online statistics;
* :mod:`repro.tape` — tape drive / robot / jukebox hardware model with
  the paper's measured Exabyte EXB-8505XL timing constants;
* :mod:`repro.layout` — data placement and replication (catalog);
* :mod:`repro.workload` — hot/cold skewed closed/open request sources;
* :mod:`repro.core` — the scheduling algorithms (FIFO, static, dynamic,
  and the envelope-extension algorithm);
* :mod:`repro.service` — the four-step service model simulator;
* :mod:`repro.experiments` — configs, runs, and per-figure regeneration;
* :mod:`repro.analysis` — cost-performance model and Theorem-2 helpers.

Quickstart (one run surface)::

    from repro import ExperimentConfig, run

    result = run(ExperimentConfig(
        scheduler="envelope-max-bandwidth", replicas=9,
        start_position=1.0, queue_length=60, horizon_s=200_000,
    ))
    print(result.report)
"""

from .api import run
from .experiments.config import ExperimentConfig
from .experiments.runner import ExperimentResult, build_simulator
from .layout.placement import Layout, PlacementSpec

__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "Layout",
    "PlacementSpec",
    "build_simulator",
    "run",
    "__version__",
]
