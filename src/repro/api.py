"""The run surface: one ``run(config)`` for an
:class:`~repro.experiments.config.ExperimentConfig`, returning an
:class:`~repro.experiments.runner.ExperimentResult`.

The result carries ``.config`` and ``.report``, which the campaigns,
the cache, the journal, and the CLI all consume.  ``run`` is a plain
module-level function (picklable), and it accepts the ``obs`` keyword,
so it drops into the campaign engine as the default runner — including
worker processes and ``trace_dir`` capture.
"""

from __future__ import annotations

from .experiments.config import ExperimentConfig
from .experiments.runner import ExperimentResult, _run_experiment

__all__ = ["run"]


def run(config: ExperimentConfig, obs=None) -> ExperimentResult:
    """Run ``config`` and return its typed result.

    ``obs`` optionally attaches a :class:`~repro.obs.Tracer` to the run
    (the campaign engine's ``trace_dir`` hook).
    """
    if not isinstance(config, ExperimentConfig):
        raise TypeError(
            f"run() accepts an ExperimentConfig; got {type(config).__name__}"
        )
    return _run_experiment(config, obs=obs)
