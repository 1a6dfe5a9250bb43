"""The unified run surface: one ``run(config)`` for every run kind.

The config type is the dispatcher:

* :class:`~repro.experiments.config.ExperimentConfig` →
  :class:`~repro.experiments.runner.ExperimentResult`
* :class:`~repro.service.farm.FarmConfig` →
  :class:`~repro.service.farm.FarmResult`
* :class:`~repro.federation.config.FederationConfig` →
  :class:`~repro.federation.runner.FederationResult`

Every result carries ``.config`` and ``.report``, so campaigns, the
cache, the journal, and the CLI treat the three kinds uniformly.
``run`` is a plain module-level function (picklable), and it accepts
the ``obs`` keyword, so it drops into the campaign engine as the
default runner — including worker processes and ``trace_dir`` capture.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .experiments.config import ExperimentConfig
from .experiments.runner import ExperimentResult, _run_experiment
from .federation.config import FederationConfig
from .federation.runner import FederationResult, run_federation
from .service.farm import FarmConfig, FarmResult, _run_farm

__all__ = ["run"]

#: Config types ``run`` dispatches on.
RunConfig = Union[ExperimentConfig, FarmConfig, FederationConfig]
#: Result types ``run`` returns.
RunResult = Union[ExperimentResult, FarmResult, FederationResult]

def run(
    config: RunConfig,
    obs=None,
    tracer_factory: Optional[Callable[[int], object]] = None,
) -> RunResult:
    """Run ``config`` and return its typed result.

    ``obs`` optionally attaches a :class:`~repro.obs.Tracer`: to the
    single run of an experiment, or to library/jukebox 0 of a farm or
    federation (the campaign engine's uniform ``trace_dir`` hook).
    ``tracer_factory(index)`` traces every member of a farm or
    federation instead and is rejected for plain experiments.
    """
    if isinstance(config, ExperimentConfig):
        if tracer_factory is not None:
            raise TypeError(
                "tracer_factory applies to farm/federation configs; pass "
                "obs= to trace a single experiment"
            )
        return _run_experiment(config, obs=obs)
    if tracer_factory is None and obs is not None:
        tracer_factory = lambda index: obs if index == 0 else None
    if isinstance(config, FarmConfig):
        report = _run_farm(config, tracer_factory=tracer_factory)
        return FarmResult(config=config, report=report)
    if isinstance(config, FederationConfig):
        return run_federation(config, tracer_factory=tracer_factory)
    raise TypeError(
        f"run() accepts ExperimentConfig, FarmConfig, or FederationConfig; "
        f"got {type(config).__name__}"
    )
