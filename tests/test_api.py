"""The run surface: ``repro.api.run`` takes one config kind."""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.experiments.runner import ExperimentResult

FAST = dict(queue_length=5, horizon_s=5_000.0, tape_count=4, capacity_mb=500.0)


class TestDispatch:
    def test_experiment_config_runs_an_experiment(self):
        result = run(ExperimentConfig(**FAST))
        assert isinstance(result, ExperimentResult)
        assert result.report.completed > 0

    def test_unknown_config_type_raises(self):
        with pytest.raises(TypeError, match="accepts an ExperimentConfig"):
            run({"queue_length": 5})
