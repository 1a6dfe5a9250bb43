"""The unified run surface: dispatch by config kind, traced members."""

import pytest

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.experiments.runner import ExperimentResult
from repro.federation import FederationConfig, LibraryConfig
from repro.federation.runner import FederationResult
from repro.obs import Tracer
from repro.service.farm import FarmConfig, FarmResult
from repro.service.metrics import report_digest

FAST = dict(queue_length=5, horizon_s=5_000.0, tape_count=4, capacity_mb=500.0)


class TestDispatch:
    def test_experiment_config_runs_an_experiment(self):
        result = run(ExperimentConfig(**FAST))
        assert isinstance(result, ExperimentResult)
        assert result.report.completed > 0

    def test_farm_config_runs_a_farm(self):
        result = run(FarmConfig(ExperimentConfig(**FAST), 2, 10))
        assert isinstance(result, FarmResult)
        assert result.report.size == 2

    def test_federation_config_runs_a_federation(self):
        config = FederationConfig(
            libraries=(LibraryConfig(tape_count=4, capacity_mb=500.0),),
            global_policy="pass-through",
            placement="home",
            queue_length=5,
            horizon_s=5_000.0,
        )
        result = run(config)
        assert isinstance(result, FederationResult)
        assert result.report.size == 1

    def test_unknown_config_type_raises(self):
        with pytest.raises(TypeError, match="accepts ExperimentConfig"):
            run({"queue_length": 5})

    def test_experiment_rejects_tracer_factory(self):
        with pytest.raises(TypeError, match="tracer_factory"):
            run(ExperimentConfig(**FAST), tracer_factory=lambda index: None)


FARM = FarmConfig(ExperimentConfig(**FAST), 2, 10)
FEDERATION = FederationConfig(
    libraries=(
        LibraryConfig(tape_count=4, capacity_mb=500.0),
        LibraryConfig(tape_count=4, capacity_mb=500.0),
    ),
    queue_length=10,
    horizon_s=5_000.0,
)


def member_reports(result):
    """The per-jukebox or per-library reports of a farm or federation."""
    if isinstance(result, FarmResult):
        return result.report.per_jukebox
    return result.report.per_library


@pytest.mark.parametrize("config", [FARM, FEDERATION], ids=["farm", "federation"])
@pytest.mark.parametrize("hook", ["obs", "tracer_factory"])
def test_traced_members(config, hook):
    """``obs`` traces member 0 only, ``tracer_factory`` every member,
    and tracing leaves every member's report bit-identical."""
    if hook == "obs":
        tracer = Tracer()
        result = run(config, obs=tracer)
        assert result.report.traces == [tracer]
    else:
        tracers = {}
        result = run(
            config,
            tracer_factory=lambda index: tracers.setdefault(index, Tracer()),
        )
        assert result.report.traces == [tracers[0], tracers[1]]
    for tracer in result.report.traces:
        assert tracer.terminal_traces(), "a traced member recorded nothing"
    untraced = run(config)
    assert [report_digest(report) for report in member_reports(result)] == [
        report_digest(report) for report in member_reports(untraced)
    ]
