"""Federated executor: routing, farm equivalence, determinism.

The pass-through golden digest below pins the bit-identity acceptance
criterion: a 1-library federation routed through the global tier must
reproduce *byte for byte* the report of the equivalent farm run (and
both are pinned, so drift in either path fails loudly).  A generated
twin check extends that to scheduler, drive count, replicas, faults
and QoS, with the plain experiment as the third twin.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import run
from repro.experiments import ExperimentConfig
from repro.federation import (
    FederationConfig,
    LibraryConfig,
    ReplicaRegistry,
    make_global_policy,
    route_fleet,
    run_federation,
)
from repro.federation.report import federation_report_digest
from repro.faults import FaultConfig
from repro.layout import Layout
from repro.qos import QoSConfig
from repro.rng import derive_seed
from repro.service.farm import FarmConfig
from repro.service.metrics import report_digest

from ..service.test_read_placement import (
    FAULTS,
    MULTI_DRIVE_SCHEDULERS,
    QOS,
    SCHEDULERS,
)

#: Pinned on the tree that introduced repro.federation; the same digest
#: must come out of both the farm path and the pass-through federation.
PASS_THROUGH_GOLDEN = (
    "8982dcd263ac6513fc22a596e5d8d0c120920df13455b020177694a11907b6bb"
)

FAST_FED = dict(
    libraries=(LibraryConfig(),),
    global_policy="pass-through",
    placement="home",
    fleet_replicas=0,
    queue_length=24,
    horizon_s=50_000.0,
)


class TestPassThroughBitIdentity:
    def test_matches_the_farm_golden(self):
        result = run_federation(FederationConfig(**FAST_FED))
        assert report_digest(result.report.per_library[0]) == PASS_THROUGH_GOLDEN

    def test_farm_path_agrees(self):
        base = ExperimentConfig(queue_length=24, horizon_s=50_000.0)
        farm = run(FarmConfig(base, 1, 24)).report
        assert report_digest(farm.per_jukebox[0]) == PASS_THROUGH_GOLDEN

    def test_pass_through_rejects_multi_library_fleets(self):
        config = FederationConfig(**{**FAST_FED, "libraries": (
            LibraryConfig(), LibraryConfig(),
        )})
        with pytest.raises(ValueError, match="exactly one library"):
            run_federation(config)


class TestRouting:
    def test_is_deterministic(self):
        config = FederationConfig(horizon_s=20_000.0, routing_samples=512)
        registry = ReplicaRegistry(config)
        first = route_fleet(config, registry, make_global_policy("least-queue"))
        second = route_fleet(config, registry, make_global_policy("least-queue"))
        assert first == second

    def test_routes_every_sample(self):
        config = FederationConfig(horizon_s=20_000.0, routing_samples=512)
        registry = ReplicaRegistry(config)
        routed, hot_routed = route_fleet(
            config, registry, make_global_policy("round-robin")
        )
        assert sum(routed) == 512
        assert all(0 <= h <= r for h, r in zip(hot_routed, routed))

    def test_predicted_service_favors_the_fast_library(self):
        config = FederationConfig(
            libraries=(
                LibraryConfig(drive_count=1, drive_speedup=0.5),
                LibraryConfig(drive_count=3, drive_speedup=2.0),
            ),
            global_policy="predicted-service",
            fleet_replicas=1,
            percent_requests_hot=80.0,
            horizon_s=20_000.0,
            routing_samples=512,
        )
        registry = ReplicaRegistry(config)
        routed, _hot = route_fleet(
            config, registry, make_global_policy("predicted-service")
        )
        assert routed[1] > routed[0]


class TestRunFederation:
    def test_report_aligns_with_the_fleet(self):
        config = FederationConfig(horizon_s=20_000.0, queue_length=10)
        result = run_federation(config)
        assert len(result.report.per_library) == config.size
        assert len(result.report.routed_requests) == config.size
        assert result.report.policy == "round-robin"
        assert result.aggregate_throughput_kb_s > 0

    def test_same_config_same_digest(self):
        config = FederationConfig(horizon_s=20_000.0, queue_length=10)
        assert federation_report_digest(
            run_federation(config).report
        ) == federation_report_digest(run_federation(config).report)

    def test_unrouted_library_reports_idle_zeroes(self):
        # A zero-weight library must produce an aligned all-zero report,
        # not be skipped.  Force it by giving library 1 nothing: one
        # request total cannot happen (queue >= size), so instead use a
        # least-queue fleet where routing is even but the queue split
        # can still zero out under extreme apportionment -- simplest
        # deterministic trigger is a 2-library fleet with queue_length 2
        # and a manual check of the idle-report helper.
        from repro.federation.runner import _idle_report

        report = _idle_report(FederationConfig(horizon_s=20_000.0))
        assert report.completed == 0
        assert report.throughput_kb_s == 0.0

    def test_obs_traces_library_zero(self):
        from repro.obs import Tracer

        tracer = Tracer()
        config = FederationConfig(horizon_s=20_000.0, queue_length=10)
        result = run(config, obs=tracer)
        assert result.report.traces == [tracer]
        assert list(tracer.terminal_traces()), "library 0 produced no traces"


@st.composite
def closed_configs(draw):
    """Closed single-library configs, shaped like the read-placement ones."""
    drive_count = draw(st.sampled_from([1, 2, 3]))
    scheduler = draw(
        st.sampled_from(SCHEDULERS if drive_count == 1 else MULTI_DRIVE_SCHEDULERS)
    )
    replicas = draw(st.sampled_from([0, 1, 2]))
    return ExperimentConfig(
        scheduler=scheduler,
        drive_count=drive_count,
        tape_count=6,
        capacity_mb=2000.0,
        replicas=replicas,
        layout=Layout.VERTICAL if replicas else Layout.HORIZONTAL,
        faults=draw(FAULTS),
        qos=draw(QOS),
        queue_length=draw(st.sampled_from([1, 8, 20])),
        horizon_s=8_000.0,
        seed=draw(st.integers(0, 10_000)),
    )


@settings(max_examples=15, deadline=None)
@given(closed_configs())
# Every layer at once, at a load where each one moves the digest.
@example(
    ExperimentConfig(
        drive_count=2,
        tape_count=6,
        capacity_mb=2000.0,
        replicas=2,
        layout=Layout.VERTICAL,
        faults=FaultConfig(media_error_rate=0.05, seed=7),
        qos=QoSConfig(deadline_s=3000.0),
        queue_length=20,
        horizon_s=8_000.0,
        seed=3,
    )
)
def test_one_library_federation_farm_and_experiment_agree(base):
    """A 1-library pass-through federation, a 1-jukebox farm and the
    plain run of the farm's member config produce one report."""
    federation = FederationConfig(
        libraries=(
            LibraryConfig(
                tape_count=base.tape_count,
                capacity_mb=base.capacity_mb,
                drive_count=base.drive_count,
            ),
        ),
        global_policy="pass-through",
        placement="home",
        # Home placement builds each library with NR = fleet_replicas.
        fleet_replicas=base.replicas,
        scheduler=base.scheduler,
        layout=base.layout,
        queue_length=base.queue_length,
        horizon_s=base.horizon_s,
        seed=base.seed,
        faults=base.faults,
        qos=base.qos,
    )
    farm = FarmConfig(base, 1, base.queue_length)
    member = base.with_(seed=derive_seed(base.seed, "farm:0") % (2**31))
    digests = {
        report_digest(run(federation).report.per_library[0]),
        report_digest(run(farm).report.per_jukebox[0]),
        report_digest(run(member).report),
    }
    assert len(digests) == 1
