"""Every physical read lands on a catalog copy of the block it delivers,
and every arrival terminates exactly once.

A drive that exchanges tapes builds the incoming tape's sweep before the
cartridge arrives, and requests arriving meanwhile may join it.  They
must be planned against the incoming tape: a request inserted at a copy
position of the outgoing tape would be "delivered" by reading whatever
sits at that offset of the incoming one.  The first property below
traces runs across scheduler, drive count, replication, faults, QoS and
arrival model, and checks each ``read`` span against the catalog.

The second property checks conservation over the same configs: a
request whose trace is still open at the horizon must be held somewhere
the simulator can still serve it from (the pending list, a drive's
unread sweep, or the read in flight), and nothing held there may have
terminated already.  A request missing from all of them was dropped.

The third property is the traced-vs-untraced twin over the same
configs: attaching a :class:`~repro.obs.Tracer` must not change a
single reported figure, so both runs share one report digest.
"""

from hypothesis import example, given, settings, strategies as st

from repro.api import run
from repro.experiments.runner import build_simulator
from repro.core import scheduler_names
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig, RetryPolicy
from repro.layout import Layout, PlacementSpec, build_catalog
from repro.obs import Tracer
from repro.qos import QoSConfig
from repro.service.metrics import report_digest

SCHEDULERS = sorted(scheduler_names())
MULTI_DRIVE_SCHEDULERS = [name for name in SCHEDULERS if "envelope" not in name]

FAULTS = st.one_of(
    st.none(),
    st.builds(
        FaultConfig,
        media_error_rate=st.sampled_from([0.0, 0.05]),
        bad_replica_rate=st.sampled_from([0.0, 0.05]),
        robot_pick_error_rate=st.sampled_from([0.0, 0.3]),
        drive_mtbf_s=st.sampled_from([None, 6000.0]),
        drive_mttr_s=st.just(900.0),
        seed=st.integers(0, 1000),
        retry=st.sampled_from([RetryPolicy(), RetryPolicy(max_attempts=1)]),
    ),
)

QOS = st.one_of(
    st.none(),
    st.builds(
        QoSConfig,
        deadline_s=st.sampled_from([None, 3000.0]),
        admission=st.just("bounded-queue"),
        max_pending=st.just(30),
        starvation_age_s=st.sampled_from([None, 4000.0]),
    ),
)


@st.composite
def configs(draw):
    drive_count = draw(st.sampled_from([1, 2, 3]))
    scheduler = draw(
        st.sampled_from(SCHEDULERS if drive_count == 1 else MULTI_DRIVE_SCHEDULERS)
    )
    replicas = draw(st.sampled_from([0, 1, 2]))
    arrivals = (
        {"queue_length": draw(st.sampled_from([1, 8, 20]))}
        if draw(st.booleans())
        else {"queue_length": None, "mean_interarrival_s": 60.0}
    )
    return ExperimentConfig(
        scheduler=scheduler,
        drive_count=drive_count,
        tape_count=6,
        capacity_mb=2000.0,
        replicas=replicas,
        layout=Layout.VERTICAL if replicas else Layout.HORIZONTAL,
        faults=draw(FAULTS),
        qos=draw(QOS),
        horizon_s=12_000.0,
        seed=draw(st.integers(0, 10_000)),
        **arrivals,
    )


def misplaced_reads(config):
    """The traced run's ``read`` spans that miss every copy of their block."""
    tracer = Tracer()
    run(config, obs=tracer)
    catalog = build_catalog(
        PlacementSpec(
            layout=config.layout,
            percent_hot=config.percent_hot,
            replicas=config.replicas,
            start_position=config.start_position,
            block_mb=config.block_mb,
            pack_cold=config.pack_cold,
        ),
        config.tape_count,
        config.capacity_mb,
        data_blocks=config.data_blocks,
    )
    reads = [span for span in tracer.drive_spans if span.kind == "read"]
    assert reads, "run made no reads"
    return [
        span
        for span in reads
        if not any(
            replica.tape_id == span.tape_id
            and replica.position_mb == span.position_mb
            for replica in catalog.replicas_of(span.block_id)
        )
    ]


@settings(max_examples=30, deadline=None)
@given(configs())
# Two drives: arrivals during an exchange joined the incoming sweep at
# the outgoing tape's copy position.
@example(
    ExperimentConfig(
        drive_count=2,
        tape_count=8,
        capacity_mb=2000.0,
        queue_length=20,
        horizon_s=20_000.0,
        seed=5,
    )
)
# One drive: the same, while a robot pick was being retried.
@example(
    ExperimentConfig(
        queue_length=None,
        mean_interarrival_s=30.0,
        replicas=2,
        layout=Layout.VERTICAL,
        faults=FaultConfig(robot_pick_error_rate=0.5, seed=4),
        horizon_s=60_000.0,
        seed=4,
    )
)
def test_every_read_is_at_a_catalog_copy(config):
    bad = misplaced_reads(config)
    assert not bad, f"{len(bad)} reads off the catalog, first {bad[0]}"


def held_request_ids(simulator):
    """Ids of the requests the simulator still holds, one per holding."""
    held = [request.request_id for request in simulator.pending]
    for context in simulator.contexts:
        service = context.service
        if service is None:
            continue
        entries = list(service.remaining())
        if service.in_flight is not None:
            entries.append(service.in_flight)
        held.extend(
            request.request_id for entry in entries for request in entry.requests
        )
    return sorted(held)


@settings(max_examples=30, deadline=None)
@given(configs())
# Robot picks exhaust their retries on one drive: closed-loop
# replacements issued during failover joined the doomed sweep and were
# dropped with it.
# (The golden-hash pin ``fig4_pick_exhaustion_drive_failures``.)
@example(
    ExperimentConfig(
        scheduler="dynamic-max-bandwidth",
        queue_length=60,
        replicas=1,
        faults=FaultConfig(
            robot_pick_error_rate=0.3,
            drive_mtbf_s=8000.0,
            drive_mttr_s=1200.0,
            retry=RetryPolicy(max_attempts=2),
        ),
        horizon_s=60_000.0,
        seed=42,
    )
)
def test_every_arrival_terminates_exactly_once(config):
    tracer = Tracer()
    simulator = build_simulator(config, obs=tracer)
    simulator.run(config.horizon_s)
    open_ids = sorted(trace.request_id for trace in tracer.open_traces())
    assert held_request_ids(simulator) == open_ids


@settings(max_examples=30, deadline=None)
@given(configs())
# The exact planner on one drive, under faults and QoS.
@example(
    ExperimentConfig(
        scheduler="exact-batch",
        tape_count=6,
        capacity_mb=2000.0,
        queue_length=20,
        faults=FaultConfig(media_error_rate=0.05, robot_pick_error_rate=0.3, seed=3),
        qos=QoSConfig(deadline_s=3000.0, starvation_age_s=4000.0),
        horizon_s=12_000.0,
        seed=11,
    )
)
# The exact planner on three drives with replicas and open arrivals.
@example(
    ExperimentConfig(
        scheduler="exact-batch",
        drive_count=3,
        tape_count=6,
        capacity_mb=2000.0,
        replicas=2,
        layout=Layout.VERTICAL,
        queue_length=None,
        mean_interarrival_s=60.0,
        horizon_s=12_000.0,
        seed=7,
    )
)
def test_traced_run_matches_untraced(config):
    traced = run(config, obs=Tracer())
    assert report_digest(traced.report) == report_digest(run(config).report)
