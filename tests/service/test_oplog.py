"""Tests for the drive operation log."""

import random

import pytest

from repro.core import make_scheduler
from repro.des import Environment
from repro.layout import PlacementSpec, build_catalog
from repro.service import JukeboxSimulator, MetricsCollector
from repro.service.oplog import OpKind, Operation, OperationLog
from repro.tape import Jukebox
from repro.workload import ClosedSource, HotColdSkew, OpenSource

BLOCK = 16.0


class TestOperationLog:
    def test_append_and_iterate(self):
        log = OperationLog()
        log.append(Operation(OpKind.READ, 0.0, 30.0, tape_id=1, position_mb=10.0))
        log.append(Operation(OpKind.SWITCH, 30.0, 81.0, tape_id=2))
        assert len(log) == 2
        assert [operation.kind for operation in log] == [OpKind.READ, OpKind.SWITCH]

    def test_capacity_drops(self):
        log = OperationLog(capacity=1)
        log.append(Operation(OpKind.READ, 0.0, 1.0))
        log.append(Operation(OpKind.READ, 1.0, 1.0))
        assert len(log) == 1
        assert log.dropped == 1

    def test_of_kind_and_busy(self):
        log = OperationLog()
        log.append(Operation(OpKind.READ, 0.0, 30.0))
        log.append(Operation(OpKind.IDLE, 30.0, 100.0))
        log.append(Operation(OpKind.SWITCH, 130.0, 81.0))
        assert len(log.of_kind(OpKind.READ)) == 1
        assert log.busy_seconds() == pytest.approx(111.0)

    def test_overlap_validation(self):
        log = OperationLog()
        log.append(Operation(OpKind.READ, 0.0, 30.0))
        log.append(Operation(OpKind.READ, 10.0, 30.0))
        with pytest.raises(AssertionError):
            log.validate_non_overlapping()

    def test_format(self):
        log = OperationLog()
        log.append(Operation(OpKind.READ, 0.0, 30.0, tape_id=1, position_mb=64.0,
                             block_id=4))
        text = log.format()
        assert "read" in text
        assert "tape=1" in text
        assert "block=4" in text

    def test_format_truncates(self):
        log = OperationLog()
        for index in range(60):
            log.append(Operation(OpKind.READ, float(index), 1.0))
        assert "10 more" in log.format(limit=50)


class TestSimulatorIntegration:
    def make_simulator(self, oplog, interarrival=None, queue_length=10):
        catalog = build_catalog(
            PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, 7 * 1024.0
        )
        rng = random.Random(4)
        skew = HotColdSkew(40.0)
        if interarrival is None:
            source = ClosedSource(queue_length, skew, catalog, rng)
        else:
            source = OpenSource(interarrival, skew, catalog, rng)
        return JukeboxSimulator(
            env=Environment(),
            jukebox=Jukebox.build(),
            catalog=catalog,
            scheduler=make_scheduler("dynamic-max-bandwidth"),
            source=source,
            metrics=MetricsCollector(block_mb=BLOCK),
            oplog=oplog,
        )

    def test_operations_logged_and_ordered(self):
        log = OperationLog()
        simulator = self.make_simulator(log)
        report = simulator.run(10_000.0)
        reads = log.of_kind(OpKind.READ)
        switches = log.of_kind(OpKind.SWITCH)
        # Hardware counters mutate at operation *start*; the log appends
        # at operation *end*, so the op in flight at the horizon may be
        # counted but not yet logged.
        assert abs(len(reads) - report.total_completed) <= 1
        hardware_switches = simulator.bays[0].switches
        assert hardware_switches - 1 <= len(switches) <= hardware_switches
        log.validate_non_overlapping()

    def test_logged_busy_matches_metrics(self):
        log = OperationLog()
        simulator = self.make_simulator(log)
        simulator.run(10_000.0)
        # Logged busy time only counts *finished* operations; allow the
        # one op in flight at the horizon.
        assert log.busy_seconds() <= simulator.metrics.busy_s_after_warmup + 300.0
        assert log.busy_seconds() > 0.8 * simulator.metrics.busy_s_after_warmup

    def test_idle_logged_in_open_model(self):
        log = OperationLog()
        simulator = self.make_simulator(log, interarrival=1_000.0)
        simulator.run(20_000.0)
        idles = log.of_kind(OpKind.IDLE)
        assert idles, "a lightly loaded open system must log idle gaps"
        assert sum(operation.duration_s for operation in idles) > 1_000.0

    def test_no_log_attached_is_free(self):
        simulator = self.make_simulator(None)
        report = simulator.run(5_000.0)
        assert report.total_completed > 0
