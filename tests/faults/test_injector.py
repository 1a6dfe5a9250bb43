"""Tests for the fault injector's typed, seeded fault decisions."""

import pytest

from repro.faults import (
    BadBlockError,
    DriveFailureError,
    FaultConfig,
    FaultError,
    FaultInjector,
    MediaError,
    RobotPickError,
)
from repro.layout import PlacementSpec, build_catalog


def make_catalog(tape_count=4, replicas=0):
    spec = PlacementSpec(percent_hot=10, replicas=replicas, block_mb=16.0)
    return build_catalog(spec, tape_count, 1000.0)


class TestFaultTypes:
    def test_typed_hierarchy(self):
        for cls in (MediaError, BadBlockError, DriveFailureError, RobotPickError):
            assert issubclass(cls, FaultError)
            assert issubclass(cls, RuntimeError)

    def test_transient_flags(self):
        assert MediaError("x").transient
        assert RobotPickError("x").transient
        assert not BadBlockError("x").transient
        assert not DriveFailureError("x").transient

    def test_faults_carry_location(self):
        fault = MediaError("soft error", tape_id=3, block_id=17)
        assert fault.tape_id == 3
        assert fault.block_id == 17
        assert fault.kind == "media-error"


class TestMediaErrors:
    def test_zero_rate_never_faults(self):
        injector = FaultInjector(FaultConfig(), make_catalog())
        for block_id in range(50):
            assert injector.read_fault(0, block_id) is None
        assert injector.injected == {}

    def test_rate_one_always_faults(self):
        injector = FaultInjector(
            FaultConfig(media_error_rate=1.0), make_catalog()
        )
        fault = injector.read_fault(0, 1)
        assert isinstance(fault, MediaError)
        assert injector.injected["media-error"] == 1

    def test_per_tape_override(self):
        config = FaultConfig(
            media_error_rate=0.0, tape_media_error_rates=((2, 1.0),)
        )
        injector = FaultInjector(config, make_catalog())
        assert injector.read_fault(0, 1) is None
        assert isinstance(injector.read_fault(2, 1), MediaError)

    def test_same_seed_same_faults(self):
        def pattern(seed):
            injector = FaultInjector(
                FaultConfig(media_error_rate=0.3, seed=seed), make_catalog()
            )
            return [injector.read_fault(0, b) is not None for b in range(100)]

        assert pattern(5) == pattern(5)
        assert pattern(5) != pattern(6)


class TestBadReplicas:
    def test_sampled_once_from_seed(self):
        catalog = make_catalog(replicas=2)
        first = FaultInjector(FaultConfig(bad_replica_rate=0.1, seed=9), catalog)
        second = FaultInjector(FaultConfig(bad_replica_rate=0.1, seed=9), catalog)
        assert first.bad_replicas == second.bad_replicas
        assert first.bad_replicas  # 10% of hundreds of copies

    def test_bad_copy_faults_permanently(self):
        catalog = make_catalog(replicas=2)
        injector = FaultInjector(FaultConfig(bad_replica_rate=0.1, seed=9), catalog)
        tape_id, block_id = next(iter(injector.bad_replicas))
        fault = injector.read_fault(tape_id, block_id)
        assert isinstance(fault, BadBlockError)
        assert not fault.transient

    def test_discovery_is_not_clairvoyant(self):
        """Undiscovered bad copies still count as survivors."""
        catalog = make_catalog(replicas=2)
        injector = FaultInjector(FaultConfig(bad_replica_rate=0.1, seed=9), catalog)
        tape_id, block_id = next(iter(injector.bad_replicas))
        survivors = {r.tape_id for r in injector.surviving_replicas(block_id)}
        assert tape_id in survivors  # not yet discovered
        injector.condemn_replica(tape_id, block_id)
        survivors = {r.tape_id for r in injector.surviving_replicas(block_id)}
        assert tape_id not in survivors

    def test_block_lost_when_all_copies_condemned(self):
        catalog = make_catalog(replicas=0)
        injector = FaultInjector(FaultConfig(media_error_rate=0.1), catalog)
        replica = catalog.replicas_of(0)[0]
        assert not injector.block_lost(0)
        injector.condemn_replica(replica.tape_id, 0)
        assert injector.block_lost(0)

    def test_all_blocks_lost_once_every_tape_failed(self):
        catalog = make_catalog(tape_count=3, replicas=1)
        injector = FaultInjector(FaultConfig(media_error_rate=0.1), catalog)
        assert not injector.all_blocks_lost()
        injector.fail_tape(0)
        injector.fail_tape(1)
        assert not injector.all_blocks_lost()
        injector.fail_tape(2)
        assert injector.all_blocks_lost()


class TestRobotAndDrives:
    def test_robot_pick_fault(self):
        injector = FaultInjector(
            FaultConfig(robot_pick_error_rate=1.0), make_catalog()
        )
        fault = injector.robot_pick_fault(3)
        assert isinstance(fault, RobotPickError)
        assert fault.tape_id == 3

    def test_failed_tape_masks_survivors(self):
        catalog = make_catalog(replicas=1)
        injector = FaultInjector(FaultConfig(media_error_rate=0.1), catalog)
        replicas = catalog.replicas_of(0)
        assert len(replicas) == 2
        injector.fail_tape(replicas[0].tape_id)
        assert injector.tape_failed(replicas[0].tape_id)
        survivors = injector.surviving_replicas(0)
        assert [r.tape_id for r in survivors] == [replicas[1].tape_id]

    def test_no_mtbf_means_no_drive_failures(self):
        injector = FaultInjector(FaultConfig(media_error_rate=0.1), make_catalog())
        assert not injector.drive_failure_due(0, 1e12)

    def test_drive_failure_clock_rearms_after_repair(self):
        injector = FaultInjector(
            FaultConfig(drive_mtbf_s=1000.0, drive_mttr_s=100.0), make_catalog()
        )
        due_at = injector._next_failure_s[0]
        assert injector.drive_failure_due(0, due_at)
        repair_s = injector.begin_repair(0, due_at)
        assert repair_s > 0
        assert not injector.drive_failure_due(0, due_at + repair_s)
        assert injector.injected["drive-failure"] == 1

    def test_per_drive_clocks_are_independent(self):
        injector = FaultInjector(
            FaultConfig(drive_mtbf_s=1000.0), make_catalog(), drive_count=3
        )
        assert len(set(injector._next_failure_s)) == 3

    def test_drive_count_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(FaultConfig(), make_catalog(), drive_count=0)


class TestFaultConfig:
    def test_default_is_inert(self):
        assert not FaultConfig().enabled

    def test_any_rate_enables(self):
        assert FaultConfig(media_error_rate=0.01).enabled
        assert FaultConfig(bad_replica_rate=0.01).enabled
        assert FaultConfig(robot_pick_error_rate=0.01).enabled
        assert FaultConfig(drive_mtbf_s=1e6).enabled
        assert FaultConfig(tape_media_error_rates=((0, 0.5),)).enabled

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(media_error_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(bad_replica_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(robot_pick_error_rate=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(drive_mtbf_s=0.0)
        with pytest.raises(ValueError):
            FaultConfig(drive_mttr_s=-5.0)
        with pytest.raises(ValueError):
            FaultConfig(tape_media_error_rates=((0, 2.0),))

    def test_config_is_hashable(self):
        config = FaultConfig(tape_media_error_rates=((1, 0.5),))
        assert hash(config) == hash(FaultConfig(tape_media_error_rates=((1, 0.5),)))
