"""Tests for the memory/disk/tape storage hierarchy."""

import random

import pytest

from repro.core import make_scheduler
from repro.hierarchy import DiskModel, HierarchySimulator, LRUCache, MemoryModel
from repro.layout import PlacementSpec, build_catalog
from repro.tape import Jukebox
from repro.workload import HotColdSkew

BLOCK = 16.0


class TestLRUCache:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_hit_miss_accounting(self):
        cache = LRUCache(2)
        assert not cache.access(1)
        cache.insert(1)
        assert cache.access(1)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_eviction_is_lru(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.insert(2)
        cache.access(1)  # 2 is now least recent
        evicted = cache.insert(3)
        assert evicted == 2
        assert 1 in cache and 3 in cache and 2 not in cache

    def test_reinsert_refreshes_without_eviction(self):
        cache = LRUCache(2)
        cache.insert(1)
        cache.insert(2)
        assert cache.insert(1) is None
        assert cache.contents() == [2, 1]

    def test_zero_capacity_rejects(self):
        cache = LRUCache(0)
        assert cache.insert(1) is None
        assert not cache.access(1)

    def test_capacity_never_exceeded(self):
        cache = LRUCache(3)
        for block in range(10):
            cache.insert(block)
        assert len(cache) == 3
        assert cache.contents() == [7, 8, 9]


class TestDiskAndMemoryModels:
    def test_disk_service_time(self):
        disk = DiskModel(positioning_s=0.01, transfer_mb_s=40.0)
        assert disk.service_s(16.0) == pytest.approx(0.01 + 0.4)
        with pytest.raises(ValueError):
            disk.service_s(-1)

    def test_memory_service_time(self):
        memory = MemoryModel()
        assert memory.service_s(16.0) == pytest.approx(0.0002)
        with pytest.raises(ValueError):
            memory.service_s(-1)

    def test_tier_latency_orders_of_magnitude(self):
        from repro.tape import EXB_8505XL

        memory_s = MemoryModel().service_s(16.0)
        disk_s = DiskModel().service_s(16.0)
        tape_s = EXB_8505XL.locate_forward(3000.0) + EXB_8505XL.read(16.0)
        assert memory_s < disk_s / 100
        assert disk_s < tape_s / 100


def make_hierarchy(memory_blocks=64, disk_blocks=600, interarrival=40.0, rh=80.0,
                   seed=2):
    # The warm tier must be sized to cover the hot set (448 blocks at
    # PH-10) for the hierarchy to do its job — the paper's "warm data
    # are on magnetic disks" premise.
    catalog = build_catalog(PlacementSpec(percent_hot=10, block_mb=BLOCK), 10, 7 * 1024.0)
    return HierarchySimulator(
        jukebox=Jukebox.build(),
        catalog=catalog,
        scheduler=make_scheduler("dynamic-max-bandwidth"),
        memory_blocks=memory_blocks,
        disk_blocks=disk_blocks,
        skew=HotColdSkew(rh),
        rng=random.Random(seed),
        mean_interarrival_s=interarrival,
    )


class TestHierarchySimulation:
    def test_default_run_is_pinned(self):
        """Seed 2 over 200 ks reproduces the recorded tier counts and
        latencies exactly, so refactors of the tape tier stay honest."""
        hierarchy = make_hierarchy()
        stats = hierarchy.run(200_000.0)
        assert (stats.memory_hits, stats.disk_hits, stats.tape_misses) == (
            521,
            2678,
            1762,
        )
        assert stats.latency.mean.hex() == (997.3566123069602).hex()
        assert stats.tape_latency.mean.hex() == (2829.318541410909).hex()
        assert hierarchy.observed_tape_skew == 49.3189557321227
        assert hierarchy.tape.metrics.total_completed == 1637

    def test_tiers_absorb_traffic(self):
        hierarchy = make_hierarchy()
        stats = hierarchy.run(200_000.0)
        assert stats.total > 1000
        assert stats.memory_hits > 0
        assert stats.disk_hits > 0
        assert stats.tape_misses > 0
        # The caches absorb most of the hot traffic before tape.
        assert stats.jukebox_fraction < 0.5

    def test_caches_flatten_tape_skew(self):
        """Clients send RH-80 traffic; the jukebox should see much less
        hot-request concentration once the upper tiers soak it up."""
        hierarchy = make_hierarchy(rh=80.0)
        hierarchy.run(200_000.0)
        assert hierarchy.observed_tape_skew < 60.0

    def test_no_caches_everything_reaches_tape(self):
        hierarchy = make_hierarchy(memory_blocks=0, disk_blocks=0,
                                   interarrival=300.0)
        stats = hierarchy.run(40_000.0)
        assert stats.memory_hits == 0
        assert stats.disk_hits == 0
        assert stats.jukebox_fraction == 1.0

    def test_latency_split_between_tiers(self):
        hierarchy = make_hierarchy()
        stats = hierarchy.run(60_000.0)
        # Cache-dominated mean latency is far below tape-only latency.
        assert stats.latency.mean < stats.tape_latency.mean
        assert stats.tape_latency.mean > 60.0  # tape takes minutes-ish

    def test_in_flight_coalescing(self):
        """Concurrent misses on one block trigger a single tape read."""
        hierarchy = make_hierarchy(memory_blocks=0, disk_blocks=0,
                                   interarrival=5.0, rh=100.0, seed=7)
        stats = hierarchy.run(20_000.0)
        tape_reads = hierarchy.tape.metrics.total_completed
        assert stats.tape_misses > tape_reads  # some rides shared a read

    def test_invalid_interarrival(self):
        with pytest.raises(ValueError):
            make_hierarchy(interarrival=0.0)
