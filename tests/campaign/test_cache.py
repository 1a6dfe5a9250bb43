"""Tests for the content-addressed on-disk result cache."""

import json

import pytest

from repro.api import run
from repro.campaign import ResultCache
from repro.experiments import ExperimentConfig

CONFIG = ExperimentConfig(
    queue_length=5, horizon_s=5_000.0, tape_count=4, capacity_mb=500.0
)


@pytest.fixture(scope="module")
def result():
    return run(CONFIG)


class TestCacheHitMiss:
    def test_empty_cache_misses(self, tmp_path):
        assert ResultCache(tmp_path).get(CONFIG) is None

    def test_put_then_get_round_trips(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(result)
        assert path.exists()
        restored = cache.get(CONFIG)
        assert restored is not None
        assert restored.config == result.config
        assert restored.report == result.report

    def test_other_config_still_misses(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(result)
        assert cache.get(CONFIG.with_(seed=99)) is None

    def test_len_counts_entries(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(result)
        assert len(cache) == 1


class TestCacheInvalidation:
    def test_explicit_invalidate(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put(result)
        assert cache.invalidate(CONFIG) is True
        assert cache.get(CONFIG) is None
        assert cache.invalidate(CONFIG) is False

    def test_corrupt_entry_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(result)
        path.write_text("{not json")
        assert cache.get(CONFIG) is None

    def test_version_mismatch_is_a_miss_not_a_load(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(result)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(CONFIG) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(result)
        payload = json.loads(path.read_text())
        payload["schema"] = "0000000000000000"
        path.write_text(json.dumps(payload))
        assert cache.get(CONFIG) is None

    def test_salt_change_invalidates_everything(self, tmp_path, result):
        ResultCache(tmp_path, salt="v1").put(result)
        assert ResultCache(tmp_path, salt="v1").get(CONFIG) is not None
        assert ResultCache(tmp_path, salt="v2").get(CONFIG) is None

    def test_corrupt_entry_is_quarantined_with_evidence(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put(result)
        path.write_text("{torn write \x00")
        assert cache.get(CONFIG) is None
        assert not path.exists()  # moved aside, not overwritten in place
        assert cache.quarantined == 1
        corrupt = cache.corrupt_entries()
        assert len(corrupt) == 1
        assert corrupt[0].name == path.name + ".corrupt"
        assert "torn write" in corrupt[0].read_text()
        # A fresh put fills the slot again and reads back cleanly.
        cache.put(result)
        assert cache.get(CONFIG) is not None

    def test_quarantine_counts_into_metrics(self, tmp_path, result):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        cache = ResultCache(tmp_path, metrics=registry)
        cache.put(result).write_text("{not json")
        cache.get(CONFIG)
        assert registry.count("campaign.cache.quarantined") == 1

    def test_wrong_config_in_entry_is_a_miss(self, tmp_path, result):
        # Paranoia guard: an entry whose stored config differs from the
        # requested one (collision, manual tampering) must not load.
        cache = ResultCache(tmp_path)
        path = cache.put(result)
        payload = json.loads(path.read_text())
        payload["config"]["seed"] = 12345
        path.write_text(json.dumps(payload))
        assert cache.get(CONFIG) is None


class TestOrphanSweep:
    def _orphan(self, cache, result, name=".deadbeef.json.999.tmp"):
        path = cache.put(result)
        orphan = path.parent / name
        orphan.write_text("{ torn")
        return orphan

    def test_clean_removes_orphaned_temp_files(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        orphan = self._orphan(cache, result)
        assert cache.clean() == 1
        assert not orphan.exists()
        assert cache.orphans_removed == 1
        assert len(cache) == 1  # the real entry is untouched

    def test_construction_sweep_spares_recent_temp_files(self, tmp_path, result):
        # The age guard protects a *live* writer in another process:
        # a just-written temp file survives construction-time sweeping.
        orphan = self._orphan(ResultCache(tmp_path), result)
        ResultCache(tmp_path)
        assert orphan.exists()

    def test_construction_sweep_removes_aged_temp_files(self, tmp_path, result):
        import os

        orphan = self._orphan(ResultCache(tmp_path), result)
        two_hours_ago = orphan.stat().st_mtime - 7200
        os.utime(orphan, (two_hours_ago, two_hours_ago))
        ResultCache(tmp_path)
        assert not orphan.exists()

    def test_sweep_counts_into_metrics(self, tmp_path, result):
        from repro.obs import MetricRegistry

        cache = ResultCache(tmp_path)
        self._orphan(cache, result)
        registry = MetricRegistry()
        cache.metrics = registry
        cache.clean()
        assert registry.count("campaign.cache.orphans_removed") == 1

    def test_clean_on_missing_root_is_zero(self, tmp_path):
        assert ResultCache(tmp_path / "absent").clean() == 0
