"""Tests for stable content addressing of experiment configurations."""

from repro.campaign.hashing import (
    CODE_VERSION,
    canonical_config_json,
    config_digest,
)
from repro.experiments import ExperimentConfig
from repro.faults import FaultConfig


class TestCanonicalJson:
    def test_deterministic(self):
        config = ExperimentConfig()
        assert canonical_config_json(config) == canonical_config_json(config)

    def test_covers_every_field(self):
        import dataclasses
        import json

        rendered = json.loads(canonical_config_json(ExperimentConfig()))
        assert rendered["kind"] == "experiment"
        for field in dataclasses.fields(ExperimentConfig):
            assert field.name in rendered["config"]

    def test_experiment_payload_keeps_its_kind_tag(self):
        """The tag outlived the other run kinds; dropping it would move
        every experiment's canonical JSON and cache address."""
        import json

        rendered = json.loads(canonical_config_json(ExperimentConfig(seed=7)))
        assert set(rendered) == {"config", "kind"}
        assert rendered["kind"] == "experiment"


class TestConfigDigest:
    def test_is_hex_sha256(self):
        digest = config_digest(ExperimentConfig())
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")

    def test_equal_configs_equal_digests(self):
        a = ExperimentConfig().with_(replicas=2, start_position=1.0)
        b = ExperimentConfig().with_(replicas=2, start_position=1.0)
        assert config_digest(a) == config_digest(b)

    def test_any_field_change_changes_digest(self):
        base = ExperimentConfig()
        assert config_digest(base) != config_digest(base.with_(seed=43))
        assert config_digest(base) != config_digest(base.with_(queue_length=61))

    def test_faults_are_part_of_the_address(self):
        base = ExperimentConfig()
        faulted = base.with_(faults=FaultConfig(media_error_rate=0.01))
        assert config_digest(base) != config_digest(faulted)
        # Same fault rates, list vs tuple input: one address.
        listy = base.with_(
            faults=FaultConfig(tape_media_error_rates=[(1, 0.2)])
        )
        tupley = base.with_(
            faults=FaultConfig(tape_media_error_rates=((1, 0.2),))
        )
        assert config_digest(listy) == config_digest(tupley)

    def test_salt_changes_digest(self):
        config = ExperimentConfig()
        assert config_digest(config, salt=CODE_VERSION) != config_digest(
            config, salt="different-code-version"
        )
