"""Stable content addressing for experiment configurations.

The cache key of a run must depend on *everything* that determines its
result: every config field (faults included), the serialized dataclass
schema, and a code-version salt that is bumped whenever the simulation
semantics change in a way the schema fingerprint cannot see (e.g. a
scheduler bug fix).  Python's built-in ``hash()`` is unsuitable — it is
randomized per process for strings — so keys are SHA-256 digests of a
canonical JSON rendering.
"""

from __future__ import annotations

import hashlib
import json

from ..experiments.config import ExperimentConfig
from ..experiments.store import config_to_dict, schema_fingerprint

#: Salt mixed into every cache key.  Bump when simulation semantics
#: change without a dataclass field changing (scheduler fixes, timing
#: model corrections, ...): all previously cached results then miss.
CODE_VERSION = "sim-2026.10-arrival-floors"


def _config_payload(config: ExperimentConfig) -> dict:
    """The canonical dict of an experiment config, tagged with its kind.

    The ``"kind": "experiment"`` tag predates the single run kind; it
    stays so the canonical JSON of every experiment is unchanged.
    """
    if not isinstance(config, ExperimentConfig):
        raise TypeError(f"cannot hash config of type {type(config).__name__}")
    return {"kind": "experiment", "config": config_to_dict(config)}


def canonical_config_json(config) -> str:
    """A canonical (sorted-key, minimal-separator) JSON rendering."""
    return json.dumps(
        _config_payload(config), sort_keys=True, separators=(",", ":")
    )


def config_digest(config, salt: str = CODE_VERSION) -> str:
    """The SHA-256 content address of ``config`` under ``salt``.

    Stable across processes and interpreter restarts; sensitive to every
    config field, to the dataclass schema, and to the salt.
    """
    material = "\n".join((salt, schema_fingerprint(), canonical_config_json(config)))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()
