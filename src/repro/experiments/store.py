"""Persistence of experiment results as JSON.

Long parameter sweeps are expensive; storing results lets analyses and
documents (EXPERIMENTS.md) be regenerated without re-simulating.  The
format is a stable, versioned JSON document: the config's fields plus
the metric report's fields, tagged ``"kind": "experiment"`` — which
is what lets the campaign cache, journal, and resume share one
surface.

Two guards make the round trip safe to use as a cache substrate
(see :mod:`repro.campaign`):

* ``version`` — the container format; bumped on incompatible layout
  changes to the document itself.
* ``schema`` — a fingerprint of the dataclass field sets
  (:class:`ExperimentConfig`, :class:`MetricsReport`, and the nested
  fault and QoS dataclasses).  When a field is added, removed, or
  renamed the fingerprint changes and old documents are *rejected*
  instead of silently loading with defaults filled in for the missing
  fields.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import List, Union

from ..faults.config import FaultConfig
from ..faults.retry import RetryPolicy
from ..layout.placement import Layout
from ..qos.config import QoSConfig
from ..service.metrics import MetricsReport
from .config import ExperimentConfig
from .runner import ExperimentResult

#: Format version; bump on incompatible changes to the document layout.
FORMAT_VERSION = 2


def _field_names(cls) -> tuple:
    return tuple(sorted(field.name for field in dataclasses.fields(cls)))


def schema_fingerprint() -> str:
    """A stable fingerprint of the serialized dataclass field sets.

    Any change to the fields of the config or report dataclasses (the
    payload of a stored result) changes this value, so stale documents
    fail loudly on load rather than deserializing into a dataclass
    whose new fields silently took their defaults.
    """
    parts = [
        f"{cls.__name__}:{','.join(_field_names(cls))}"
        for cls in (
            ExperimentConfig,
            MetricsReport,
            FaultConfig,
            RetryPolicy,
            QoSConfig,
        )
    ]
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def config_to_dict(config: ExperimentConfig) -> dict:
    """A JSON-ready dict of one experiment configuration."""
    payload = dataclasses.asdict(config)
    payload["layout"] = config.layout.value
    return payload


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict`.

    dataclasses.asdict flattens the nested frozen ``faults``/``qos``
    dataclasses to plain dicts (and JSON turns tuples into lists), so
    both are rebuilt here.
    """
    config_fields = dict(payload)
    if config_fields.get("faults") is not None:
        fault_fields = dict(config_fields["faults"])
        fault_fields["retry"] = RetryPolicy(**fault_fields["retry"])
        fault_fields["tape_media_error_rates"] = tuple(
            (tape_id, rate)
            for tape_id, rate in fault_fields["tape_media_error_rates"]
        )
        config_fields["faults"] = FaultConfig(**fault_fields)
    if config_fields.get("qos") is not None:
        config_fields["qos"] = QoSConfig(**dict(config_fields["qos"]))
    config_fields["layout"] = Layout(config_fields["layout"])
    return ExperimentConfig(**config_fields)


def result_to_dict(result: ExperimentResult) -> dict:
    """A JSON-ready dict of one experiment result (traces never persist)."""
    if not isinstance(result, ExperimentResult):
        raise TypeError(
            f"cannot serialize result of type {type(result).__name__}"
        )
    return {
        "version": FORMAT_VERSION,
        "schema": schema_fingerprint(),
        "kind": "experiment",
        "config": config_to_dict(result.config),
        "report": dataclasses.asdict(result.report),
    }


def result_from_dict(payload: dict) -> ExperimentResult:
    """Rebuild an experiment result from a stored dict.

    Raises :class:`ValueError` when the document was written by an
    incompatible format version, holds a run kind other than
    ``"experiment"`` (earlier versions also stored fleet kinds, whose
    code is retired), or was written under a different dataclass
    schema.  Documents without a ``"kind"`` tag are experiments.
    """
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported result format version {version!r}")
    kind = payload.get("kind", "experiment")
    if kind != "experiment":
        raise ValueError(
            f"cannot load a {kind!r} result: 'experiment' is the only "
            f"run kind (the fleet kinds are retired)"
        )
    schema = payload.get("schema")
    if schema != schema_fingerprint():
        raise ValueError(
            f"result schema mismatch: stored {schema!r}, "
            f"current {schema_fingerprint()!r}"
        )
    config = config_from_dict(payload["config"])
    report = MetricsReport(**payload["report"])
    return ExperimentResult(config=config, report=report)


def save_results(results: List[ExperimentResult], path: Union[str, Path]) -> None:
    """Write results to ``path`` as a JSON array."""
    documents = [result_to_dict(result) for result in results]
    Path(path).write_text(json.dumps(documents, indent=2, sort_keys=True))


def load_results(path: Union[str, Path]) -> List[ExperimentResult]:
    """Read results previously written by :func:`save_results`."""
    documents = json.loads(Path(path).read_text())
    if not isinstance(documents, list):
        raise ValueError("result file must contain a JSON array")
    return [result_from_dict(document) for document in documents]
