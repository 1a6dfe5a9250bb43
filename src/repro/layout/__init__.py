"""Data placement and replication substrate."""

from .._lazy import lazy_exports
from .catalog import BlockCatalog, Replica
from .placement import (
    Layout,
    PlacementSpec,
    build_catalog,
    expansion_factor,
    logical_block_budget,
)
from .validate import LayoutError, validate_catalog

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        ".lifecycle": ("LifecyclePlanner", "LifecycleStage", "StagePlan"),
    },
)

__all__ = [
    "BlockCatalog",
    "LifecyclePlanner",
    "LifecycleStage",
    "StagePlan",
    "Layout",
    "LayoutError",
    "PlacementSpec",
    "Replica",
    "build_catalog",
    "expansion_factor",
    "logical_block_budget",
    "validate_catalog",
]
