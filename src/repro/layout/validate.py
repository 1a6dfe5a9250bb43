"""Layout invariant checks.

These are the structural facts every catalog must satisfy (paper
Section 2.2); tests and the experiment runner call them defensively.
"""

from __future__ import annotations

from .catalog import BlockCatalog


class LayoutError(ValueError):
    """A catalog violates a placement invariant."""


def validate_catalog(
    catalog: BlockCatalog,
    tape_count: int,
    capacity_mb: float,
    expected_replicas: int,
) -> None:
    """Raise :class:`LayoutError` unless all placement invariants hold.

    Checks: replica counts (hot blocks have ``1 + NR`` copies, cold blocks
    exactly one), at most one copy per tape (enforced structurally by the
    catalog, re-checked here), non-overlapping extents within each tape,
    and all extents within tape capacity.
    """
    n_hot = catalog.n_hot
    for block_id in range(catalog.n_blocks):
        replicas = catalog.replicas_of(block_id)
        degree = len(replicas)
        expected = 1 + expected_replicas if block_id < n_hot else 1
        if degree != expected:
            kind = "hot" if block_id < n_hot else "cold"
            raise LayoutError(
                f"{kind} block {block_id} has {degree} copies, expected {expected}"
            )
        if degree > 1 and len({replica.tape_id for replica in replicas}) != degree:
            raise LayoutError(f"block {block_id} has two copies on one tape")
        for replica in replicas:
            if not 0 <= replica.tape_id < tape_count:
                raise LayoutError(
                    f"block {block_id} placed on nonexistent tape {replica.tape_id}"
                )

    # ``tape_contents`` is sorted by position, so extents come in order:
    # one pass checks the bounds of every extent and notes the first
    # overlap, which is reported only when every extent is in bounds.
    block_mb = catalog.block_mb
    for tape_id in range(tape_count):
        previous_end = None
        overlap = None
        for start, _block in catalog.tape_contents(tape_id):
            if overlap is None and previous_end is not None and start < previous_end:
                overlap = start
            end = previous_end = start + block_mb
            if start < 0 or end > capacity_mb:
                raise LayoutError(
                    f"tape {tape_id}: extent [{start}, {end}) outside capacity "
                    f"{capacity_mb} MB"
                )
        if overlap is not None:
            raise LayoutError(f"tape {tape_id}: overlapping extents at {overlap} MB")
