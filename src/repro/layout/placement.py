"""Layout builders: where hot data, cold data, and replicas live on tape.

The paper's placement parameter space (Sections 4.3-4.5):

* **Layout** — *horizontal* spreads hot data over all tapes; *vertical*
  dedicates whole tapes (one, for the studied PH=10% on 10 tapes) to hot
  data and distributes replicas round-robin over the remaining tapes.
* **SP (start position)** — normalized position in [0, 1] of the hot-data
  run within each tape: 0 = beginning of tape, 1 = end.
* **NR (replicas)** — extra copies of each hot block, at most one copy of
  a block per tape, distributed round-robin across tapes.

Capacity accounting follows Section 4.8: with ``PH`` percent hot and
``NR`` replicas the stored volume expands by ``E = 1 + NR * PH / 100``,
so the number of logical blocks that fit in the jukebox shrinks to
``total_slots / E``.

Tapes are written contiguously from position 0; any rounding slack is
unused space at the end of a tape.  ``SP`` positions the hot run within a
tape's *used* region (identical to positioning within the full tape when
the tape is full, which is the paper's situation).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional

from .catalog import BlockCatalog, Replica


class Layout(enum.Enum):
    """Hot-data layout across tapes."""

    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


@dataclass(frozen=True)
class PlacementSpec:
    """Full specification of a data layout (the paper's notation).

    Attributes:
        layout: horizontal or vertical hot-data layout.
        percent_hot: PH — percent of logical blocks that are hot.
        replicas: NR — extra copies of each hot block (0..tape_count-1).
        start_position: SP — normalized hot-run position within a tape.
        block_mb: logical block size in MB (the paper settles on 16 MB).
        pack_cold: pack cold data onto as few tapes as possible instead of
            spreading it round-robin (the Section 4.8 spare-capacity
            comparison scheme).
    """

    layout: Layout = Layout.HORIZONTAL
    percent_hot: float = 10.0
    replicas: int = 0
    start_position: float = 0.0
    block_mb: float = 16.0
    pack_cold: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.percent_hot <= 100.0:
            raise ValueError(f"percent_hot must be in [0, 100], got {self.percent_hot!r}")
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas!r}")
        if not 0.0 <= self.start_position <= 1.0:
            raise ValueError(
                f"start_position must be in [0, 1], got {self.start_position!r}"
            )
        if self.block_mb <= 0:
            raise ValueError(f"block_mb must be positive, got {self.block_mb!r}")

    @property
    def expansion_factor(self) -> float:
        """``E = 1 + NR * PH / 100`` (paper Section 4.8)."""
        return expansion_factor(self.replicas, self.percent_hot)


def expansion_factor(replicas: int, percent_hot: float) -> float:
    """Storage expansion ``E = 1 + NR * PH / 100`` from replication."""
    return 1.0 + replicas * percent_hot / 100.0


def logical_block_budget(
    total_slots: int, replicas: int, percent_hot: float
) -> tuple:
    """Largest ``(n_logical, n_hot)`` that fit ``total_slots`` physical slots.

    Solves ``n_logical + NR * n_hot <= total_slots`` with
    ``n_hot ~= n_logical * PH / 100`` (rounded), preferring the largest
    feasible ``n_logical``.
    """
    if total_slots <= 0:
        raise ValueError(f"total_slots must be positive, got {total_slots!r}")
    expansion = expansion_factor(replicas, percent_hot)
    n_logical = int(total_slots / expansion)
    while n_logical > 0:
        n_hot = round(n_logical * percent_hot / 100.0)
        if n_logical + replicas * n_hot <= total_slots:
            return n_logical, n_hot
        n_logical -= 1
    raise ValueError(
        f"no feasible layout: {total_slots} slots, NR={replicas}, PH={percent_hot}"
    )


class _TapeBuilder:
    """Accumulates a single tape's hot-run and cold blocks, then lays them out."""

    def __init__(self, tape_id: int, slot_capacity: int) -> None:
        self.tape_id = tape_id
        self.slot_capacity = slot_capacity
        self.hot_blocks: List[int] = []  # block ids in the hot run (primaries+replicas)
        self.cold_blocks: List[int] = []

    @property
    def used(self) -> int:
        return len(self.hot_blocks) + len(self.cold_blocks)

    @property
    def free(self) -> int:
        return self.slot_capacity - self.used

    def layout(
        self,
        start_position: float,
        block_mb: float,
        placements: List[List[Replica]],
    ) -> None:
        """Assign slot positions, appending each block's copy on this
        tape to ``placements[block_id]``."""
        used = self.used
        if used > self.slot_capacity:
            raise ValueError(
                f"tape {self.tape_id} over capacity: {used} > {self.slot_capacity}"
            )
        hot_run = sorted(self.hot_blocks)
        cold_run = sorted(self.cold_blocks)
        hot_start = round(start_position * (used - len(hot_run)))
        # Cold blocks fill slots below the hot run, then the hot run, then
        # the remaining cold blocks.
        run = cold_run[:hot_start] + hot_run + cold_run[hot_start:]
        tape_id = self.tape_id
        for slot, block_id in enumerate(run):
            placements[block_id].append(Replica(tape_id, slot * block_mb))


def build_catalog(
    spec: PlacementSpec,
    tape_count: int,
    capacity_mb: float,
    data_blocks: Optional[int] = None,
) -> BlockCatalog:
    """Construct the :class:`BlockCatalog` realizing ``spec`` on a jukebox.

    By default the jukebox is filled to capacity (the paper's setting).
    ``data_blocks`` caps the logical data volume instead — the partially
    filled jukeboxes of the Section 4.8 lifecycle — leaving genuine
    spare slots beyond the replicas.
    """
    if tape_count <= 0:
        raise ValueError(f"tape_count must be positive, got {tape_count!r}")
    slots_per_tape = int(capacity_mb // spec.block_mb)
    if slots_per_tape == 0:
        raise ValueError(
            f"block size {spec.block_mb} MB exceeds tape capacity {capacity_mb} MB"
        )
    total_slots = tape_count * slots_per_tape
    n_logical, n_hot = logical_block_budget(
        total_slots, spec.replicas, spec.percent_hot
    )
    if data_blocks is not None:
        if data_blocks <= 0:
            raise ValueError(f"data_blocks must be positive, got {data_blocks!r}")
        if data_blocks < n_logical:
            n_logical = data_blocks
            n_hot = round(n_logical * spec.percent_hot / 100.0)
    if n_hot > 0 and spec.replicas + 1 > tape_count:
        raise ValueError(
            f"NR={spec.replicas} needs {spec.replicas + 1} tapes per hot block, "
            f"jukebox has {tape_count}"
        )

    builders = [_TapeBuilder(tape_id, slots_per_tape) for tape_id in range(tape_count)]
    if spec.layout is Layout.HORIZONTAL:
        _assign_horizontal(builders, spec, n_logical, n_hot)
    else:
        _assign_vertical(builders, spec, n_logical, n_hot, slots_per_tape)

    placements: List[List[Replica]] = [[] for _ in range(n_logical)]
    for builder in builders:
        builder.layout(spec.start_position, spec.block_mb, placements)
    return BlockCatalog(
        block_mb=spec.block_mb, n_hot=n_hot, replicas_by_block=placements
    )


def _assign_horizontal(
    builders: List[_TapeBuilder],
    spec: PlacementSpec,
    n_logical: int,
    n_hot: int,
) -> None:
    """Spread hot copies and cold blocks round-robin over all tapes."""
    tape_count = len(builders)
    for block_id in range(n_hot):
        for copy in range(spec.replicas + 1):
            tape_id = (block_id + copy) % tape_count
            builders[tape_id].hot_blocks.append(block_id)
    _assign_cold(builders, first_cold=n_hot, n_logical=n_logical, pack=spec.pack_cold)


def _assign_vertical(
    builders: List[_TapeBuilder],
    spec: PlacementSpec,
    n_logical: int,
    n_hot: int,
    slots_per_tape: int,
) -> None:
    """Dedicate leading tapes to hot primaries; replicas round-robin on the rest."""
    tape_count = len(builders)
    hot_tape_count = math.ceil(n_hot / slots_per_tape) if n_hot else 0
    replica_tapes = tape_count - hot_tape_count
    if n_hot and spec.replicas > replica_tapes:
        raise ValueError(
            f"vertical layout: NR={spec.replicas} replicas need {spec.replicas} "
            f"non-hot tapes, only {replica_tapes} available"
        )
    for block_id in range(n_hot):
        builders[block_id // slots_per_tape].hot_blocks.append(block_id)
    for block_id in range(n_hot):
        for copy in range(spec.replicas):
            tape_id = hot_tape_count + (block_id + copy) % replica_tapes
            builders[tape_id].hot_blocks.append(block_id)
    # Cold data prefers the non-hot tapes (the layout's point is to keep
    # the hot tape hot), but spills onto the hot tapes' spare slots when
    # replication leaves the non-hot tapes without enough room.
    cold_order = builders[hot_tape_count:] + builders[:hot_tape_count]
    _assign_cold(cold_order, first_cold=n_hot, n_logical=n_logical, pack=spec.pack_cold)


def _assign_cold(
    builders: List[_TapeBuilder],
    first_cold: int,
    n_logical: int,
    pack: bool,
) -> None:
    """Distribute cold blocks over ``builders`` (round-robin or packed)."""
    cold_ids = list(range(first_cold, n_logical))
    if pack:
        index = 0
        for builder in builders:
            take = min(builder.free, len(cold_ids) - index)
            builder.cold_blocks.extend(cold_ids[index : index + take])
            index += take
        if index != len(cold_ids):
            raise ValueError("cold data exceeds remaining capacity")
        return
    # Each tape's free slots, kept current as cold blocks land.
    free = [builder.free for builder in builders]
    tape_cursor = 0
    tape_count = len(builders)
    for block_id in cold_ids:
        for _attempt in range(tape_count):
            index = tape_cursor % tape_count
            tape_cursor += 1
            if free[index] > 0:
                free[index] -= 1
                builders[index].cold_blocks.append(block_id)
                break
        else:
            raise ValueError("cold data exceeds remaining capacity")
