"""The catalog build and check against frozen copies.

``frozen_build_catalog`` (with the builder helpers it calls),
``FrozenCatalog.__init__`` and ``frozen_validate_catalog`` are verbatim
copies of the code before the build stopped re-deriving free slots per
cold block and the check stopped re-sorting each tape's extents.  On
generated placement specs both builds must give equal catalogs; on
generated corruptions of a valid catalog both constructors and both
checks must raise the same exception type with the same message.
"""

import math
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.layout import (
    BlockCatalog,
    Layout,
    LayoutError,
    PlacementSpec,
    Replica,
    build_catalog,
    validate_catalog,
)
from repro.layout.placement import logical_block_budget


# ----------------------------------------------------------------------
# Frozen copies.


class FrozenCatalog(BlockCatalog):
    """``BlockCatalog`` with the three-pass constructor."""

    def __init__(self, block_mb, n_hot, replicas_by_block):
        if block_mb <= 0:
            raise ValueError(f"block_mb must be positive, got {block_mb!r}")
        if n_hot < 0 or n_hot > len(replicas_by_block):
            raise ValueError(
                f"n_hot={n_hot} outside [0, {len(replicas_by_block)}]"
            )
        self._block_mb = float(block_mb)
        self._n_hot = n_hot
        self._replicas = tuple(
            tuple(sorted(replica_list)) for replica_list in replicas_by_block
        )
        on_tape = []
        for block_id, replica_list in enumerate(self._replicas):
            if not replica_list:
                raise ValueError(f"logical block {block_id} has no replicas")
            copies = {replica.tape_id: replica for replica in replica_list}
            if len(copies) != len(replica_list):
                raise ValueError(
                    f"logical block {block_id} has multiple copies on one tape"
                )
            on_tape.append(copies)
        self._on_tape = tuple(on_tape)
        by_tape = {}
        for block_id, replica_list in enumerate(self._replicas):
            for replica in replica_list:
                by_tape.setdefault(replica.tape_id, []).append(
                    (replica.position_mb, block_id)
                )
        self._by_tape = {
            tape_id: tuple(sorted(entries)) for tape_id, entries in by_tape.items()
        }


class _FrozenTapeBuilder:
    def __init__(self, tape_id: int, slot_capacity: int) -> None:
        self.tape_id = tape_id
        self.slot_capacity = slot_capacity
        self.hot_blocks: List[int] = []
        self.cold_blocks: List[int] = []

    @property
    def used(self) -> int:
        return len(self.hot_blocks) + len(self.cold_blocks)

    @property
    def free(self) -> int:
        return self.slot_capacity - self.used

    def layout(self, start_position: float, block_mb: float) -> Dict[int, Replica]:
        used = self.used
        if used > self.slot_capacity:
            raise ValueError(
                f"tape {self.tape_id} over capacity: {used} > {self.slot_capacity}"
            )
        hot_run = sorted(self.hot_blocks)
        cold_run = sorted(self.cold_blocks)
        hot_start = round(start_position * (used - len(hot_run)))
        placements: Dict[int, Replica] = {}
        slot = 0
        cold_index = 0
        while slot < hot_start:
            block_id = cold_run[cold_index]
            placements[block_id] = Replica(self.tape_id, slot * block_mb)
            cold_index += 1
            slot += 1
        for block_id in hot_run:
            placements[block_id] = Replica(self.tape_id, slot * block_mb)
            slot += 1
        while cold_index < len(cold_run):
            block_id = cold_run[cold_index]
            placements[block_id] = Replica(self.tape_id, slot * block_mb)
            cold_index += 1
            slot += 1
        return placements


def frozen_build_catalog(
    spec: PlacementSpec,
    tape_count: int,
    capacity_mb: float,
    data_blocks: Optional[int] = None,
) -> BlockCatalog:
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

    builders = [
        _FrozenTapeBuilder(tape_id, slots_per_tape) for tape_id in range(tape_count)
    ]
    if spec.layout is Layout.HORIZONTAL:
        _frozen_assign_horizontal(builders, spec, n_logical, n_hot)
    else:
        _frozen_assign_vertical(builders, spec, n_logical, n_hot, slots_per_tape)

    placements: Dict[int, List[Replica]] = {block_id: [] for block_id in range(n_logical)}
    for builder in builders:
        for block_id, replica in builder.layout(spec.start_position, spec.block_mb).items():
            placements[block_id].append(replica)
    return FrozenCatalog(
        block_mb=spec.block_mb,
        n_hot=n_hot,
        replicas_by_block=[placements[block_id] for block_id in range(n_logical)],
    )


def _frozen_assign_horizontal(builders, spec, n_logical, n_hot):
    tape_count = len(builders)
    for block_id in range(n_hot):
        for copy in range(spec.replicas + 1):
            tape_id = (block_id + copy) % tape_count
            builders[tape_id].hot_blocks.append(block_id)
    _frozen_assign_cold(
        builders, first_cold=n_hot, n_logical=n_logical, pack=spec.pack_cold
    )


def _frozen_assign_vertical(builders, spec, n_logical, n_hot, slots_per_tape):
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
    cold_order = builders[hot_tape_count:] + builders[:hot_tape_count]
    _frozen_assign_cold(
        cold_order, first_cold=n_hot, n_logical=n_logical, pack=spec.pack_cold
    )


def _frozen_assign_cold(builders, first_cold, n_logical, pack):
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
    tape_cursor = 0
    tape_count = len(builders)
    for block_id in cold_ids:
        for _attempt in range(tape_count):
            builder = builders[tape_cursor % tape_count]
            tape_cursor += 1
            if builder.free > 0:
                builder.cold_blocks.append(block_id)
                break
        else:
            raise ValueError("cold data exceeds remaining capacity")


def frozen_validate_catalog(catalog, tape_count, capacity_mb, expected_replicas):
    for block_id in range(catalog.n_blocks):
        degree = catalog.replication_degree(block_id)
        expected = 1 + expected_replicas if catalog.is_hot(block_id) else 1
        if degree != expected:
            kind = "hot" if catalog.is_hot(block_id) else "cold"
            raise LayoutError(
                f"{kind} block {block_id} has {degree} copies, expected {expected}"
            )
        tapes = [replica.tape_id for replica in catalog.replicas_of(block_id)]
        if len(set(tapes)) != len(tapes):
            raise LayoutError(f"block {block_id} has two copies on one tape")
        for replica in catalog.replicas_of(block_id):
            if not 0 <= replica.tape_id < tape_count:
                raise LayoutError(
                    f"block {block_id} placed on nonexistent tape {replica.tape_id}"
                )

    for tape_id in range(tape_count):
        extents = [
            (position, position + catalog.block_mb)
            for position, _block in catalog.tape_contents(tape_id)
        ]
        extents.sort()
        for (start, end) in extents:
            if start < 0 or end > capacity_mb:
                raise LayoutError(
                    f"tape {tape_id}: extent [{start}, {end}) outside capacity "
                    f"{capacity_mb} MB"
                )
        for (_s1, e1), (s2, _e2) in zip(extents, extents[1:]):
            if s2 < e1:
                raise LayoutError(f"tape {tape_id}: overlapping extents at {s2} MB")


# ----------------------------------------------------------------------
# Helpers.


class RawCatalog:
    """The queries the checks make, over replica lists that skipped the
    constructor's structural checks (so two copies on one tape reach
    the check).  Per-tape contents are sorted, as a catalog's are."""

    def __init__(self, block_mb, n_hot, replicas_by_block):
        self.block_mb = float(block_mb)
        self.n_hot = n_hot
        self._replicas = [tuple(sorted(each)) for each in replicas_by_block]
        by_tape: Dict[int, list] = {}
        for block_id, replicas in enumerate(self._replicas):
            for replica in replicas:
                by_tape.setdefault(replica.tape_id, []).append(
                    (replica.position_mb, block_id)
                )
        self._by_tape = {tape: tuple(sorted(rows)) for tape, rows in by_tape.items()}

    @property
    def n_blocks(self):
        return len(self._replicas)

    def is_hot(self, block_id):
        return 0 <= block_id < self.n_hot

    def replicas_of(self, block_id):
        return self._replicas[block_id]

    def replication_degree(self, block_id):
        return len(self._replicas[block_id])

    def tape_contents(self, tape_id):
        return self._by_tape.get(tape_id, ())


def outcome(call):
    """``("ok", value)`` or the raised exception's type and message."""
    try:
        return "ok", call()
    except Exception as error:  # noqa: BLE001 - the type is compared
        return type(error), str(error)


def raised(result):
    """An outcome without the returned value."""
    return result[:1] if result[0] == "ok" else result


def assert_same_catalog(frozen: BlockCatalog, live: BlockCatalog, tape_count: int):
    assert type(live) is BlockCatalog
    assert live.n_hot == frozen.n_hot
    assert live.n_blocks == frozen.n_blocks
    assert live.block_mb == frozen.block_mb
    for block_id in range(frozen.n_blocks):
        assert live.replicas_of(block_id) == frozen.replicas_of(block_id)
        for replica in frozen.replicas_of(block_id):
            assert live.replica_on(block_id, replica.tape_id) == replica
    assert list(live.tape_ids) == list(frozen.tape_ids)
    for tape_id in range(tape_count + 1):
        assert live.tape_contents(tape_id) == frozen.tape_contents(tape_id)


BLOCK_MB = 16.0
TAPES = 10

specs = st.builds(
    PlacementSpec,
    layout=st.sampled_from(list(Layout)),
    percent_hot=st.one_of(
        st.sampled_from([0.0, 5.0, 10.0, 25.0, 50.0, 100.0]),
        st.floats(0.0, 100.0),
    ),
    replicas=st.integers(0, 9),
    start_position=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
    block_mb=st.just(BLOCK_MB),
    pack_cold=st.booleans(),
)


@st.composite
def jukeboxes(draw):
    """``(spec, tape_count, capacity_mb, data_blocks)``, small enough to
    build quickly; capacities need not be whole blocks."""
    spec = draw(specs)
    tape_count = draw(st.integers(1, 12))
    capacity_mb = draw(st.integers(1, 24)) * BLOCK_MB + draw(
        st.sampled_from([0.0, 5.0, 15.5])
    )
    data_blocks = draw(st.one_of(st.none(), st.integers(1, 300)))
    return spec, tape_count, capacity_mb, data_blocks


# ----------------------------------------------------------------------
# Builds.


@settings(max_examples=300, deadline=None)
@given(jukeboxes())
def test_build_matches_frozen(jukebox):
    spec, tape_count, capacity_mb, data_blocks = jukebox
    frozen = outcome(
        lambda: frozen_build_catalog(spec, tape_count, capacity_mb, data_blocks)
    )
    live = outcome(lambda: build_catalog(spec, tape_count, capacity_mb, data_blocks))
    if frozen[0] != "ok":
        assert live == frozen
        return
    assert live[0] == "ok", live
    assert_same_catalog(frozen[1], live[1], tape_count)
    assert outcome(
        lambda: validate_catalog(live[1], tape_count, capacity_mb, spec.replicas)
    ) == outcome(
        lambda: frozen_validate_catalog(
            frozen[1], tape_count, capacity_mb, spec.replicas
        )
    )


@pytest.mark.parametrize(
    "spec",
    [
        PlacementSpec(),
        PlacementSpec(replicas=2),
        PlacementSpec(layout=Layout.VERTICAL, replicas=9, start_position=1.0),
        PlacementSpec(layout=Layout.VERTICAL, replicas=3, pack_cold=True),
    ],
    ids=["paper-base", "horizontal-nr2", "vertical-nr9-sp1", "vertical-nr3-packed"],
)
def test_paper_jukebox_matches_frozen(spec):
    capacity_mb = 7.0 * 1024
    frozen = frozen_build_catalog(spec, 10, capacity_mb)
    live = build_catalog(spec, 10, capacity_mb)
    assert_same_catalog(frozen, live, 10)
    validate_catalog(live, 10, capacity_mb, spec.replicas)


# ----------------------------------------------------------------------
# Corruptions.

CORRUPTIONS = (
    "hot_degree",
    "cold_degree",
    "same_tape",
    "tape_range",
    "overlap",
    "below_zero",
    "past_capacity",
    "expected_replicas",
)


@st.composite
def corrupted(draw):
    """A valid catalog's replica lists with one invariant broken.

    Returns ``(kind, n_hot, replicas_by_block, tape_count, capacity_mb,
    expected_replicas)``.
    """
    kind = draw(st.sampled_from(CORRUPTIONS))
    spec = draw(specs)
    tape_count = draw(st.integers(spec.replicas + 1, 12))
    capacity_mb = draw(st.integers(2, 24)) * BLOCK_MB + draw(
        st.sampled_from([0.0, 5.0])
    )
    catalog = outcome(lambda: frozen_build_catalog(spec, tape_count, capacity_mb))
    if catalog[0] != "ok":
        catalog = ("ok", frozen_build_catalog(PlacementSpec(), tape_count, capacity_mb))
        spec = PlacementSpec()
    catalog = catalog[1]
    blocks = [list(catalog.replicas_of(b)) for b in range(catalog.n_blocks)]
    n_hot = catalog.n_hot
    expected = spec.replicas
    fraction = draw(st.floats(0.01, 0.99))

    def pick(ids):
        ids = list(ids)
        if not ids:
            return None
        return ids[draw(st.integers(0, len(ids) - 1))]

    def spare_tape(block_id):
        held = {replica.tape_id for replica in blocks[block_id]}
        return pick(t for t in range(tape_count) if t not in held)

    if kind in ("hot_degree", "cold_degree"):
        ids = range(n_hot) if kind == "hot_degree" else range(n_hot, len(blocks))
        block_id = pick(ids)
        if block_id is None:
            kind, expected = "expected_replicas", expected + 1
        elif len(blocks[block_id]) > 1 and draw(st.booleans()):
            blocks[block_id].pop(draw(st.integers(0, len(blocks[block_id]) - 1)))
        else:
            tape = spare_tape(block_id)
            if tape is None:
                blocks[block_id].pop()
            else:
                blocks[block_id].append(Replica(tape, 0.0))
    elif kind == "same_tape":
        block_id = pick(b for b in range(len(blocks)) if len(blocks[b]) > 1)
        if block_id is None:
            # Only single copies: a duplicate changes the degree too.
            block_id = pick(range(len(blocks)))
            first = blocks[block_id][0]
            blocks[block_id].append(Replica(first.tape_id, first.position_mb + 1.0))
        else:
            first, second = blocks[block_id][:2]
            blocks[block_id][1] = Replica(first.tape_id, second.position_mb)
    elif kind == "tape_range":
        block_id = pick(range(len(blocks)))
        index = draw(st.integers(0, len(blocks[block_id]) - 1))
        tape = draw(
            st.one_of(
                st.integers(tape_count, tape_count + 3), st.integers(-3, -1)
            )
        )
        blocks[block_id][index] = Replica(tape, blocks[block_id][index].position_mb)
    elif kind == "overlap":
        crowded = [t for t in range(tape_count) if len(catalog.tape_contents(t)) > 1]
        tape = pick(crowded)
        if tape is None:
            kind, expected = "expected_replicas", expected + 1
        else:
            contents = catalog.tape_contents(tape)
            index = draw(st.integers(1, len(contents) - 1))
            before, (_position, block_id) = contents[index - 1], contents[index]
            moved = Replica(tape, before[0] + fraction * BLOCK_MB)
            blocks[block_id] = [
                moved if replica.tape_id == tape else replica
                for replica in blocks[block_id]
            ]
    elif kind in ("below_zero", "past_capacity"):
        block_id = pick(range(len(blocks)))
        index = draw(st.integers(0, len(blocks[block_id]) - 1))
        if kind == "below_zero":
            position = -fraction * draw(st.sampled_from([BLOCK_MB, 3 * BLOCK_MB]))
        else:
            position = capacity_mb - BLOCK_MB + fraction * BLOCK_MB
        blocks[block_id][index] = Replica(blocks[block_id][index].tape_id, position)
    if kind == "expected_replicas":
        expected = draw(st.sampled_from([expected + 1, max(expected - 1, 0) - 1]))
        if n_hot == 0:
            # Every block is cold: only a degree change can break the count.
            blocks[0] = blocks[0] * 2
    return kind, n_hot, blocks, tape_count, capacity_mb, expected


@settings(max_examples=400, deadline=None)
@given(corrupted())
def test_corruptions_raise_as_frozen(case):
    kind, n_hot, blocks, tape_count, capacity_mb, expected = case
    frozen = outcome(lambda: FrozenCatalog(BLOCK_MB, n_hot, blocks))
    live = outcome(lambda: BlockCatalog(BLOCK_MB, n_hot, blocks))
    assert raised(live) == raised(frozen)
    if frozen[0] == "ok":
        assert_same_catalog(frozen[1], live[1], tape_count)
        assert outcome(
            lambda: validate_catalog(live[1], tape_count, capacity_mb, expected)
        ) == outcome(
            lambda: frozen_validate_catalog(frozen[1], tape_count, capacity_mb, expected)
        )
    raw = RawCatalog(BLOCK_MB, n_hot, blocks)
    checked = outcome(
        lambda: frozen_validate_catalog(raw, tape_count, capacity_mb, expected)
    )
    # Every corruption breaks an invariant the check reports.
    assert checked[0] is LayoutError, (kind, checked)
    assert outcome(
        lambda: validate_catalog(raw, tape_count, capacity_mb, expected)
    ) == checked
