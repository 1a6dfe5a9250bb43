"""Unit tests for the block catalog."""

import pytest

from repro.layout import BlockCatalog, Layout, PlacementSpec, Replica, build_catalog


def make_catalog():
    """3 blocks: block 0 hot with 2 copies, blocks 1-2 cold singletons."""
    return BlockCatalog(
        block_mb=16.0,
        n_hot=1,
        replicas_by_block=[
            [Replica(0, 0.0), Replica(1, 32.0)],
            [Replica(0, 16.0)],
            [Replica(1, 0.0)],
        ],
    )


class TestConstruction:
    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            BlockCatalog(block_mb=0, n_hot=0, replicas_by_block=[])

    def test_n_hot_out_of_range(self):
        with pytest.raises(ValueError):
            BlockCatalog(block_mb=1, n_hot=2, replicas_by_block=[[Replica(0, 0.0)]])

    def test_block_without_replicas_rejected(self):
        with pytest.raises(ValueError):
            BlockCatalog(block_mb=1, n_hot=0, replicas_by_block=[[]])

    def test_two_copies_on_one_tape_rejected(self):
        with pytest.raises(ValueError):
            BlockCatalog(
                block_mb=1,
                n_hot=0,
                replicas_by_block=[[Replica(0, 0.0), Replica(0, 5.0)]],
            )


class TestQueries:
    def test_counts(self):
        catalog = make_catalog()
        assert catalog.n_blocks == 3
        assert catalog.n_hot == 1
        assert catalog.n_cold == 2
        assert catalog.total_copies() == 4

    def test_hotness(self):
        catalog = make_catalog()
        assert catalog.is_hot(0)
        assert not catalog.is_hot(1)
        assert not catalog.is_hot(2)

    def test_replicas_sorted(self):
        catalog = make_catalog()
        replicas = catalog.replicas_of(0)
        assert [replica.tape_id for replica in replicas] == [0, 1]

    def test_replica_on(self):
        catalog = make_catalog()
        assert catalog.replica_on(0, 1) == Replica(1, 32.0)
        with pytest.raises(KeyError):
            catalog.replica_on(1, 1)

    def test_has_replica_on(self):
        catalog = make_catalog()
        assert catalog.has_replica_on(0, 0)
        assert catalog.has_replica_on(0, 1)
        assert not catalog.has_replica_on(2, 0)

    def test_replication_degree(self):
        catalog = make_catalog()
        assert catalog.replication_degree(0) == 2
        assert catalog.replication_degree(1) == 1

    def test_tape_contents_sorted_by_position(self):
        catalog = make_catalog()
        assert catalog.tape_contents(0) == ((0.0, 0), (16.0, 1))
        assert catalog.tape_contents(1) == ((0.0, 2), (32.0, 0))
        assert catalog.tape_contents(7) == ()

    def test_blocks_on_tape(self):
        catalog = make_catalog()
        assert catalog.blocks_on_tape(1) == [2, 0]

    def test_as_mapping(self):
        catalog = make_catalog()
        mapping = catalog.as_mapping()
        assert set(mapping) == {0, 1, 2}
        assert mapping[2] == (Replica(1, 0.0),)


@pytest.mark.parametrize(
    "spec",
    [
        PlacementSpec(layout=Layout.HORIZONTAL),
        PlacementSpec(layout=Layout.VERTICAL, replicas=2, start_position=0.5),
        PlacementSpec(layout=Layout.HORIZONTAL, replicas=3, percent_hot=40.0),
    ],
    ids=["horizontal", "vertical-nr2", "replicated-nr3"],
)
def test_tape_lookups_agree_with_a_replica_scan(spec):
    catalog = build_catalog(spec, 4, 480.0)
    tape_ids = list(catalog.tape_ids) + [99]
    for block_id in range(catalog.n_blocks):
        by_scan = {
            replica.tape_id: replica for replica in catalog.replicas_of(block_id)
        }
        for tape_id in tape_ids:
            assert catalog.has_replica_on(block_id, tape_id) == (tape_id in by_scan)
            if tape_id in by_scan:
                assert catalog.replica_on(block_id, tape_id) is by_scan[tape_id]
            else:
                with pytest.raises(KeyError) as raised:
                    catalog.replica_on(block_id, tape_id)
                assert raised.value.args == (
                    f"block {block_id} has no copy on tape {tape_id}",
                )
