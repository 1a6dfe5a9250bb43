"""Shared fixtures for scheduling tests: hand-built catalogs and requests."""

import pytest

from repro.core import PendingList, SchedulerContext
from repro.layout import BlockCatalog, Replica
from repro.tape import Jukebox
from repro.workload import RequestFactory

BLOCK_MB = 16.0


def catalog_from(placements, n_hot=0, block_mb=BLOCK_MB):
    """Build a catalog from ``[(tape_id, position), ...]`` per block."""
    return BlockCatalog(
        block_mb=block_mb,
        n_hot=n_hot,
        replicas_by_block=[
            [Replica(tape_id, position) for tape_id, position in block_placements]
            for block_placements in placements
        ],
    )


@pytest.fixture
def factory():
    return RequestFactory()


def make_context(catalog, tape_count=10, mounted=None, head_mb=0.0, timing=None):
    """A scheduler context over fresh hardware with optional mount state
    and, when given, a drive timing model other than the default."""
    jukebox = (
        Jukebox.build(tape_count=tape_count)
        if timing is None
        else Jukebox.build(tape_count=tape_count, timing=timing)
    )
    if mounted is not None:
        jukebox.switch_to(mounted)
        if head_mb:
            jukebox.drive.locate(head_mb)
    return SchedulerContext(
        jukebox=jukebox, catalog=catalog, pending=PendingList(catalog)
    )


@pytest.fixture
def figure2():
    """The paper's Figure 2 instance.

    Tape 0: C at 0, D-copy at 16 (right after C).
    Tape 1: A at 0, B at 16, D-copy at 6000 (near the end).
    Head at the beginning of tape 1.  Blocks: 0=A, 1=B, 2=C, 3=D.
    """
    catalog = catalog_from(
        [
            [(1, 0.0)],               # A
            [(1, 16.0)],              # B
            [(0, 0.0)],               # C
            [(0, 16.0), (1, 6000.0)], # D (replicated)
        ]
    )
    context = make_context(catalog, tape_count=2, mounted=1, head_mb=0.0)
    return catalog, context
