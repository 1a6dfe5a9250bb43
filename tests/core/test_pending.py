"""Unit tests for the pending list."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PendingList
from repro.faults import FaultConfig, FaultInjector, FaultMaskedCatalog
from repro.service.multidrive import ClaimFilteredPending
from repro.workload import RequestFactory

from .conftest import catalog_from


@pytest.fixture
def catalog():
    # Block 0 on tapes 0+1 (replicated), block 1 on tape 0, block 2 on tape 2.
    return catalog_from([[(0, 0.0), (1, 16.0)], [(0, 16.0)], [(2, 0.0)]])


@pytest.fixture
def pending(catalog):
    return PendingList(catalog)


class TestPendingList:
    def test_starts_empty(self, pending):
        assert len(pending) == 0
        assert pending.oldest() is None

    def test_append_preserves_arrival_order(self, pending, factory):
        first = factory.create(block_id=1, arrival_s=0.0)
        second = factory.create(block_id=2, arrival_s=1.0)
        pending.append(first)
        pending.append(second)
        assert pending.oldest() is first
        assert pending.snapshot() == [first, second]

    def test_duplicate_append_rejected(self, pending, factory):
        request = factory.create(block_id=0, arrival_s=0.0)
        pending.append(request)
        with pytest.raises(ValueError):
            pending.append(request)

    def test_contains(self, pending, factory):
        request = factory.create(block_id=0, arrival_s=0.0)
        assert request not in pending
        pending.append(request)
        assert request in pending

    def test_requests_for_tape_uses_replicas(self, pending, factory):
        replicated = factory.create(block_id=0, arrival_s=0.0)
        tape0_only = factory.create(block_id=1, arrival_s=1.0)
        tape2_only = factory.create(block_id=2, arrival_s=2.0)
        for request in (replicated, tape0_only, tape2_only):
            pending.append(request)
        assert pending.requests_for_tape(0) == [replicated, tape0_only]
        assert pending.requests_for_tape(1) == [replicated]
        assert pending.requests_for_tape(2) == [tape2_only]
        assert pending.requests_for_tape(5) == []

    def test_candidate_tapes_maps_all_replicas(self, pending, factory):
        replicated = factory.create(block_id=0, arrival_s=0.0)
        pending.append(replicated)
        candidates = pending.candidate_tapes()
        assert set(candidates) == {0, 1}
        assert candidates[0] == [replicated]
        assert candidates[1] == [replicated]

    def test_remove_many(self, pending, factory):
        requests = [factory.create(block_id=index % 3, arrival_s=index) for index in range(4)]
        for request in requests:
            pending.append(request)
        pending.remove_many(requests[1:3])
        assert pending.snapshot() == [requests[0], requests[3]]

    def test_remove_missing_raises(self, pending, factory):
        ghost = factory.create(block_id=0, arrival_s=0.0)
        with pytest.raises(KeyError):
            pending.remove_many([ghost])

    def test_iteration(self, pending, factory):
        requests = [factory.create(block_id=0, arrival_s=index) for index in range(3)]
        # Same block requested three times is fine: distinct requests.
        for request in requests:
            pending.append(request)
        assert list(pending) == requests


# ----------------------------------------------------------------------
# Twin property test: the mask-pruned index against a live rescan.
# ----------------------------------------------------------------------


def _reference(view, masked, claims, drive_index):
    """The pre-index answers, rescanned from the live masked catalog.

    Every by-tape answer is the arrival-ordered list of pending requests
    whose block still has an unmasked copy on that tape (and, behind the
    multi-drive claim filter, whose tape this drive may see); ``lost`` is
    every pending request with no unmasked copy anywhere.
    """
    candidates = {}
    positions = {}
    lost = []
    for request in view.snapshot():
        replicas = masked.replicas_of(request.block_id)
        if not replicas:
            lost.append(request.request_id)
        for replica in replicas:
            owner = claims.get(replica.tape_id) if claims is not None else None
            if owner is not None and owner != drive_index:
                continue
            candidates.setdefault(replica.tape_id, []).append(request.request_id)
            positions.setdefault(replica.tape_id, []).append(
                masked.replica_on(request.block_id, replica.tape_id).position_mb
            )
    return candidates, positions, lost


@st.composite
def _catalogs(draw):
    tape_count = draw(st.integers(min_value=2, max_value=4))
    blocks = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        tapes = draw(
            st.lists(
                st.integers(min_value=0, max_value=tape_count - 1),
                min_size=1,
                max_size=tape_count,
                unique=True,
            )
        )
        blocks.append(
            [(tape_id, draw(st.integers(0, 50)) * 16.0) for tape_id in tapes]
        )
    return tape_count, catalog_from(blocks)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["append", "append", "append", "reappend", "remove"]
            + ["fail", "condemn", "claim"]
        ),
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(_catalogs(), _OPS, st.booleans())
def test_mask_pruned_index_matches_live_rescan(catalog_spec, ops, claim_filtered):
    tape_count, catalog = catalog_spec
    injector = FaultInjector(FaultConfig(), catalog)
    masked = FaultMaskedCatalog(
        catalog, injector.failed_tapes, injector.known_bad, notifier=injector
    )
    pending = PendingList(masked)
    claims = {} if claim_filtered else None
    view = ClaimFilteredPending(pending, claims, 0) if claim_filtered else pending
    factory = RequestFactory()
    removed = []
    for op, first, second in ops:
        live = pending.snapshot()
        if op == "append":
            block_id = first % catalog.n_blocks
            arrival_s = float(factory.next_id)
            view.append(factory.create(block_id=block_id, arrival_s=arrival_s))
        elif op == "reappend" and removed:
            # Fault requeues and failovers put a request back at the tail.
            view.append(removed.pop(first % len(removed)))
        elif op == "remove" and live:
            chosen = [
                request
                for index, request in enumerate(live)
                if (first >> (index % 10)) & 1
            ]
            view.remove_many(chosen)
            removed.extend(chosen)
        elif op == "fail":
            injector.fail_tape(first % tape_count)
        elif op == "condemn":
            injector.condemn_replica(first % tape_count, second % catalog.n_blocks)
        elif op == "claim" and claims is not None:
            tape_id = first % tape_count
            owner = second % 3
            if owner == 2:
                claims.pop(tape_id, None)
            else:
                claims[tape_id] = owner

        candidates, positions, lost = _reference(view, masked, claims, 0)
        got = {
            tape_id: [request.request_id for request in requests]
            for tape_id, requests in view.candidate_tapes().items()
        }
        assert got == candidates
        for tape_id in range(tape_count + 1):
            assert [
                request.request_id for request in view.requests_for_tape(tape_id)
            ] == candidates.get(tape_id, [])
            assert view.positions_on(tape_id) == positions.get(tape_id, [])
        assert [request.request_id for request in view.lost()] == lost
        assert lost == [
            request.request_id
            for request in pending.snapshot()
            if injector.block_lost(request.block_id)
        ]


def test_dynamic_catalog_without_notifier_is_rejected(catalog):
    with pytest.raises(TypeError, match="notifier"):
        PendingList(FaultMaskedCatalog(catalog, set()))
