"""Unit tests for tape-selection policies."""

import pytest

from repro.core import (
    DynamicScheduler,
    MaxBandwidth,
    MaxRequests,
    OldestRequestMaxBandwidth,
    OldestRequestMaxRequests,
    POLICIES,
    PendingList,
    RoundRobin,
    SelectionContext,
    StaticScheduler,
    effective_bandwidth,
    jukebox_order,
)
from repro.core.cost import MB
from repro.tape import EXB_8505XL
from repro.workload import RequestFactory

from .conftest import catalog_from, make_context


def make_selection(candidates, positions=None, mounted=None, head=0.0, tapes=10, oldest=None):
    positions = positions or {}
    return SelectionContext(
        timing=EXB_8505XL,
        block_mb=16.0,
        tape_count=tapes,
        mounted_id=mounted,
        head_mb=head,
        candidates=candidates,
        positions_for=lambda tape_id: positions.get(tape_id, []),
        resolve_oldest=lambda: oldest,
    )


@pytest.fixture
def requests():
    factory = RequestFactory()
    return [factory.create(block_id=index, arrival_s=float(index)) for index in range(8)]


class TestJukeboxOrder:
    def test_wraps_circularly(self):
        assert jukebox_order(4, 2) == [2, 3, 0, 1]
        assert jukebox_order(4, 0) == [0, 1, 2, 3]
        assert jukebox_order(4, 5) == [1, 2, 3, 0]

    def test_empty(self):
        assert jukebox_order(0, 3) == []


class TestRoundRobin:
    def test_picks_next_tape_after_mounted(self, requests):
        selection = make_selection(
            {1: [requests[0]], 5: [requests[1]]}, mounted=3
        )
        assert RoundRobin().select(selection) == 5

    def test_wraps_past_end(self, requests):
        selection = make_selection({1: [requests[0]]}, mounted=7)
        assert RoundRobin().select(selection) == 1

    def test_skips_mounted_tape_until_last(self, requests):
        # Only the mounted tape has requests: round robin still reaches it
        # after scanning the full circle.
        selection = make_selection({3: [requests[0]]}, mounted=3)
        assert RoundRobin().select(selection) == 3

    def test_no_candidates(self):
        assert RoundRobin().select(make_selection({})) is None


class TestMaxRequests:
    def test_picks_largest_set(self, requests):
        selection = make_selection(
            {0: requests[:2], 4: requests[2:6], 9: requests[6:7]}, mounted=0
        )
        assert MaxRequests().select(selection) == 4

    def test_tie_prefers_mounted(self, requests):
        selection = make_selection(
            {2: requests[:2], 6: requests[2:4]}, mounted=6
        )
        assert MaxRequests().select(selection) == 6

    def test_tie_prefers_first_after_mounted(self, requests):
        selection = make_selection(
            {2: requests[:2], 6: requests[2:4]}, mounted=7
        )
        assert MaxRequests().select(selection) == 2

    def test_no_candidates(self):
        assert MaxRequests().select(make_selection({})) is None


class TestMaxBandwidth:
    def test_prefers_mounted_tape_when_schedules_equal(self, requests):
        """Same positions on both tapes: the mounted one avoids the switch."""
        selection = make_selection(
            {0: requests[:2], 5: requests[2:4]},
            positions={0: [0.0, 16.0], 5: [0.0, 16.0]},
            mounted=0,
        )
        assert MaxBandwidth().select(selection) == 0

    def test_prefers_denser_schedule(self, requests):
        """Many clustered blocks beat a single distant block even with a
        switch in the way."""
        cluster = [index * 16.0 for index in range(8)]
        selection = make_selection(
            {0: requests[:1], 5: requests[:8]},
            positions={0: [6000.0], 5: cluster},
            mounted=0,
        )
        assert MaxBandwidth().select(selection) == 5

    def test_no_candidates(self):
        assert MaxBandwidth().select(make_selection({})) is None

    def test_duplicate_requests_are_charged_as_extra_reads(self):
        """Pins today's estimate: one position per request, not per block.

        Tape 0 holds one block that two requests want; tape 1 holds two
        distinct blocks.  The pending list reports tape 0's block twice,
        so the estimate charges two blocks (the second a plain read with
        no locate) although the drive reads it once.  Charged that way
        tape 0 wins; coalesced, tape 1 would.  Changing this moves
        scheduling decisions, so it is an open question, not a fix.
        """
        catalog = catalog_from([[(0, 100.0)], [(1, 100.0)], [(1, 200.0)]])
        pending = PendingList(catalog)
        factory = RequestFactory()
        for block_id in (0, 0, 1, 2):
            pending.append(factory.create(block_id=block_id, arrival_s=0.0))
        assert pending.positions_on(0) == [100.0, 100.0]
        selection = SelectionContext(
            timing=EXB_8505XL,
            block_mb=16.0,
            tape_count=2,
            mounted_id=None,
            head_mb=0.0,
            candidates=pending.candidate_tapes(),
            positions_for=pending.positions_on,
            resolve_oldest=pending.oldest,
        )
        assert MaxBandwidth().select(selection) == 0
        charged = effective_bandwidth(EXB_8505XL, [100.0, 100.0], 16.0, False, 0.0)
        coalesced = effective_bandwidth(EXB_8505XL, [100.0], 16.0, False, 0.0)
        distinct = effective_bandwidth(EXB_8505XL, [100.0, 200.0], 16.0, False, 0.0)
        assert charged == 2 * 16.0 * MB / (
            EXB_8505XL.switch_with_rewind(0.0)
            + (
                EXB_8505XL.locate_forward(100.0)
                + (EXB_8505XL.read(16.0) + EXB_8505XL.read(16.0, startup=False))
            )
        )
        assert coalesced < distinct < charged


class TestOldestRequestPolicies:
    def test_restricts_to_tapes_with_oldest(self, requests):
        oldest = requests[0]
        selection = make_selection(
            {1: [oldest, requests[1]], 4: requests[2:8]},
            positions={1: [0.0, 16.0], 4: [index * 16.0 for index in range(6)]},
            oldest=oldest,
        )
        # Tape 4 has more requests and bandwidth, but cannot satisfy the
        # oldest request, so both oldest-first policies pick tape 1.
        assert OldestRequestMaxRequests().select(selection) == 1
        assert OldestRequestMaxBandwidth().select(selection) == 1

    def test_oldest_on_multiple_tapes_breaks_by_inner_policy(self, requests):
        oldest = requests[0]
        selection = make_selection(
            {1: [oldest], 4: [oldest] + requests[1:4]},
            positions={1: [0.0], 4: [index * 16.0 for index in range(4)]},
            oldest=oldest,
        )
        assert OldestRequestMaxRequests().select(selection) == 4

    def test_without_oldest_falls_back(self, requests):
        selection = make_selection({2: requests[:3]}, oldest=None)
        assert OldestRequestMaxRequests().select(selection) == 2


class TestRegistryOfPolicies:
    def test_all_five_policies_registered(self):
        assert set(POLICIES) == {
            "round-robin",
            "max-requests",
            "max-bandwidth",
            "oldest-max-requests",
            "oldest-max-bandwidth",
        }


class _CountingPending(PendingList):
    """A pending list that counts :meth:`oldest` calls."""

    def __init__(self, catalog):
        super().__init__(catalog)
        self.oldest_calls = 0

    def oldest(self):
        self.oldest_calls += 1
        return super().oldest()


class TestOldestIsLazy:
    @pytest.mark.parametrize("family", [StaticScheduler, DynamicScheduler])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_only_oldest_policies_resolve_the_oldest_request(self, family, name):
        catalog = catalog_from([[(0, 0.0)], [(1, 16.0)], [(0, 32.0), (2, 0.0)]])
        context = make_context(catalog, tape_count=3, mounted=1)
        pending = context.pending = _CountingPending(catalog)
        factory = RequestFactory()
        for block_id in (2, 0, 1, 2):
            pending.append(factory.create(block_id=block_id, arrival_s=0.0))
        decision = family(POLICIES[name]).major_reschedule(context)
        assert decision is not None
        if name.startswith("oldest-"):
            assert pending.oldest_calls >= 1
        else:
            assert pending.oldest_calls == 0
