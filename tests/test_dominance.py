"""Unit tests for the dominance tables (HT≺ / HT≻)."""

import pytest

from repro.core.dominance import DominanceTables


def entry(key, vertices, cost=0.0, prefix=0.0, tiebreak=0):
    return (key, tiebreak, vertices, cost, None, prefix)


class TestRegistration:
    def test_first_witness_becomes_dominator(self):
        t = DominanceTables()
        assert t.try_register(5, 3, (0, 1, 5))
        assert t.dominator(5, 3) == (0, 1, 5)

    def test_second_witness_rejected(self):
        t = DominanceTables()
        t.try_register(5, 3, (0, 1, 5))
        assert not t.try_register(5, 3, (0, 2, 5))
        assert t.dominator(5, 3) == (0, 1, 5)

    def test_sizes_are_independent(self):
        t = DominanceTables()
        assert t.try_register(5, 3, (0, 1, 5))
        assert t.try_register(5, 4, (0, 1, 2, 5))

    def test_vertices_are_independent(self):
        t = DominanceTables()
        assert t.try_register(5, 3, (0, 1, 5))
        assert t.try_register(6, 3, (0, 1, 6))


class TestParking:
    def test_park_counts(self):
        t = DominanceTables()
        t.park(5, 3, entry(10.0, (0, 2, 5)))
        t.park(5, 3, entry(8.0, (0, 3, 5), tiebreak=1))
        assert t.parked_count(5, 3) == 2

    def test_release_pops_cheapest(self):
        t = DominanceTables()
        t.try_register(5, 3, (0, 1, 5))
        t.park(5, 3, entry(10.0, (0, 2, 5)))
        t.park(5, 3, entry(8.0, (0, 3, 5), tiebreak=1))
        released = t.release_for_result((0, 1, 5, 9, 7))
        assert len(released) == 1
        assert released[0][0] == 8.0
        assert t.parked_count(5, 3) == 1
        # dominator slot is cleared: next arrival takes over
        assert t.dominator(5, 3) is None
        assert t.try_register(5, 3, (0, 3, 5))

    def test_release_requires_prefix_match(self):
        t = DominanceTables()
        t.try_register(5, 3, (0, 2, 5))  # NOT the completed route's prefix
        t.park(5, 3, entry(8.0, (0, 3, 5)))
        released = t.release_for_result((0, 1, 5, 9, 7))
        assert released == []
        assert t.dominator(5, 3) == (0, 2, 5)

    def test_release_with_empty_heap_still_clears_dominator(self):
        t = DominanceTables()
        t.try_register(5, 3, (0, 1, 5))
        assert t.release_for_result((0, 1, 5, 9, 7)) == []
        assert t.dominator(5, 3) is None

    def test_release_covers_all_prefix_positions(self):
        t = DominanceTables()
        complete = (0, 1, 5, 9, 7)
        t.try_register(1, 2, (0, 1))
        t.try_register(5, 3, (0, 1, 5))
        t.try_register(9, 4, (0, 1, 5, 9))
        t.park(1, 2, entry(3.0, (0, 4)))
        t.park(9, 4, entry(6.0, (0, 2, 5, 9), tiebreak=1))
        released = t.release_for_result(complete)
        assert {e[0] for e in released} == {3.0, 6.0}
        # source (i = 0) and destination (i = len-1) are never touched
        assert t.dominator(0, 1) is None

    def test_parked_count_empty(self):
        t = DominanceTables()
        assert t.parked_count(1, 2) == 0
