"""Tests for query objects, stats, and the brute-force oracle."""

import pytest

from repro import KOSRQuery, QueryStats, brute_force_kosr, make_query
from repro.exceptions import EmptyCategoryError, QueryError
from repro.graph.paper import paper_figure1_graph, vertex


@pytest.fixture(scope="module")
def fig1():
    return paper_figure1_graph()


class TestKOSRQuery:
    def test_basic_construction(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE"], 2)
        assert q.k == 2
        assert q.num_levels == 3
        assert q.complete_size == 4

    def test_category_names_and_ids_mix(self, fig1):
        ma = fig1.category_id("MA")
        q = make_query(fig1, vertex("s"), vertex("t"), [ma, "RE"], 1)
        assert q.categories == (ma, fig1.category_id("RE"))

    def test_category_ref_reads_only_ascii_digits_as_ids(self):
        from repro.core.query import category_ref

        assert category_ref("12") == 12 and category_ref(3) == 3
        for name in ("MA", "", "\u00b2", "\u0662", "1\u0662", " 1", "-1"):
            assert category_ref(name) == name

    def test_k_zero_rejected(self, fig1):
        with pytest.raises(QueryError):
            KOSRQuery(0, 1, (0,), 0)

    def test_empty_category_sequence_rejected(self, fig1):
        with pytest.raises(QueryError):
            KOSRQuery(0, 1, (), 1)

    def test_unknown_vertex_rejected(self, fig1):
        with pytest.raises(QueryError):
            make_query(fig1, 99, vertex("t"), ["MA"], 1)
        with pytest.raises(QueryError):
            make_query(fig1, vertex("s"), -1, ["MA"], 1)

    def test_unknown_category_id_rejected(self, fig1):
        with pytest.raises(QueryError):
            make_query(fig1, vertex("s"), vertex("t"), [42], 1)

    def test_empty_category_rejected(self, fig1):
        g = fig1.copy()
        g.add_category("empty")
        with pytest.raises(EmptyCategoryError):
            make_query(g, vertex("s"), vertex("t"), ["empty"], 1)

    def test_query_is_hashable_and_frozen(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA"], 1)
        assert hash(q)
        with pytest.raises(Exception):
            q.k = 5


class TestQueryStats:
    def test_bump_level_extends(self):
        s = QueryStats()
        s.bump_level(3)
        s.bump_level(1)
        s.bump_level(3)
        assert s.per_level_examined == [0, 1, 0, 2]

    def test_other_time_non_negative(self):
        s = QueryStats(total_time=1.0, nn_time=0.4, queue_time=0.3,
                       estimation_time=0.2, index_load_time=0.05)
        assert s.other_time == pytest.approx(0.05)
        s2 = QueryStats(total_time=0.1, nn_time=0.5)
        assert s2.other_time == 0.0

    def test_merge_accumulates(self):
        a = QueryStats(examined_routes=3, nn_queries=2, max_queue_size=5)
        a.per_level_examined = [1, 2]
        b = QueryStats(examined_routes=4, nn_queries=1, max_queue_size=9,
                       completed=False)
        b.per_level_examined = [0, 1, 7]
        a.merge(b)
        assert a.examined_routes == 7
        assert a.max_queue_size == 9
        assert not a.completed
        assert a.per_level_examined == [1, 3, 7]


class TestBruteForce:
    def test_matches_example1(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 3)
        results = brute_force_kosr(fig1, q)
        assert [r.cost for r in results] == [20.0, 21.0, 22.0]

    def test_k_larger_than_feasible(self, fig1):
        # MA x RE x CI has 8 combos; ask for 100 routes.
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 100)
        results = brute_force_kosr(fig1, q)
        assert 1 <= len(results) <= 8
        costs = [r.cost for r in results]
        assert costs == sorted(costs)

    def test_cap_enforced(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA"] * 8, 1)
        with pytest.raises(QueryError):
            brute_force_kosr(fig1, q, max_witnesses=10)

    def test_unreachable_target_yields_empty(self, fig1):
        g = fig1.copy()
        lonely = g.add_vertex()
        q = KOSRQuery(vertex("s"), lonely, (g.category_id("MA"),), 2)
        assert brute_force_kosr(g, q) == []

    def test_repeated_category(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "MA"], 4)
        results = brute_force_kosr(fig1, q)
        assert results, "visiting MA twice must still be feasible"
        # witnesses may legitimately repeat the same mall
        best = results[0]
        assert len(best.witness.vertices) == 4
