"""Tests for the GSP dynamic-programming OSR comparator."""

import random

import pytest

from repro import (
    KOSREngine,
    KOSRQuery,
    QueryOptions,
    brute_force_kosr,
    gsp_osr,
    make_query,
)
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import names, paper_figure1_graph, vertex


@pytest.fixture(scope="module")
def fig1():
    return paper_figure1_graph()


class TestGSP:
    def test_fig1_optimal_route(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 1)
        results = gsp_osr(fig1, q)
        assert len(results) == 1
        assert results[0].cost == 20.0
        assert names(results[0].witness.vertices) == ("s", "a", "b", "d", "t")

    def test_rejects_k_greater_than_one(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA"], 2)
        with pytest.raises(ValueError):
            gsp_osr(fig1, q)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_on_random_graphs(self, seed):
        g = random_graph(35, 2.5, rng=random.Random(seed))
        assign_uniform_categories(g, 3, 7, random.Random(seed + 1))
        rng = random.Random(seed + 70)
        for _ in range(3):
            cats = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
            q = make_query(g, rng.randrange(35), rng.randrange(35), cats, 1)
            expected = brute_force_kosr(g, q)
            got = gsp_osr(g, q)
            if expected:
                assert got[0].cost == pytest.approx(expected[0].cost)
            else:
                assert got == []

    def test_matches_star_kosr_at_k1(self, fig1):
        engine = KOSREngine.build(fig1)
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE"], 1)
        sk = engine.run(q, QueryOptions(method="SK")).costs
        gsp = [r.cost for r in gsp_osr(fig1, q)]
        assert gsp == pytest.approx(sk)

    def test_infeasible_returns_empty(self, fig1):
        g = fig1.copy()
        lonely = g.add_vertex()
        cid = g.add_category("island")
        g.assign_category(lonely, cid)
        q = KOSRQuery(vertex("s"), vertex("t"), (cid,), 1)
        assert gsp_osr(g, q) == []

    def test_witness_layers_belong_to_categories(self, fig1):
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 1)
        witness = gsp_osr(fig1, q)[0].witness.vertices
        assert fig1.has_category(witness[1], fig1.category_id("MA"))
        assert fig1.has_category(witness[2], fig1.category_id("RE"))
        assert fig1.has_category(witness[3], fig1.category_id("CI"))

    def test_counts_one_search_per_transition(self, fig1):
        from repro.core.stats import QueryStats

        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 1)
        stats = QueryStats()
        gsp_osr(fig1, q, stats)
        # |C| transitions plus the final hop to t
        assert stats.nn_queries == 4

    @pytest.mark.parametrize("method", ["GSP", "GSP-CH"])
    def test_time_budget_bounds_the_dp(self, fig1, method):
        """Past ``time_budget_s`` the DP stops before its next transition
        and reports INF, like the search-based methods."""
        engine = KOSREngine.build(fig1)
        q = make_query(fig1, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 1)
        late = engine.run(q, QueryOptions(method=method, time_budget_s=0.0))
        assert not late.stats.completed
        assert late.costs == [] and late.stats.nn_queries == 0
        assert engine.run(q, QueryOptions(method=method)).costs == [20.0]

    @pytest.mark.parametrize("method", ["GSP", "GSP-CH"])
    @pytest.mark.parametrize("request_, cost, nn_queries, examined", [
        # pinned from the two separate DP loops the one skeleton replaced
        ((0, 59, [0, 1, 2, 3]), 34.396827041721664, 5, 36),
        ((7, 33, [2, 0]), 41.19713969225438, 3, 18),
        ((12, 12, [3, 3, 1]), 27.43402853470936, 4, 27),
    ])
    def test_both_transitions_book_what_they_always_did(
            self, method, request_, cost, nn_queries, examined):
        g = random_graph(60, 2.5, rng=random.Random(5))
        assign_uniform_categories(g, 4, 9, random.Random(6))
        source, target, cats = request_
        res = KOSREngine.build(g).run(make_query(g, source, target, cats, 1),
                                      QueryOptions(method=method))
        assert res.costs == pytest.approx([cost])
        witness = res.witnesses[0]
        assert (witness[0], witness[-1], len(witness)) == (
            source, target, len(cats) + 2)
        assert (res.stats.nn_queries, res.stats.examined_routes,
                res.stats.results_found) == (nn_queries, examined, 1)
