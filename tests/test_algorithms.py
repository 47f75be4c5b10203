"""Cross-validation and behaviour tests for KPNE / PruningKOSR / StarKOSR."""

import random

import pytest

from repro import (
    KOSREngine,
    KOSRQuery,
    QueryOptions,
    QueryStats,
    brute_force_kosr,
    kpne,
    make_query,
    pruning_kosr,
    star_kosr,
)
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph, vertex
from repro.types import is_strictly_sorted

SK = QueryOptions(method="SK")


def build_case(seed: int, n=30, ncat=3, size=6):
    g = random_graph(n, 2.5, rng=random.Random(seed))
    assign_uniform_categories(g, ncat, size, random.Random(seed + 1))
    return g, KOSREngine.build(g)


ALL_METHODS = ("KPNE", "PK", "SK", "SK-NODOM")


class TestAgreementWithBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    def test_topk_costs_match(self, seed):
        g, engine = build_case(seed)
        rng = random.Random(seed + 50)
        q = make_query(g, rng.randrange(30), rng.randrange(30),
                       [rng.randrange(3) for _ in range(2)], 5)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ALL_METHODS:
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected), method

    @pytest.mark.parametrize("nn_backend", ["label", "dij-restart", "dij-resume"])
    def test_backends_agree(self, nn_backend):
        g, engine = build_case(99)
        q = make_query(g, 0, 17, [0, 1, 2], 4)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        got = engine.run(
            q, QueryOptions(method="PK", nn_backend=nn_backend)).costs
        assert got == pytest.approx(expected)

    def test_results_sorted_and_distinct(self):
        g, engine = build_case(7)
        q = make_query(g, 1, 20, [0, 1], 8)
        res = engine.run(q, SK)
        assert is_strictly_sorted(res.costs)
        assert len(set(res.witnesses)) == len(res.witnesses)

    @pytest.mark.parametrize("method, entry_point, switches", [
        ("KPNE", kpne, {}),
        ("PK", pruning_kosr, {}),
        ("SK", star_kosr, {}),
        ("SK-NODOM", star_kosr, {"use_dominance": False}),
    ])
    def test_paper_named_entry_points_are_the_engines_methods(
            self, method, entry_point, switches):
        """The library's ``kpne`` / ``pruning_kosr`` / ``star_kosr`` and
        the engine's method table run the same search."""
        g, engine = build_case(3)
        q = make_query(g, 2, 25, [0, 1, 2], 4)
        stats = QueryStats()
        results = entry_point(q, engine._make_finder("label"), stats,
                              **switches)
        expected = engine.run(q, QueryOptions(method=method))
        assert [r.witness.vertices for r in results] == expected.witnesses
        assert ((stats.examined_routes, stats.nn_queries)
                == (expected.stats.examined_routes,
                    expected.stats.nn_queries))


class TestEdgeCases:
    def test_unreachable_destination(self):
        g, _ = build_case(3)
        lonely = g.add_vertex()
        engine = KOSREngine.build(g)
        for method in ALL_METHODS:
            q = KOSRQuery(0, lonely, (0,), 3)
            assert engine.run(q, QueryOptions(method=method)).results == []

    def test_k_exceeds_feasible_routes(self):
        g, engine = build_case(11, ncat=2, size=3)
        q = make_query(g, 0, 5, [0, 1], 50)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ALL_METHODS:
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected), method
            assert len(got) <= 9

    def test_source_equals_target(self):
        g, engine = build_case(13)
        q = make_query(g, 4, 4, [0], 3)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ALL_METHODS:
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected)

    def test_source_is_category_member(self):
        g, engine = build_case(17)
        member = next(iter(g.members(0)))
        q = make_query(g, member, 3, [0], 3)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ALL_METHODS:
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected)

    def test_repeated_categories_in_sequence(self):
        g, engine = build_case(19)
        q = make_query(g, 0, 9, [1, 1, 1], 4)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ALL_METHODS:
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected)

    def test_long_category_sequence(self):
        g, engine = build_case(23, ncat=4, size=4)
        q = make_query(g, 0, 11, [0, 1, 2, 3, 0], 3)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ("PK", "SK"):
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected)

    def test_unweighted_graph_variant(self):
        g, _ = build_case(29)
        g.set_unit_weights()
        engine = KOSREngine.build(g)
        q = make_query(g, 0, 7, [0, 1], 4)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ALL_METHODS:
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected)

    def test_budget_marks_incomplete(self):
        g, engine = build_case(31)
        q = make_query(g, 0, 9, [0, 1, 2], 10)
        res = engine.run(q, QueryOptions(method="KPNE", budget=3))
        assert not res.stats.completed
        assert res.stats.examined_routes <= 4

    def test_time_budget_marks_incomplete(self):
        g, engine = build_case(37)
        q = make_query(g, 0, 9, [0, 1, 2], 10)
        res = engine.run(q, QueryOptions(method="KPNE", time_budget_s=0.0))
        assert not res.stats.completed


class TestStatistics:
    def test_dominance_reduces_examined(self):
        # On a deep category sequence KPNE's space grows multiplicatively
        # while PK's stays polynomial (Lemma 3).  Small k keeps the
        # reconsideration overhead (each result re-pops <= |C| dominated
        # routes) from masking the reduction.
        g, engine = build_case(41, ncat=3, size=8)
        q = make_query(g, 0, 15, [0, 1, 2, 0], 2)
        kp = engine.run(q, QueryOptions(method="KPNE")).stats
        pk = engine.run(q, QueryOptions(method="PK")).stats
        assert pk.examined_routes <= kp.examined_routes
        assert pk.dominated_routes > 0

    def test_heuristic_reduces_examined(self):
        g, engine = build_case(43, ncat=3, size=8)
        q = make_query(g, 0, 22, [0, 1, 2], 5)
        pk = engine.run(q, QueryOptions(method="PK")).stats.examined_routes
        sk = engine.run(q, SK).stats.examined_routes
        assert sk <= pk

    def test_per_level_counts_sum_to_examined(self):
        g, engine = build_case(47)
        q = make_query(g, 0, 9, [0, 1], 5)
        st = engine.run(q, SK).stats
        assert sum(st.per_level_examined) == st.examined_routes

    def test_nn_queries_counted(self):
        g, engine = build_case(53)
        q = make_query(g, 0, 9, [0, 1], 3)
        st = engine.run(q, QueryOptions(method="PK")).stats
        assert st.nn_queries > 0

    def test_generated_at_least_examined_results(self):
        g, engine = build_case(59)
        q = make_query(g, 0, 9, [0, 1], 3)
        st = engine.run(q, QueryOptions(method="PK")).stats
        assert st.generated_routes >= st.results_found
        assert st.max_queue_size >= 1

    def test_timing_fields_populated(self):
        g, engine = build_case(61)
        q = make_query(g, 0, 9, [0, 1], 3)
        st = engine.run(q, SK).stats
        assert st.total_time > 0
        assert st.nn_time >= 0
        assert st.estimation_time >= 0
        assert st.other_time >= 0
