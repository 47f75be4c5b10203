"""Tests for the KOSREngine facade: dispatch, SK-DB, route restoration."""

import random

import pytest

from repro import KOSREngine, QueryOptions, brute_force_kosr, make_query
from repro.exceptions import QueryError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph, vertex


@pytest.fixture(scope="module")
def case():
    g = random_graph(30, 3.0, rng=random.Random(2))
    assign_uniform_categories(g, 3, 6, random.Random(3))
    return g, KOSREngine.build(g, name="case")


class TestBuild:
    def test_preprocessing_stats_populated(self, case):
        _, engine = case
        p = engine.preprocessing
        assert p.num_vertices == 30
        assert p.label_build_seconds > 0
        assert p.avg_lin > 0 and p.avg_lout > 0
        assert p.label_entries > 0
        assert p.inverted_entries > 0
        assert p.label_bytes == p.label_entries * p.BYTES_PER_ENTRY

    def test_from_labels_skips_label_build(self, case):
        g, engine = case
        rebuilt = KOSREngine.from_labels(g, engine.labels, name="reuse")
        assert rebuilt.preprocessing.label_build_seconds == 0.0
        q = make_query(g, 0, 9, [0, 1], 3)
        assert rebuilt.run(q).costs == engine.run(q).costs


class TestDispatch:
    def test_unknown_method_rejected(self, case):
        _, engine = case
        with pytest.raises(QueryError):
            engine.query(0, 1, [0], method="WARP")

    def test_unknown_backend_rejected(self, case):
        _, engine = case
        with pytest.raises(QueryError):
            engine.query(0, 1, [0], nn_backend="psychic")

    def test_label_backend_requires_index(self, case):
        g, _ = case
        bare = KOSREngine(g)
        with pytest.raises(QueryError):
            bare.query(0, 1, [0], method="PK")

    def test_dij_backend_works_without_index(self, case):
        g, engine = case
        bare = KOSREngine(g)
        q = make_query(g, 0, 9, [0, 1], 3)
        expected = engine.run(q, QueryOptions(method="PK")).costs
        got = bare.run(
            q, QueryOptions(method="PK", nn_backend="dij-restart")).costs
        assert got == pytest.approx(expected)

    def test_gsp_via_engine(self, case):
        g, engine = case
        q = make_query(g, 0, 9, [0, 1], 1)
        gsp = engine.run(q, QueryOptions(method="GSP")).costs
        sk = engine.run(q, QueryOptions(method="SK")).costs
        assert gsp == pytest.approx(sk)

    def test_result_accessors(self, case):
        g, engine = case
        res = engine.query(0, 9, [0, 1], k=3)
        assert len(res.costs) == len(res.witnesses) == len(res.results)
        assert res.query.k == 3


class TestDiskStore:
    def test_sk_db_matches_sk(self, case, tmp_path):
        g, engine = case
        engine.save_index(tmp_path / "index.rpli")
        q = make_query(g, 0, 9, [0, 1, 2], 4)
        sk_db = engine.run(q, QueryOptions(method="SK-DB"))
        sk = engine.run(q, QueryOptions(method="SK"))
        assert sk_db.costs == pytest.approx(sk.costs)

    def test_sk_db_without_store_rejected(self, case):
        g, _ = case
        fresh = KOSREngine.build(g)
        with pytest.raises(QueryError):
            fresh.query(0, 1, [0], method="SK-DB")

    def test_sk_db_records_load_time(self, case, tmp_path):
        g, engine = case
        engine.save_index(tmp_path / "index.rpli")
        q = make_query(g, 0, 9, [0, 1], 2)
        stats = engine.run(q, QueryOptions(method="SK-DB")).stats
        assert stats.index_load_time > 0

    def test_attach_requires_built_index(self, case, tmp_path):
        g, _ = case
        bare = KOSREngine(g)
        with pytest.raises(QueryError):
            bare.save_index(tmp_path / "index.rpli")


class TestRouteRestoration:
    def test_routes_realise_witness_costs(self):
        fig1 = paper_figure1_graph()
        engine = KOSREngine.build(fig1)
        res = engine.query(vertex("s"), vertex("t"), ["MA", "RE", "CI"],
                           k=3, method="SK", restore_routes=True)
        for item in res.results:
            route = item.route
            assert route is not None
            assert route.vertices[0] == vertex("s")
            assert route.vertices[-1] == vertex("t")
            walked = sum(
                fig1.edge_weight(a, b)
                for a, b in zip(route.vertices, route.vertices[1:])
            )
            assert walked == pytest.approx(item.cost)
            assert route.cost == pytest.approx(item.cost)

    def test_restored_route_visits_categories_in_order(self):
        fig1 = paper_figure1_graph()
        engine = KOSREngine.build(fig1)
        res = engine.query(vertex("s"), vertex("t"), ["MA", "RE", "CI"],
                           k=1, restore_routes=True)
        route = res.results[0].route.vertices
        witness = res.results[0].witness.vertices
        positions = [route.index(v) for v in witness]
        assert positions == sorted(positions)


class TestStrictBudget:
    def test_strict_budget_raises(self, case):
        from repro.exceptions import BudgetExceededError

        g, engine = case
        q = make_query(g, 0, 9, [0, 1, 2], 10)
        with pytest.raises(BudgetExceededError):
            engine.run(q, QueryOptions(method="KPNE", budget=2,
                                       strict_budget=True))

    def test_non_strict_returns_partial(self, case):
        g, engine = case
        q = make_query(g, 0, 9, [0, 1, 2], 10)
        res = engine.run(q, QueryOptions(method="KPNE", budget=2))
        assert not res.stats.completed
