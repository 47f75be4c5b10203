"""End-to-end integration tests across the dataset analogues.

These run the whole pipeline — generator → PLL → inverted indexes →
engine → query → route restoration — on each of the five scaled graphs,
cross-checking methods against each other and against graph-search ground
truth.
"""

import random

import pytest

from repro import KOSREngine, QueryOptions, make_query
from repro.experiments.workload import random_queries
from repro.graph import generators
from repro.paths.dijkstra import dijkstra_to_targets
from repro.types import INFINITY

SK = QueryOptions(method="SK")


@pytest.fixture(scope="module")
def engines():
    built = {}
    for name in generators.DATASET_NAMES:
        graph = generators.dataset_by_name(name, scale=0.06)
        built[name] = KOSREngine.build(graph, name=name)
    return built


@pytest.mark.parametrize("name", generators.DATASET_NAMES)
class TestEndToEnd:
    def test_methods_agree_on_random_workload(self, engines, name):
        engine = engines[name]
        workload = random_queries(engine.graph, 3, 2, 3, seed=hash(name) % 1000)
        for query in workload:
            reference = engine.run(query, QueryOptions(method="PK")).costs
            for method in ("KPNE", "SK"):
                got = engine.run(query, QueryOptions(method=method)).costs
                assert got == pytest.approx(reference), (name, method)

    def test_witness_costs_are_exact_leg_sums(self, engines, name):
        engine = engines[name]
        graph = engine.graph
        workload = random_queries(graph, 2, 2, 2, seed=5)
        for query in workload:
            for item in engine.run(query, SK).results:
                vertices = item.witness.vertices
                total = 0.0
                for a, b in zip(vertices, vertices[1:]):
                    if a == b:
                        continue
                    found = dijkstra_to_targets(graph, a, [b])
                    assert b in found, "every leg must be reachable"
                    total += found[b]
                assert total == pytest.approx(item.cost)

    def test_restored_routes_walk_the_graph(self, engines, name):
        engine = engines[name]
        graph = engine.graph
        workload = random_queries(graph, 2, 2, 2, seed=11)
        for query in workload:
            result = engine.run(
                query, QueryOptions(method="SK", restore_routes=True))
            for item in result.results:
                route = item.route.vertices
                for a, b in zip(route, route[1:]):
                    assert graph.has_edge(a, b), (name, a, b)

    def test_gsp_agrees_at_k1(self, engines, name):
        engine = engines[name]
        workload = random_queries(engine.graph, 2, 2, 1, seed=17)
        for query in workload:
            sk = engine.run(query, SK).costs
            gsp = engine.run(query, QueryOptions(method="GSP")).costs
            assert gsp == pytest.approx(sk), name


class TestDiskParityAcrossDatasets:
    def test_sk_db_matches_sk_on_fla(self, engines, tmp_path):
        engine = engines["FLA"]
        engine.save_index(tmp_path / "index.rpli")
        workload = random_queries(engine.graph, 2, 3, 4, seed=23)
        for query in workload:
            sk_db = engine.run(query, QueryOptions(method="SK-DB"))
            assert sk_db.costs == pytest.approx(engine.run(query, SK).costs)


class TestStabilityUnderRepeats:
    def test_same_query_twice_same_answer(self, engines):
        engine = engines["COL"]
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1, [0, 1], 4)
        first = engine.run(q, SK)
        second = engine.run(q, SK)
        assert first.costs == second.costs
        assert first.witnesses == second.witnesses
        assert first.stats.examined_routes == second.stats.examined_routes
