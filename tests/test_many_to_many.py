"""Tests for CH many-to-many tables and the GSP-CH comparator."""

import random

import pytest

from repro import KOSREngine, QueryOptions, gsp_osr, gsp_osr_ch, make_query
from repro.ch import build_ch, many_to_many, offset_min_to_targets
from repro.graph import grid_graph, random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph, vertex
from repro.paths.dijkstra import dijkstra_distance, multi_source_dijkstra
from repro.types import INFINITY


@pytest.fixture(scope="module")
def road_case():
    g = grid_graph(6, 6, rng=random.Random(8))
    return g, build_ch(g)


class TestManyToMany:
    def test_matches_pairwise_dijkstra(self, road_case):
        g, ch = road_case
        sources = [0, 7, 14, 21]
        targets = [5, 17, 29, 35]
        table = many_to_many(ch, sources, targets)
        for s in sources:
            for t in targets:
                ref = dijkstra_distance(g, s, t)
                if ref == INFINITY:
                    assert (s, t) not in table
                else:
                    assert table[(s, t)] == pytest.approx(ref)

    def test_directed_asymmetry(self):
        g = random_graph(30, 2.5, rng=random.Random(41))
        ch = build_ch(g)
        table_ab = many_to_many(ch, [0], [9])
        table_ba = many_to_many(ch, [9], [0])
        assert table_ab.get((0, 9)) == pytest.approx(dijkstra_distance(g, 0, 9))
        assert table_ba.get((9, 0)) == pytest.approx(dijkstra_distance(g, 9, 0))

    def test_duplicates_deduped(self, road_case):
        g, ch = road_case
        table = many_to_many(ch, [0, 0, 1], [2, 2])
        assert set(table) <= {(0, 2), (1, 2)}

    def test_unreachable_pairs_absent(self):
        from repro.graph import from_edge_list

        g = from_edge_list(4, [(0, 1, 1.0), (2, 3, 1.0)])
        ch = build_ch(g)
        table = many_to_many(ch, [0], [1, 3])
        assert (0, 1) in table and (0, 3) not in table

    def test_source_equals_target(self, road_case):
        g, ch = road_case
        table = many_to_many(ch, [4], [4])
        assert table[(4, 4)] == 0.0


class TestOffsetMin:
    def test_matches_multi_source_dijkstra(self, road_case):
        g, ch = road_case
        sources = {0: 5.0, 14: 0.0, 30: 2.5}
        targets = [3, 11, 27, 35]
        best = offset_min_to_targets(ch, sources, targets)
        reference = multi_source_dijkstra(g, sources)
        for t in targets:
            assert best[t][0] == pytest.approx(reference[t])

    def test_argmin_origin_is_consistent(self, road_case):
        g, ch = road_case
        sources = {0: 0.0, 35: 0.0}
        best = offset_min_to_targets(ch, sources, [5, 30])
        for t, (cost, origin) in best.items():
            assert origin in sources
            direct = sources[origin] + dijkstra_distance(g, origin, t)
            assert cost == pytest.approx(direct)

    def test_infinite_offsets_skipped(self, road_case):
        g, ch = road_case
        best = offset_min_to_targets(ch, {0: INFINITY, 1: 0.0}, [5])
        assert best[5][1] == 1


class TestGspCh:
    def test_fig1_matches_plain_gsp(self):
        g = paper_figure1_graph()
        ch = build_ch(g)
        q = make_query(g, vertex("s"), vertex("t"), ["MA", "RE", "CI"], 1)
        plain = gsp_osr(g, q)
        via_ch = gsp_osr_ch(g, q, ch)
        assert [r.cost for r in via_ch] == [r.cost for r in plain] == [20.0]
        assert via_ch[0].witness.vertices == plain[0].witness.vertices

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_match_plain_gsp(self, seed):
        g = random_graph(30, 2.5, rng=random.Random(seed))
        assign_uniform_categories(g, 3, 6, random.Random(seed + 1))
        ch = build_ch(g)
        rng = random.Random(seed + 9)
        for _ in range(3):
            cats = [rng.randrange(3) for _ in range(rng.randint(1, 3))]
            q = make_query(g, rng.randrange(30), rng.randrange(30), cats, 1)
            plain = [r.cost for r in gsp_osr(g, q)]
            via_ch = [r.cost for r in gsp_osr_ch(g, q, ch)]
            assert via_ch == pytest.approx(plain)

    def test_engine_dispatch_and_ch_cache(self):
        g = random_graph(25, 2.5, rng=random.Random(77))
        assign_uniform_categories(g, 2, 5, random.Random(78))
        engine = KOSREngine.build(g)
        q = make_query(g, 0, 9, [0, 1], 1)
        a = engine.run(q, QueryOptions(method="GSP-CH")).costs
        b = engine.run(q, QueryOptions(method="GSP")).costs
        assert a == pytest.approx(b)
        assert engine.contraction_hierarchy() is engine.contraction_hierarchy()

    def test_rejects_k_greater_than_one(self):
        g = paper_figure1_graph()
        ch = build_ch(g)
        q = make_query(g, vertex("s"), vertex("t"), ["MA"], 2)
        with pytest.raises(ValueError):
            gsp_osr_ch(g, q, ch)

    def test_infeasible_returns_empty(self):
        g = paper_figure1_graph()
        lonely = g.add_vertex()
        cid = g.add_category("island")
        g.assign_category(lonely, cid)
        ch = build_ch(g)
        from repro import KOSRQuery

        q = KOSRQuery(vertex("s"), vertex("t"), (cid,), 1)
        assert gsp_osr_ch(g, q, ch) == []
