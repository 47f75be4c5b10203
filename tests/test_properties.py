"""Property-based tests (hypothesis) on the core invariants.

Strategies generate small random directed weighted graphs with categories;
properties assert the paper's central claims hold on *arbitrary* inputs:
label distances are exact, CH distances are exact, FindNN enumerates in
distance order, every KOSR method agrees with brute force, the heuristic is
admissible, and dominance never discards a better completion.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KOSREngine, KOSRQuery, QueryOptions, brute_force_kosr
from repro.ch import build_ch, ch_distance
from repro.graph import Graph
from repro.labeling import build_labels_auto
from repro.nn import EstimatedNNFinder
from repro.paths.dijkstra import dijkstra, dijkstra_distance
from repro.types import INFINITY

from reference_inverted import build_inverted_indexes
from reference_labels import lin, lout
from reference_nn import LabelNNFinder
from reference_pll import build_reference_labels

SK = QueryOptions(method="SK")

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, min_vertices=2, max_vertices=14, num_categories=0):
    """A small random digraph; weights are integers to avoid FP ties."""
    n = draw(st.integers(min_vertices, max_vertices))
    edge_count = draw(st.integers(0, min(40, n * (n - 1))))
    g = Graph(n)
    seed = draw(st.integers(0, 2**31))
    rng = random.Random(seed)
    for _ in range(edge_count):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v, float(rng.randint(1, 20)))
    for c in range(num_categories):
        cid = g.add_category(f"c{c}")
        size = rng.randint(1, max(1, n // 2))
        for vtx in rng.sample(range(n), size):
            g.assign_category(vtx, cid)
    return g


class TestLabelProperties:
    @SETTINGS
    @given(graphs())
    def test_pll_distances_equal_dijkstra(self, g):
        labels = build_labels_auto(g)
        for s in range(g.num_vertices):
            dist = dijkstra(g, s)
            for t in range(g.num_vertices):
                assert labels.distance(s, t) == pytest.approx(
                    dist.get(t, INFINITY)
                )

    @SETTINGS
    @given(graphs())
    def test_pll_paths_are_walkable(self, g):
        labels = build_labels_auto(g)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                cost, path = labels.path(s, t)
                if cost == INFINITY:
                    assert path == []
                    continue
                assert path[0] == s and path[-1] == t
                walked = sum(
                    g.edge_weight(a, b) for a, b in zip(path, path[1:])
                )
                assert walked == pytest.approx(cost)

    @SETTINGS
    @given(graphs())
    def test_label_entries_sorted_by_rank(self, g):
        labels = build_labels_auto(g)
        for v in range(g.num_vertices):
            for entries in (lin(labels, v), lout(labels, v)):
                ranks = [e.hub_rank for e in entries]
                assert ranks == sorted(ranks)


class TestCHProperties:
    @SETTINGS
    @given(graphs())
    def test_ch_distances_equal_dijkstra(self, g):
        ch = build_ch(g)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert ch_distance(ch, s, t) == pytest.approx(
                    dijkstra_distance(g, s, t)
                )


class TestFindNNProperties:
    @SETTINGS
    @given(graphs(num_categories=2))
    def test_enumeration_matches_sorted_dijkstra(self, g):
        labels = build_reference_labels(g)
        inverted = build_inverted_indexes(g, labels)
        finder = LabelNNFinder.from_index(labels, inverted)
        for source in range(g.num_vertices):
            for cid in range(g.num_categories):
                dist = dijkstra(g, source)
                expected = sorted(
                    dist[m] for m in g.members(cid) if m in dist
                )
                got = []
                x = 1
                while True:
                    res = finder.find(source, cid, x)
                    if res is None:
                        break
                    got.append(res[1])
                    x += 1
                assert got == pytest.approx(expected)

    @SETTINGS
    @given(graphs(num_categories=1))
    def test_estimated_order_sorted_and_admissible(self, g):
        labels = build_reference_labels(g)
        inverted = build_inverted_indexes(g, labels)
        target = g.num_vertices - 1
        base = LabelNNFinder.from_index(labels, inverted)
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, target))
        for source in range(g.num_vertices):
            seq = []
            x = 1
            while True:
                res = est.find(source, 0, x)
                if res is None:
                    break
                seq.append(res)
                x += 1
            estimates = [e for _, _, e in seq]
            assert estimates == sorted(estimates)
            for member, leg, estimate in seq:
                # admissibility: estimate lower-bounds leg + true remaining
                assert estimate <= leg + labels.distance(member, target) + 1e-9


class TestKOSRProperties:
    @SETTINGS
    @given(graphs(min_vertices=3, max_vertices=12, num_categories=2),
           st.integers(1, 4))
    def test_all_methods_agree_with_brute_force(self, g, k):
        if any(g.category_size(c) == 0 for c in range(2)):
            return
        engine = KOSREngine.build(g)
        rng = random.Random(0)
        q = KOSRQuery(rng.randrange(g.num_vertices),
                      rng.randrange(g.num_vertices), (0, 1), k)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ("KPNE", "PK", "SK", "SK-NODOM"):
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected), method

    @SETTINGS
    @given(graphs(min_vertices=3, max_vertices=12, num_categories=1))
    def test_results_sorted_and_witnesses_valid(self, g):
        if g.category_size(0) == 0:
            return
        engine = KOSREngine.build(g)
        q = KOSRQuery(0, g.num_vertices - 1, (0,), 5)
        res = engine.run(q, SK)
        costs = res.costs
        assert costs == sorted(costs)
        for witness in res.witnesses:
            assert witness[0] == q.source
            assert witness[-1] == q.target
            assert g.has_category(witness[1], 0)

    @SETTINGS
    @given(graphs(min_vertices=3, max_vertices=12, num_categories=2))
    def test_heuristic_never_examines_more_with_exact_results(self, g):
        if any(g.category_size(c) == 0 for c in range(2)):
            return
        engine = KOSREngine.build(g)
        q = KOSRQuery(0, g.num_vertices - 1, (0, 1), 2)
        pk = engine.run(q, QueryOptions(method="PK"))
        sk = engine.run(q, SK)
        assert sk.costs == pytest.approx(pk.costs)

    @SETTINGS
    @given(graphs(min_vertices=3, max_vertices=10, num_categories=2))
    def test_gsp_matches_star_at_k1(self, g):
        if any(g.category_size(c) == 0 for c in range(2)):
            return
        engine = KOSREngine.build(g)
        q = KOSRQuery(0, g.num_vertices - 1, (0, 1), 1)
        sk = engine.run(q, SK).costs
        gsp = engine.run(q, QueryOptions(method="GSP")).costs
        assert gsp == pytest.approx(sk)
