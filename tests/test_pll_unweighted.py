"""Tests for BFS-based PLL on unit-weight graphs."""

import random

import pytest

from repro.graph import from_edge_list, random_graph
from repro.graph.generators import gplus, social_network
from repro.labeling import (
    build_bfs_labels,
    build_labels_auto,
    build_pruned_landmark_labels,
    graph_is_unit_weight,
    pll,
)
from repro.paths.dijkstra import dijkstra
from repro.types import INFINITY

from reference_labels import lin


@pytest.fixture(scope="module")
def unit_graph():
    g = random_graph(50, 3.0, rng=random.Random(9))
    g.set_unit_weights()
    return g


class TestDetection:
    def test_unit_weight_detected(self, unit_graph):
        assert graph_is_unit_weight(unit_graph)

    def test_weighted_rejected(self):
        g = from_edge_list(2, [(0, 1, 2.0)])
        assert not graph_is_unit_weight(g)
        with pytest.raises(ValueError):
            build_bfs_labels(g)

    def test_gplus_analogue_is_unit(self):
        assert graph_is_unit_weight(gplus(scale=0.05))


class TestCorrectness:
    def test_distances_match_dijkstra(self, unit_graph):
        labels = build_bfs_labels(unit_graph)
        for s in range(0, 50, 7):
            dist = dijkstra(unit_graph, s)
            for t in range(50):
                assert labels.distance(s, t) == dist.get(t, INFINITY)

    def test_distances_match_dijkstra_pll(self, unit_graph):
        bfs = build_bfs_labels(unit_graph)
        dij = build_pruned_landmark_labels(unit_graph)
        for s in range(0, 50, 5):
            for t in range(50):
                assert bfs.distance(s, t) == dij.distance(s, t)

    def test_paths_walkable(self, unit_graph):
        labels = build_bfs_labels(unit_graph)
        rng = random.Random(10)
        for _ in range(20):
            s, t = rng.randrange(50), rng.randrange(50)
            cost, path = labels.path(s, t)
            if cost != INFINITY:
                assert len(path) == int(cost) + 1
                for a, b in zip(path, path[1:]):
                    assert unit_graph.has_edge(a, b)

    def test_disconnected(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        labels = build_bfs_labels(g)
        assert labels.distance(0, 2) == INFINITY


class TestAutoSelection:
    def test_auto_uses_bfs_for_unit(self, unit_graph):
        auto = build_labels_auto(unit_graph)
        explicit = build_bfs_labels(unit_graph)
        for v in range(unit_graph.num_vertices):
            assert lin(auto, v) == lin(explicit, v)

    def test_auto_falls_back_for_weighted(self):
        g = from_edge_list(3, [(0, 1, 2.5), (1, 2, 1.0)])
        labels = build_labels_auto(g)
        assert labels.distance(0, 2) == 3.5

    def test_empty_graph_handled(self):
        from repro.graph import Graph

        labels = build_labels_auto(Graph(3))
        assert labels.distance(0, 1) == INFINITY


class TestFrontier:
    """The two builders share one search; what differs is the frontier.
    (This used to compare two wall clocks, which now time the same loop.)"""

    @pytest.fixture
    def heap_ops(self, monkeypatch):
        ops = []
        for name in ("heappush", "heappop"):
            real = getattr(pll, name)

            def counted(*args, _real=real):
                ops.append(1)
                return _real(*args)

            monkeypatch.setattr(pll, name, counted)
        monkeypatch.setattr(pll, "_HEAP", (list, pll.heappush, pll.heappop))
        return ops

    def test_no_heap_operations_on_unit_weight_graphs(self, heap_ops):
        g = social_network(250, attach=6, seed=4)
        build_bfs_labels(g)
        build_labels_auto(g)
        assert not heap_ops

    def test_weighted_graphs_use_the_heap(self, heap_ops, unit_graph):
        build_pruned_landmark_labels(unit_graph)
        assert heap_ops
