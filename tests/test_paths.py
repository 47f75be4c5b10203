"""Tests for the shortest-path substrate (Dijkstra family, kNN cursors)."""

import random

import pytest

from repro.graph import Graph, from_edge_list, random_graph
from repro.graph.categories import assign_uniform_categories
from repro.paths import (
    DijkstraKnnCursor,
    dijkstra,
    dijkstra_distance,
    dijkstra_path,
    dijkstra_to_targets,
    knn_in_category,
    multi_source_dijkstra,
)
from repro.types import INFINITY


@pytest.fixture
def diamond():
    #    0 ->1 (1), 0->2 (4), 1->2 (1), 1->3 (5), 2->3 (1)
    return from_edge_list(4, [(0, 1, 1), (0, 2, 4), (1, 2, 1), (1, 3, 5), (2, 3, 1)])


class TestDijkstra:
    def test_distances(self, diamond):
        dist = dijkstra(diamond, 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_reverse_distances(self, diamond):
        dist = dijkstra(diamond, 3, reverse=True)
        assert dist == {3: 0, 2: 1, 1: 2, 0: 3}

    def test_unreachable_omitted(self):
        g = from_edge_list(3, [(0, 1, 1)])
        dist = dijkstra(g, 0)
        assert 2 not in dist

    def test_cutoff(self, diamond):
        dist = dijkstra(diamond, 0, cutoff=1.5)
        assert set(dist) == {0, 1}

    def test_point_to_point(self, diamond):
        assert dijkstra_distance(diamond, 0, 3) == 3
        assert dijkstra_distance(diamond, 3, 0) == INFINITY
        assert dijkstra_distance(diamond, 2, 2) == 0

    def test_path_reconstruction(self, diamond):
        cost, path = dijkstra_path(diamond, 0, 3)
        assert cost == 3
        assert path == [0, 1, 2, 3]

    def test_path_unreachable(self, diamond):
        cost, path = dijkstra_path(diamond, 3, 0)
        assert cost == INFINITY
        assert path == []

    def test_path_same_vertex(self, diamond):
        assert dijkstra_path(diamond, 1, 1) == (0.0, [1])

    def test_zero_weight_edges(self):
        g = from_edge_list(3, [(0, 1, 0.0), (1, 2, 0.0)])
        assert dijkstra_distance(g, 0, 2) == 0.0


class TestMultiSource:
    def test_offsets_act_as_virtual_source(self, diamond):
        # seeding with offsets == running Dijkstra from a virtual super-source
        result = multi_source_dijkstra(diamond, {1: 10.0, 2: 0.0})
        assert result[3] == 1.0  # via 2
        assert result[1] == 10.0

    def test_cheaper_seed_wins(self, diamond):
        result = multi_source_dijkstra(diamond, {0: 0.0, 1: 100.0})
        assert result[1] == 1.0  # 0->1 beats the expensive seed

    def test_to_targets_early_stop(self, diamond):
        found = dijkstra_to_targets(diamond, 0, [2])
        assert found == {2: 2}

    def test_to_targets_unreachable(self, diamond):
        found = dijkstra_to_targets(diamond, 3, [0, 3])
        assert found == {3: 0}

    def test_to_targets_empty(self, diamond):
        assert dijkstra_to_targets(diamond, 0, []) == {}


@pytest.fixture
def categorized():
    g = random_graph(50, 3.0, rng=random.Random(11))
    assign_uniform_categories(g, 2, 10, random.Random(12))
    return g


class TestKnn:
    def test_knn_sorted_and_correct(self, categorized):
        members = categorized.members(0)
        dist = dijkstra(categorized, 5)
        expected = sorted((dist[m], m) for m in members if m in dist)
        got = knn_in_category(categorized, 5, 0, len(members))
        assert [d for _, d in got] == [d for d, _ in expected]

    def test_knn_includes_source_when_member(self, categorized):
        member = next(iter(categorized.members(0)))
        got = knn_in_category(categorized, member, 0, 1)
        assert got[0] == (member, 0.0)

    def test_knn_empty_category(self):
        g = random_graph(10, 2.0, rng=random.Random(0))
        g.add_category("empty")
        assert knn_in_category(g, 0, 0, 3) == []

    def test_cursor_matches_batch(self, categorized):
        batch = knn_in_category(categorized, 3, 1, 10)
        cursor = DijkstraKnnCursor(categorized, 3, 1)
        for i, expected in enumerate(batch, start=1):
            assert cursor.get(i)[1] == pytest.approx(expected[1])

    def test_cursor_exhaustion_returns_none(self, categorized):
        cursor = DijkstraKnnCursor(categorized, 0, 0)
        size = categorized.category_size(0)
        assert cursor.get(size) is not None
        assert cursor.get(size + 1) is None

    def test_cursor_repeat_requests_cached(self, categorized):
        cursor = DijkstraKnnCursor(categorized, 0, 0)
        first = cursor.get(3)
        assert cursor.get(3) == first
        assert len(cursor.found) == 3
