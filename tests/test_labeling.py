"""Tests for 2-hop labeling: PLL construction, queries, path restoration,
inverted indexes, orderings — including the paper's Table IV/V examples."""

import random

import pytest

from repro.graph import from_edge_list, grid_graph, random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph, vertex
from repro.labeling import (
    build_pruned_landmark_labels,
    degree_order,
    random_order,
)
from repro.labeling.order import validate_order
from repro.paths.dijkstra import dijkstra, dijkstra_distance
from repro.types import INFINITY

from reference_inverted import build_inverted_index, build_inverted_indexes
from reference_labels import lin, lout


@pytest.fixture(scope="module")
def fig1():
    return paper_figure1_graph()


@pytest.fixture(scope="module")
def fig1_labels(fig1):
    return build_pruned_landmark_labels(fig1)


class TestOrdering:
    def test_degree_order_is_permutation(self):
        g = random_graph(20, 3.0, rng=random.Random(0))
        order = degree_order(g)
        assert sorted(order) == list(range(20))

    def test_degree_order_descending(self):
        g = from_edge_list(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1)])
        order = degree_order(g)
        assert order[0] == 0  # degree 3

    def test_random_order_deterministic(self):
        g = random_graph(10, 2.0, rng=random.Random(0))
        assert random_order(g, seed=5) == random_order(g, seed=5)

    def test_validate_order_rejects_non_permutation(self):
        g = random_graph(5, 2.0, rng=random.Random(0))
        with pytest.raises(ValueError):
            validate_order(g, [0, 1, 2, 3, 3])


class TestDistanceQueries:
    def test_fig1_table4_distances(self, fig1, fig1_labels):
        """Spot-check the distances implied by the paper's Table IV."""
        cases = {
            ("a", "c"): 20.0,  # Example 3
            ("s", "t"): 17.0,
            ("s", "a"): 8.0,
            ("s", "c"): 10.0,
            ("a", "t"): 12.0,
            ("b", "t"): 7.0,
            ("c", "t"): 7.0,
            ("e", "t"): 7.0,
            ("f", "t"): 3.0,
            ("t", "a"): 33.0,
            ("t", "b"): 20.0,
            ("t", "c"): 15.0,
            ("t", "d"): 13.0,
            ("t", "e"): 10.0,
            ("t", "f"): 20.0,
            ("s", "e"): 14.0,
            ("s", "f"): 24.0,
            ("e", "f"): 10.0,
            ("c", "e"): 17.0,
            ("b", "f"): 27.0,
        }
        for (u, v), expected in cases.items():
            assert fig1_labels.distance(vertex(u), vertex(v)) == expected, (u, v)

    def test_all_pairs_match_dijkstra(self, fig1, fig1_labels):
        for s in fig1.vertices():
            dist = dijkstra(fig1, s)
            for t in fig1.vertices():
                assert fig1_labels.distance(s, t) == pytest.approx(
                    dist.get(t, INFINITY)
                )

    def test_random_graphs_match_dijkstra(self):
        for seed in range(4):
            g = random_graph(30, 2.5, rng=random.Random(seed), ensure_connected=False)
            labels = build_pruned_landmark_labels(g)
            for s in range(0, 30, 5):
                dist = dijkstra(g, s)
                for t in range(30):
                    assert labels.distance(s, t) == pytest.approx(
                        dist.get(t, INFINITY)
                    )

    def test_distance_with_hub_returns_rank(self, fig1_labels):
        d, hub = fig1_labels.distance_with_hub(vertex("s"), vertex("t"))
        assert d == 17.0
        assert hub is not None

    def test_unreachable_is_infinite(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        labels = build_pruned_landmark_labels(g)
        assert labels.distance(1, 0) == INFINITY
        assert labels.distance(0, 2) == INFINITY

    def test_labels_sorted_by_hub_rank(self, fig1_labels):
        for v in range(fig1_labels.num_vertices):
            for entries in (lin(fig1_labels, v), lout(fig1_labels, v)):
                ranks = [e.hub_rank for e in entries]
                assert ranks == sorted(ranks)

    def test_average_sizes_and_entry_count(self, fig1_labels):
        avg_in, avg_out = fig1_labels.average_label_sizes()
        n = fig1_labels.num_vertices
        assert avg_in * n + avg_out * n == pytest.approx(fig1_labels.size_entries())


class TestPathRestoration:
    def test_paths_valid_on_fig1(self, fig1, fig1_labels):
        for s in fig1.vertices():
            for t in fig1.vertices():
                cost, path = fig1_labels.path(s, t)
                ref = dijkstra_distance(fig1, s, t)
                assert cost == ref
                if cost != INFINITY:
                    assert path[0] == s and path[-1] == t
                    walked = sum(
                        fig1.edge_weight(a, b) for a, b in zip(path, path[1:])
                    )
                    assert walked == pytest.approx(cost)

    def test_paths_valid_on_random_graph(self):
        g = random_graph(40, 3.0, rng=random.Random(5))
        labels = build_pruned_landmark_labels(g)
        rng = random.Random(6)
        for _ in range(25):
            s, t = rng.randrange(40), rng.randrange(40)
            cost, path = labels.path(s, t)
            assert cost == pytest.approx(dijkstra_distance(g, s, t))
            if path and len(path) > 1:
                walked = sum(g.edge_weight(a, b) for a, b in zip(path, path[1:]))
                assert walked == pytest.approx(cost)

    def test_witness_route_concatenation(self, fig1, fig1_labels):
        # Example 1's best witness: s a b d t with cost 20.
        witness = [vertex(x) for x in ("s", "a", "b", "d", "t")]
        cost, route = fig1_labels.restore_witness_route(witness)
        assert cost == 20.0
        assert route[0] == vertex("s") and route[-1] == vertex("t")
        walked = sum(fig1.edge_weight(a, b) for a, b in zip(route, route[1:]))
        assert walked == pytest.approx(20.0)

    def test_witness_route_with_repeated_vertex(self, fig1_labels):
        witness = [vertex("s"), vertex("a"), vertex("a"), vertex("t")]
        cost, route = fig1_labels.restore_witness_route(witness)
        assert cost == 8.0 + 12.0
        assert route.count(vertex("a")) == 1

    def test_witness_route_unreachable(self):
        g = from_edge_list(3, [(0, 1, 1.0)])
        labels = build_pruned_landmark_labels(g)
        cost, route = labels.restore_witness_route([0, 2])
        assert cost == INFINITY and route == []

    def test_empty_witness(self, fig1_labels):
        assert fig1_labels.restore_witness_route([]) == (0.0, [])


#: A hub order under which PLL reproduces the paper's Table IV label index
#: exactly (found by exhaustive search over the 8! orders).
TABLE4_ORDER = ("t", "s", "b", "e", "a", "d", "c", "f")


@pytest.fixture(scope="module")
def table4_labels(fig1):
    return build_pruned_landmark_labels(fig1, [vertex(x) for x in TABLE4_ORDER])


class TestPaperTable4:
    TABLE4_LIN = {
        "a": {"a": 0, "s": 8, "t": 33},
        "b": {"b": 0, "s": 13, "t": 20},
        "c": {"c": 0, "s": 10, "t": 15},
        "d": {"b": 3, "d": 0, "e": 3, "s": 13, "t": 13},
        "e": {"e": 0, "s": 14, "t": 10},
        "f": {"e": 10, "f": 0, "s": 24, "t": 20},
        "s": {"s": 0, "t": 25},
        "t": {"t": 0},
    }
    TABLE4_LOUT = {
        "a": {"a": 0, "b": 5, "e": 6, "s": 10, "t": 12},
        "b": {"b": 0, "s": 5, "t": 7},
        "c": {"b": 5, "c": 0, "d": 3, "s": 10, "t": 7},
        "d": {"d": 0, "t": 4},
        "e": {"e": 0, "t": 7},
        "f": {"f": 0, "t": 3},
        "s": {"s": 0, "t": 17},
        "t": {"t": 0},
    }

    def _hub_map(self, labels, entries):
        from repro.graph.paper import names

        return {
            names([labels.hub_vertex(e.hub_rank)])[0]: e.dist for e in entries
        }

    def test_lin_matches_table4(self, table4_labels):
        for name, expected in self.TABLE4_LIN.items():
            got = self._hub_map(table4_labels, lin(table4_labels, vertex(name)))
            assert got == expected, f"Lin({name})"

    def test_lout_matches_table4(self, table4_labels):
        for name, expected in self.TABLE4_LOUT.items():
            got = self._hub_map(table4_labels, lout(table4_labels, vertex(name)))
            assert got == expected, f"Lout({name})"

    def test_example3_merge_join(self, table4_labels):
        """Example 3: dis(a, c) = 20 via hub s (10 + 10 beats 12 + 15)."""
        d, hub_rank = table4_labels.distance_with_hub(vertex("a"), vertex("c"))
        assert d == 20.0
        assert table4_labels.hub_vertex(hub_rank) == vertex("s")


class TestInvertedIndex:
    def test_fig1_table5_ma_index(self, fig1, table4_labels):
        """Table V: IL(MA) for the category {a, c} under the Table IV labels."""
        ma = fig1.category_id("MA")
        il = build_inverted_index(fig1, table4_labels, ma)
        a, c, s, t = (vertex(x) for x in ("a", "c", "s", "t"))
        # IL(s) holds (a, 8) and (c, 10); IL(t) holds (c, 15) and (a, 33).
        assert il.hub_list(s) == [(8.0, a), (10.0, c)]
        assert il.hub_list(t) == [(15.0, c), (33.0, a)]
        assert il.hub_list(a) == [(0.0, a)]
        assert il.hub_list(c) == [(0.0, c)]

    def test_lists_sorted_ascending(self):
        g = random_graph(30, 2.5, rng=random.Random(9))
        assign_uniform_categories(g, 2, 8, random.Random(10))
        labels = build_pruned_landmark_labels(g)
        for il in build_inverted_indexes(g, labels).values():
            for entries in il.lists.values():
                dists = [d for d, _ in entries]
                assert dists == sorted(dists)

    def test_total_entries_equals_member_lin_sum(self):
        g = random_graph(25, 2.5, rng=random.Random(11))
        assign_uniform_categories(g, 1, 6, random.Random(12))
        labels = build_pruned_landmark_labels(g)
        il = build_inverted_index(g, labels, 0)
        expected = sum(len(lin(labels, m)) for m in g.members(0))
        assert il.total_entries == expected

    def test_average_list_length(self, fig1, fig1_labels):
        ma = fig1.category_id("MA")
        il = build_inverted_index(fig1, fig1_labels, ma)
        assert il.average_list_length() == pytest.approx(il.total_entries / il.num_hubs)


class TestOrderInsensitivity:
    def test_random_order_still_correct(self):
        g = grid_graph(5, 5, rng=random.Random(15))
        labels = build_pruned_landmark_labels(g, random_order(g, seed=3))
        for s in range(0, 25, 6):
            dist = dijkstra(g, s)
            for t in range(25):
                assert labels.distance(s, t) == pytest.approx(
                    dist.get(t, INFINITY)
                )

    def test_degree_order_smaller_than_random_on_scale_free(self):
        # Degree order pays off when degrees are skewed (hubs first); on
        # near-regular grids it is a wash, so test on a scale-free graph.
        from repro.graph.generators import social_network

        g = social_network(60, attach=5, seed=3)
        by_degree = build_pruned_landmark_labels(g, degree_order(g))
        by_random = build_pruned_landmark_labels(g, random_order(g, seed=1))
        assert by_degree.size_entries() < by_random.size_entries()
