"""Unit tests for :mod:`repro.graph.graph`."""

import pytest

from repro.exceptions import (
    NegativeWeightError,
    UnknownCategoryError,
    UnknownVertexError,
)
from repro.graph import Graph


class TestVertices:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_preallocated_vertices(self):
        g = Graph(5)
        assert g.num_vertices == 5
        assert list(g.vertices()) == [0, 1, 2, 3, 4]

    def test_add_vertex_returns_new_id(self):
        g = Graph(2)
        assert g.add_vertex() == 2
        assert g.add_vertex() == 3
        assert g.num_vertices == 4

    def test_add_vertices_bulk(self):
        g = Graph()
        g.add_vertices(10)
        assert g.num_vertices == 10

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_unknown_vertex_raises(self):
        g = Graph(3)
        with pytest.raises(UnknownVertexError):
            g.add_edge(0, 5, 1.0)
        with pytest.raises(UnknownVertexError):
            g.neighbors_out(-1)


class TestEdges:
    def test_add_and_query_edge(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.5)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.edge_weight(0, 1) == 2.5
        assert g.num_edges == 1

    def test_undirected_adds_both_directions(self):
        g = Graph(2)
        g.add_edge(0, 1, 3.0, undirected=True)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.num_edges == 2

    def test_parallel_edges_keep_minimum(self):
        g = Graph(2)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 3.0)
        g.add_edge(0, 1, 9.0)
        assert g.edge_weight(0, 1) == 3.0
        assert g.num_edges == 1

    def test_negative_weight_rejected(self):
        g = Graph(2)
        with pytest.raises(NegativeWeightError):
            g.add_edge(0, 1, -1.0)

    def test_zero_weight_allowed(self):
        g = Graph(2)
        g.add_edge(0, 1, 0.0)
        assert g.edge_weight(0, 1) == 0.0

    def test_remove_edge(self):
        g = Graph(2)
        g.add_edge(0, 1, 1.0)
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.num_edges == 0

    def test_remove_missing_edge_raises(self):
        g = Graph(2)
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)

    def test_in_out_adjacency_consistent(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 1, 4.0)
        assert dict(g.neighbors_out(0)) == {1: 1.0}
        assert dict(g.neighbors_in(1)) == {0: 1.0, 2: 4.0}
        assert g.in_degree(1) == 2
        assert g.out_degree(1) == 0
        assert g.degree(1) == 2

    def test_edges_iterator_yields_all(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        assert sorted(g.edges()) == [(0, 1, 1.0), (1, 2, 2.0)]

    def test_reversed_flips_directions(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.5)
        cid = g.add_category("X")
        g.assign_category(2, cid)
        r = g.reversed()
        assert r.has_edge(1, 0) and not r.has_edge(0, 1)
        assert r.has_category(2, 0)


class TestCategories:
    def test_add_category_idempotent(self):
        g = Graph(1)
        a = g.add_category("MA")
        b = g.add_category("MA")
        assert a == b
        assert g.num_categories == 1

    def test_category_name_round_trip(self):
        g = Graph(1)
        cid = g.add_category("RE")
        assert g.category_name(cid) == "RE"
        assert g.category_id("RE") == cid
        assert g.category_names() == ("RE",)

    def test_unknown_category_raises(self):
        g = Graph(1)
        with pytest.raises(UnknownCategoryError):
            g.category_id("nope")
        with pytest.raises(UnknownCategoryError):
            g.category_name(3)

    def test_assign_and_members(self):
        g = Graph(4)
        cid = g.add_category("CI")
        g.assign_category(1, cid)
        g.assign_category(3, cid)
        assert g.members(cid) == {1, 3}
        assert g.category_size(cid) == 2
        assert g.has_category(1, cid)
        assert not g.has_category(0, cid)

    def test_vertex_may_have_multiple_categories(self):
        g = Graph(1)
        a = g.add_category("A")
        b = g.add_category("B")
        g.assign_category(0, a)
        g.assign_category(0, b)
        assert g.categories_of(0) == {a, b}

    def test_unassign(self):
        g = Graph(2)
        cid = g.add_category("A")
        g.assign_category(0, cid)
        g.unassign_category(0, cid)
        assert g.members(cid) == set()
        # idempotent
        g.unassign_category(0, cid)


class TestUtility:
    def test_copy_is_deep(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        cid = g.add_category("A")
        g.assign_category(2, cid)
        c = g.copy()
        c.add_edge(1, 2, 1.0)
        c.assign_category(0, cid)
        assert not g.has_edge(1, 2)
        assert g.members(cid) == {2}
        assert c.members(cid) == {0, 2}

    def test_set_unit_weights(self):
        g = Graph(2)
        g.add_edge(0, 1, 7.5)
        g.set_unit_weights()
        assert g.edge_weight(0, 1) == 1.0
        assert dict(g.neighbors_in(1)) == {0: 1.0}


class TestSymmetry:
    def test_empty_graph_is_symmetric(self):
        assert Graph().is_symmetric()
        assert Graph(3).is_symmetric()

    def test_undirected_edges_in_any_insertion_order(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.0, undirected=True)
        g.add_edge(2, 1, 1.5)
        g.add_edge(0, 2, 4.0)
        g.add_edge(2, 0, 4.0)
        g.add_edge(1, 2, 1.5)
        assert list(g.adjacency()[2]) != list(g.adjacency(incoming=True)[2])
        assert g.is_symmetric()

    def test_one_missing_reverse_edge(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.0, undirected=True)
        g.add_edge(1, 2, 1.0)
        assert not g.is_symmetric()
        g.add_edge(2, 1, 1.0)
        assert g.is_symmetric()
        g.remove_edge(0, 1)
        assert not g.is_symmetric()

    def test_reverse_edge_of_unequal_weight(self):
        g = Graph(2)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 0, 2.5)
        assert not g.is_symmetric()

    def test_adjacency_rows_are_the_neighbor_views(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.0)
        g.add_edge(2, 1, 3.0)
        assert [dict(row) for row in g.adjacency()] == \
            [dict(g.neighbors_out(v)) for v in g.vertices()]
        assert [dict(row) for row in g.adjacency(incoming=True)] == \
            [dict(g.neighbors_in(v)) for v in g.vertices()]
