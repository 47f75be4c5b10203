"""Tests for dynamic category and structure updates (SK-DB over the
saved index file is covered in ``test_service.py``)."""

import random

import pytest

from repro import KOSREngine
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling import (
    add_vertex_to_category,
    remove_vertex_from_category,
)
from repro.labeling.assembly import assemble_index
from repro.labeling.updates import rebuild_after_structure_update, update_edge
from repro.nn.label_nn import PackedLabelNNFinder

from reference_inverted import build_inverted_index, build_inverted_indexes
from reference_pll import build_reference_labels


@pytest.fixture
def setup():
    g = random_graph(30, 3.0, rng=random.Random(1))
    assign_uniform_categories(g, 3, 6, random.Random(2))
    labels = build_reference_labels(g)
    inverted = build_inverted_indexes(g, labels)
    return g, labels, inverted


class TestCategoryUpdates:
    """The module-level update helpers over the packed indexes; the
    object build of the mutated graph is the reference."""

    @pytest.fixture
    def packed(self, setup):
        return assemble_index(setup[0])[:2]

    def test_insert_then_query_sees_vertex(self, setup, packed):
        g, labels, _ = setup
        outsider = next(v for v in range(g.num_vertices) if v not in g.members(0))
        add_vertex_to_category(g, *packed, outsider, 0)
        assert outsider in g.members(0)
        fresh = build_inverted_index(g, labels, 0)
        assert fresh.lists == packed[1][0].as_lists()

    def test_remove_then_index_consistent(self, setup, packed):
        g, labels, _ = setup
        member = next(iter(g.members(0)))
        remove_vertex_from_category(g, *packed, member, 0)
        assert member not in g.members(0)
        fresh = build_inverted_index(g, labels, 0)
        assert fresh.lists == packed[1][0].as_lists()

    def test_insert_idempotent(self, setup, packed):
        g, _, inverted = setup
        member = next(iter(g.members(0)))
        add_vertex_to_category(g, *packed, member, 0)
        assert packed[1][0].version == 0
        assert packed[1][0].as_lists() == inverted[0].lists

    def test_remove_absent_is_noop(self, setup, packed):
        g, _, inverted = setup
        outsider = next(v for v in range(g.num_vertices) if v not in g.members(1))
        remove_vertex_from_category(g, *packed, outsider, 1)
        assert packed[1][1].version == 0
        assert packed[1][1].as_lists() == inverted[1].lists

    def test_nn_results_after_insert(self, setup, packed):
        g, labels, _ = setup
        outsider = next(v for v in range(g.num_vertices) if v not in g.members(2))
        add_vertex_to_category(g, *packed, outsider, 2)
        finder = PackedLabelNNFinder(*packed)
        found = set()
        x = 1
        while True:
            res = finder.find(0, 2, x)
            if res is None:
                break
            found.add(res[0])
            x += 1
        reachable = {m for m in g.members(2) if labels.distance(0, m) != float("inf")}
        assert found == reachable


class TestStructureUpdates:
    def test_edge_insert_changes_distances(self, setup):
        g, labels, _ = setup
        # Add a zero-cost shortcut and rebuild; distance must not increase.
        before = labels.distance(0, 5)
        labels2, inverted2 = update_edge(g, 0, 5, 0.0)
        assert labels2.distance(0, 5) == 0.0
        assert 0 in dict(g.neighbors_in(5))

    def test_edge_delete(self, setup):
        g, _, _ = setup
        u, v, w = next(iter(g.edges()))
        labels2, _ = update_edge(g, u, v, None)
        assert not g.has_edge(u, v)
        from repro.paths.dijkstra import dijkstra_distance

        assert labels2.distance(u, v) == dijkstra_distance(g, u, v)

    def test_rebuild_matches_fresh_build(self, setup):
        g, _, _ = setup
        labels2, inverted2 = rebuild_after_structure_update(g)
        fresh_labels = build_reference_labels(g)
        for s in range(0, g.num_vertices, 7):
            for t in range(g.num_vertices):
                assert labels2.distance(s, t) == fresh_labels.distance(s, t)

    def test_rebuild_emits_packed_indexes(self, setup):
        from repro.labeling.packed import PackedLabelIndex
        from repro.labeling.packed_inverted import PackedInvertedIndex

        g, labels, _ = setup
        labels2, inverted2 = update_edge(g, 0, 5, 0.0)
        assert isinstance(labels2, PackedLabelIndex)
        assert all(isinstance(il, PackedInvertedIndex)
                   for il in inverted2.values())
        assert labels2.distance(0, 5) == 0.0
        # same distances as an object build of the same graph
        labels3 = build_reference_labels(g)
        for s in range(0, g.num_vertices, 7):
            for t in range(g.num_vertices):
                assert labels2.distance(s, t) == labels3.distance(s, t)
