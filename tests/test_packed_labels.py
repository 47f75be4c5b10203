"""Tests for the packed/compressed label index (parity with LabelIndex)."""

import pickle
import random

import pytest

from repro.exceptions import IndexStorageError
from repro.graph import grid_graph, random_graph
from repro.graph.paper import paper_figure1_graph
from repro.labeling import PackedLabelIndex, build_pruned_landmark_labels
from repro.types import INFINITY

from reference_labels import from_index, lin, lout, to_index
from reference_pll import build_reference_labels


@pytest.fixture(scope="module")
def case():
    g = random_graph(45, 3.0, rng=random.Random(33))
    labels = build_reference_labels(g)
    return g, labels, from_index(labels)


class TestParity:
    def test_distances_identical(self, case):
        g, labels, packed = case
        for s in range(0, g.num_vertices, 4):
            for t in range(g.num_vertices):
                assert packed.distance(s, t) == labels.distance(s, t)

    def test_distance_with_hub_identical(self, case):
        g, labels, packed = case
        for s in range(0, g.num_vertices, 7):
            for t in range(0, g.num_vertices, 3):
                assert packed.distance_with_hub(s, t) == labels.distance_with_hub(s, t)

    def test_paths_identical(self, case):
        g, labels, packed = case
        rng = random.Random(34)
        for _ in range(30):
            s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            assert packed.path(s, t) == labels.path(s, t)

    def test_entries_round_trip(self, case):
        g, labels, packed = case
        for v in range(g.num_vertices):
            assert lin(packed, v) == lin(labels, v)
            assert lout(packed, v) == lout(labels, v)

    def test_to_index_full_unpack(self, case):
        g, labels, packed = case
        unpacked = to_index(packed)
        for v in range(g.num_vertices):
            assert lin(unpacked, v) == lin(labels, v)
            assert lout(unpacked, v) == lout(labels, v)
        assert unpacked.order == labels.order

    def test_stats_match(self, case):
        _, labels, packed = case
        assert packed.size_entries() == labels.size_entries()
        assert packed.average_label_sizes() == pytest.approx(
            labels.average_label_sizes()
        )

    def test_unreachable(self):
        from repro.graph import from_edge_list

        g = from_edge_list(3, [(0, 1, 1.0)])
        packed = build_pruned_landmark_labels(g)
        assert packed.distance(1, 0) == INFINITY
        assert packed.path(1, 0) == (INFINITY, [])


class TestSerialization:
    def test_save_load_round_trip(self, case, tmp_path):
        g, labels, packed = case
        path = tmp_path / "labels.bin"
        written = packed.save(path)
        assert written == path.stat().st_size
        loaded = PackedLabelIndex.load(path)
        assert loaded.order == packed.order
        for v in range(g.num_vertices):
            assert lin(loaded, v) == lin(packed, v)
            assert lout(loaded, v) == lout(packed, v)

    def test_binary_smaller_than_pickle(self, case, tmp_path):
        g, labels, packed = case
        path = tmp_path / "labels.bin"
        written = packed.save(path)
        pickled = len(pickle.dumps(labels))
        assert written < pickled

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(IndexStorageError):
            PackedLabelIndex.load(path)

    def test_packed_memory_accounting(self, case):
        _, _, packed = case
        assert packed.nbytes > 0

    def test_fig1_round_trip(self, tmp_path):
        g = paper_figure1_graph()
        labels = build_reference_labels(g)
        packed = from_index(labels)
        path = tmp_path / "fig1.bin"
        packed.save(path)
        loaded = PackedLabelIndex.load(path)
        for s in g.vertices():
            for t in g.vertices():
                assert loaded.distance(s, t) == labels.distance(s, t)
