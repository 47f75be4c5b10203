"""The columnar PLL builder against the independent reference builder.

``tests/reference_pll.py`` is the object-building, always-two-searches
construction; the product builder must produce the same labels entry for
entry — ``(rank, dist, parent)`` on both sides — and therefore the same
index file, byte for byte, on every graph class, including the ones where
it runs a single search per root.
"""

import hashlib
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KOSREngine
from repro.graph import Graph, generators
from repro.graph.io import load_json, save_json
from repro.labeling import (
    build_bfs_labels,
    build_labels_auto,
    build_pruned_landmark_labels,
    pll,
    write_index_file,
)
from repro.labeling.updates import update_edge

from reference_labels import from_index, lin, lout
from reference_pll import build_reference_labels

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def entries(labels):
    """Every label as ``(rank, dist, parent)`` tuples, Lin then Lout."""
    return [[(e.hub_rank, e.dist, e.parent) for e in side(labels, v)]
            for side in (lin, lout)
            for v in range(labels.num_vertices)]


def file_bytes(labels) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "labels.rpli"
        write_index_file(path, labels)
        return path.read_bytes()


def assert_same_as_reference(built, reference):
    assert list(built.order) == reference.order
    assert entries(built) == entries(reference)
    assert file_bytes(built) == file_bytes(from_index(reference))


@pytest.fixture
def searches(monkeypatch):
    """The root of every pruned search the builder runs, in order."""
    calls = []
    real = pll._pruned_search

    def counted(rows, root, *rest):
        calls.append(root)
        return real(rows, root, *rest)

    monkeypatch.setattr(pll, "_pruned_search", counted)
    return calls


WEIGHTS = {
    "float": lambda rng: rng.uniform(0.05, 9.0),
    "small-int": lambda rng: rng.randint(1, 3),
    "zero-heavy": lambda rng: rng.choice((0, 0, 1, 2.5)),
    "unit": lambda rng: 1.0,
}


@st.composite
def graphs(draw):
    """Directed or undirected, possibly disconnected, with the reverse
    edges of an undirected graph inserted in their own shuffled order (so
    the two adjacency sides are mapping-equal but not sequence-equal),
    plus an explicit hub order or ``None``."""
    n = draw(st.integers(1, 12))
    undirected = draw(st.booleans())
    weight = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    rng = random.Random(draw(st.integers(0, 2**31)))
    edges = {}
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (v, u) not in edges:
            edges[u, v] = weight(rng)
    arcs = list(edges.items())
    if undirected:
        arcs += [((v, u), w) for (u, v), w in edges.items()]
    rng.shuffle(arcs)
    g = Graph(n)
    for (u, v), w in arcs:
        g.add_edge(u, v, w)
    assert g.is_symmetric() == (undirected or not edges)
    order = None
    if draw(st.booleans()):
        order = list(range(n))
        rng.shuffle(order)
    return g, order


class TestDifferential:
    @SETTINGS
    @given(graphs())
    def test_entry_for_entry_and_byte_for_byte(self, case):
        g, order = case
        assert_same_as_reference(build_labels_auto(g, order),
                                 build_reference_labels(g, order))
        # the heap frontier also on unit-weight graphs (auto picks the deque)
        assert_same_as_reference(build_pruned_landmark_labels(g, order),
                                 build_reference_labels(g, order, bfs=False))

    def test_explicit_bfs_builder(self):
        g = generators.social_network(60, attach=3, seed=2)
        assert_same_as_reference(build_bfs_labels(g),
                                 build_reference_labels(g, bfs=True))


#: sha256 of the index file ``cli index build`` writes (labels + inverted
#: sections), recorded from the object-building builder before the
#: columnar one replaced it
PINNED = {
    ("CAL", 0.25):
        "126e2875bd4872462aa80bc0003be5b8a66492a85cfa35dcf0269a831f08911b",
    ("FLA", 0.1):
        "239ffdd26076c460df54d105299c8caaf2d1b5c8ace19cfa996cb5881b07e877",
    ("G+", 0.05):
        "9934e8f5094ef94eaa20e0191272d720631635f3955cdbcc84c859265d7c8268",
}


@pytest.mark.parametrize("name,scale", sorted(PINNED))
def test_index_file_digest_is_pinned(name, scale, tmp_path):
    g = generators.dataset_by_name(name, scale=scale)
    path = tmp_path / "index.rpli"
    KOSREngine.build(g, name=name).save_index(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        PINNED[name, scale]


def _undirected(n, seed, weight):
    """A connected undirected graph whose two adjacency sides list each
    row's neighbours in different orders."""
    rng = random.Random(seed)
    pairs = {(v, rng.randrange(v)) for v in range(1, n)}
    pairs |= {tuple(rng.sample(range(n), 2)) for _ in range(2 * n)}
    pairs = sorted({tuple(sorted(pair)) for pair in pairs})
    arcs = [(u, v, weight(rng)) for u, v in pairs]
    arcs += [(v, u, w) for u, v, w in arcs]
    rng.shuffle(arcs)
    g = Graph(n)
    for u, v, w in arcs:
        g.add_edge(u, v, w)
    assert g.is_symmetric()
    assert any(list(out) != list(into) for out, into
               in zip(g.adjacency(), g.adjacency(incoming=True)))
    return g


class TestSymmetricGraphs:
    """One search per root on a symmetric weighted graph, two otherwise —
    and the reference's answer either way."""

    def test_json_round_trip_of_cal(self, searches, tmp_path):
        cal = generators.dataset_by_name("CAL", scale=0.25)
        save_json(cal, tmp_path / "cal.json")
        g = load_json(tmp_path / "cal.json")
        # the benchmark's case: mapping-equal, sequence-unequal adjacency
        assert g.is_symmetric()
        assert any(list(out) != list(into) for out, into
                   in zip(g.adjacency(), g.adjacency(incoming=True)))
        built = build_labels_auto(g)
        assert len(searches) == g.num_vertices
        assert_same_as_reference(built, build_reference_labels(g))
        assert built.lout_side() is built.lin_side()
        assert built.nbytes_resident < built.nbytes_serialized

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_heavy_integer_weights(self, searches, seed):
        g = _undirected(30, seed, lambda rng: rng.randint(0, 3))
        built = build_labels_auto(g)
        assert len(searches) == g.num_vertices
        assert_same_as_reference(built, build_reference_labels(g))

    def test_one_directional_update_runs_both_searches_again(self, searches):
        g = _undirected(25, 3, lambda rng: float(rng.randint(1, 9)))
        build_labels_auto(g)
        assert len(searches) == g.num_vertices
        del searches[:]
        u, v = next((u, v) for u, v, _ in g.edges())
        labels, _ = update_edge(g, u, v, g.edge_weight(u, v) + 0.5)
        assert not g.is_symmetric()
        assert len(searches) == 2 * g.num_vertices
        assert_same_as_reference(labels, build_reference_labels(g))
        assert labels.lout_side() is not labels.lin_side()

    def test_unit_weight_graphs_always_run_both_searches(self, searches):
        """The deque discovers in adjacency-row order, which may differ
        between the two sides of a symmetric graph: on this diamond the
        forward search from 0 reaches 3 through 1, the backward one
        through 2, so ``Lout`` must not alias ``Lin``."""
        g = Graph(4)
        for u, v in ((0, 1), (0, 2), (1, 3), (2, 3),
                     (2, 0), (1, 0), (3, 2), (3, 1)):
            g.add_edge(u, v, 1.0)
        assert g.is_symmetric()
        built = build_labels_auto(g, order=[0, 1, 2, 3])
        assert len(searches) == 2 * g.num_vertices
        assert (lin(built, 3)[0].parent, lout(built, 3)[0].parent) == (1, 2)
        assert_same_as_reference(
            built, build_reference_labels(g, order=[0, 1, 2, 3]))
        g = _undirected(30, 5, lambda rng: 1.0)
        assert_same_as_reference(build_labels_auto(g),
                                 build_reference_labels(g))
