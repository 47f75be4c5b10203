"""Tests for the NN oracles: FindNN (Alg. 3), FindNEN (Alg. 4), Dijkstra NN."""

import random

import pytest

from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.paper import paper_figure1_graph, vertex
from repro.nn import DijkstraNNFinder, EstimatedNNFinder
from repro.paths.dijkstra import dijkstra
from repro.types import INFINITY

from reference_inverted import build_inverted_indexes
from reference_nn import LabelNNFinder
from reference_pll import build_reference_labels


@pytest.fixture(scope="module")
def fig1_setup():
    g = paper_figure1_graph()
    labels = build_reference_labels(g)
    inverted = build_inverted_indexes(g, labels)
    return g, labels, inverted


@pytest.fixture(scope="module")
def random_setup():
    g = random_graph(60, 3.0, rng=random.Random(21))
    assign_uniform_categories(g, 3, 12, random.Random(22))
    labels = build_reference_labels(g)
    inverted = build_inverted_indexes(g, labels)
    return g, labels, inverted


def enumerate_all(finder, source, category):
    out = []
    x = 1
    while True:
        res = finder.find(source, category, x)
        if res is None:
            return out
        out.append(res)
        x += 1


class TestLabelNN:
    def test_example4_nearest_of_s_in_ma(self, fig1_setup):
        g, labels, inverted = fig1_setup
        finder = LabelNNFinder.from_index(labels, inverted)
        ma = g.category_id("MA")
        assert finder.find(vertex("s"), ma, 1) == (vertex("a"), 8.0)

    def test_example5_second_nearest_of_s_in_ma(self, fig1_setup):
        g, labels, inverted = fig1_setup
        finder = LabelNNFinder.from_index(labels, inverted)
        ma = g.category_id("MA")
        finder.find(vertex("s"), ma, 1)
        assert finder.find(vertex("s"), ma, 2) == (vertex("c"), 10.0)
        assert finder.find(vertex("s"), ma, 3) is None

    def test_matches_dijkstra_knn_everywhere(self, random_setup):
        g, labels, inverted = random_setup
        finder = LabelNNFinder.from_index(labels, inverted)
        for source in range(0, g.num_vertices, 9):
            for cid in range(g.num_categories):
                dist = dijkstra(g, source)
                expected = sorted(
                    (dist[m], m) for m in g.members(cid) if m in dist
                )
                got = enumerate_all(finder, source, cid)
                assert [d for _, d in got] == pytest.approx(
                    [d for d, _ in expected]
                )
                assert {v for v, _ in got} == {m for _, m in expected}

    def test_nl_cache_hits_not_counted(self, random_setup):
        g, labels, inverted = random_setup
        finder = LabelNNFinder.from_index(labels, inverted)
        finder.find(0, 0, 3)
        queries_after_first = finder.queries
        finder.find(0, 0, 1)
        finder.find(0, 0, 2)
        finder.find(0, 0, 3)
        assert finder.queries == queries_after_first

    def test_duplicate_members_through_two_hubs_skipped(self, random_setup):
        g, labels, inverted = random_setup
        finder = LabelNNFinder.from_index(labels, inverted)
        for source in range(0, g.num_vertices, 7):
            got = enumerate_all(finder, source, 1)
            members = [v for v, _ in got]
            assert len(members) == len(set(members)), "no member may repeat"

    def test_source_in_category_is_own_nearest(self, random_setup):
        g, labels, inverted = random_setup
        finder = LabelNNFinder.from_index(labels, inverted)
        member = next(iter(g.members(0)))
        assert finder.find(member, 0, 1) == (member, 0.0)

    def test_distance_delegates_to_labels(self, random_setup):
        g, labels, inverted = random_setup
        finder = LabelNNFinder.from_index(labels, inverted)
        assert finder.distance(3, 9) == labels.distance(3, 9)

    def test_empty_category(self, random_setup):
        g, labels, inverted = random_setup
        cid = g.add_category("empty")
        finder = LabelNNFinder.from_index(labels, build_inverted_indexes(g, labels))
        assert finder.find(0, cid, 1) is None


class TestDijkstraNN:
    @pytest.mark.parametrize("mode", ["restart", "resume"])
    def test_matches_label_nn(self, random_setup, mode):
        g, labels, inverted = random_setup
        label_finder = LabelNNFinder.from_index(labels, inverted)
        dij_finder = DijkstraNNFinder(g, mode=mode)
        for source in (0, 13, 27):
            for cid in range(g.num_categories):
                a = enumerate_all(label_finder, source, cid)
                b = enumerate_all(dij_finder, source, cid)
                assert [d for _, d in a] == pytest.approx([d for _, d in b])

    def test_restart_recounts_each_new_x(self, random_setup):
        g, _, _ = random_setup
        finder = DijkstraNNFinder(g, mode="restart")
        finder.find(0, 0, 1)
        finder.find(0, 0, 2)
        assert finder.queries == 2
        finder.find(0, 0, 1)  # memo hit
        assert finder.queries == 2

    def test_resume_counts_only_new_work(self, random_setup):
        g, _, _ = random_setup
        finder = DijkstraNNFinder(g, mode="resume")
        finder.find(0, 0, 3)
        q = finder.queries
        finder.find(0, 0, 2)
        assert finder.queries == q

    def test_invalid_mode(self, random_setup):
        with pytest.raises(ValueError):
            DijkstraNNFinder(random_setup[0], mode="bogus")


class TestEstimatedNN:
    def test_order_is_by_leg_plus_estimate(self, random_setup):
        g, labels, inverted = random_setup
        target = 5
        base = LabelNNFinder.from_index(labels, inverted)
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, target))
        for source in (0, 11, 23):
            for cid in range(g.num_categories):
                got = []
                x = 1
                while True:
                    res = est.find(source, cid, x)
                    if res is None:
                        break
                    got.append(res)
                    x += 1
                estimates = [e for _, _, e in got]
                assert estimates == sorted(estimates)
                expected = sorted(
                    labels.distance(source, m) + labels.distance(m, target)
                    for m in g.members(cid)
                    if labels.distance(source, m) != INFINITY
                    and labels.distance(m, target) != INFINITY
                )
                assert estimates == pytest.approx(expected)

    def test_members_unreachable_to_target_dropped(self, fig1_setup):
        g, labels, inverted = fig1_setup
        base = LabelNNFinder.from_index(labels, inverted)
        # target f: no vertex reaches f except e (and f itself); MA members
        # a and c must both be dropped when estimating towards f... a reaches
        # f via e, c cannot (c -> b -> s -> a -> e -> f exists). Use a graph
        # fact: everything reaching e reaches f, so check with target s:
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, vertex("s")))
        ma = g.category_id("MA")
        got = []
        x = 1
        while True:
            res = est.find(vertex("s"), ma, x)
            if res is None:
                break
            got.append(res)
            x += 1
        assert [v for v, _, _ in got]  # both malls can reach s
        assert all(e != INFINITY for _, _, e in got)

    def test_enl_cache_stable(self, random_setup):
        g, labels, inverted = random_setup
        base = LabelNNFinder.from_index(labels, inverted)
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, 3))
        first = est.find(0, 0, 2)
        again = est.find(0, 0, 2)
        assert first == again

    def test_example6_first_estimated_neighbor(self, fig1_setup):
        """Example 6: the 1st nearest *estimated* neighbor of s in MA is c
        (10 + 7 = 17 beats a's 8 + 12 = 20)."""
        g, labels, inverted = fig1_setup
        base = LabelNNFinder.from_index(labels, inverted)
        est = EstimatedNNFinder(base, lambda v: labels.distance(v, vertex("t")))
        ma = g.category_id("MA")
        first = est.find(vertex("s"), ma, 1)
        assert first[0] == vertex("c")
        assert first[2] == 17.0
        second = est.find(vertex("s"), ma, 2)
        assert second[0] == vertex("a")
        assert second[2] == 20.0


@pytest.fixture(scope="module")
def packed_setup():
    """A small engine whose streams come in every shape: full, ending
    before the category does, and born empty."""
    from repro import KOSREngine

    g = random_graph(45, 2.2, rng=random.Random(31))
    assign_uniform_categories(g, 3, 5, random.Random(32))
    # A sink (reachable, reaches nothing) and a vertex with no edges at
    # all share category 3; category 4 has no members.
    sink, lonely = g.add_vertex(), g.add_vertex()
    g.add_edge(0, sink, 1.0)
    g.add_edge(7, sink, 2.5)
    cid = g.add_category("dead-ends")
    g.assign_category(sink, cid)
    g.assign_category(lonely, cid)
    g.add_category("nobody")
    engine = KOSREngine.build(g)
    return g, engine


class TestPackedCursorRelease:
    """An ended FindNN cursor keeps only its ``NL``."""

    def test_exhausted_cursor_sheds_merge_state(self, packed_setup):
        from repro.nn.label_nn import PackedLabelNNFinder

        g, engine = packed_setup
        finder = PackedLabelNNFinder(engine.labels, engine.inverted)
        reference = LabelNNFinder.from_index(*_object_indexes(g))
        for source in range(g.num_vertices):
            for cid in range(g.num_categories):
                want = enumerate_all(reference, source, cid)
                got = enumerate_all(finder, source, cid)
                assert got == want
                cursor = finder._cursors[(source, cid)]
                assert cursor.exhausted
                assert cursor.nl == want
                assert cursor.gen is None and cursor.found is None
                assert cursor.nq is None
                # Past the end: still None, and no further attempt booked.
                before = finder.queries
                assert finder.find(source, cid, len(want) + 3) is None
                assert finder.queries == before
        # The attempt that discovered each end was booked exactly like
        # the object finder's (none for cursors born empty).
        assert finder.queries == reference.queries

    def test_live_cursor_keeps_its_state(self, packed_setup):
        from repro.nn.label_nn import PackedLabelNNFinder

        g, engine = packed_setup
        finder = PackedLabelNNFinder(engine.labels, engine.inverted)
        source, cid = next(
            (s, c) for s in range(g.num_vertices)
            for c in range(g.num_categories)
            if len(enumerate_all(
                PackedLabelNNFinder(engine.labels, engine.inverted), s, c)) > 1)
        finder.find(source, cid, 1)
        cursor = finder._cursors[(source, cid)]
        assert not cursor.exhausted
        assert cursor.gen is not None and cursor.found


def _object_indexes(g):
    labels = build_reference_labels(g)
    return labels, build_inverted_indexes(g, labels)


class TestEstStream:
    """The fused FindNEN stream against the generic Algorithm 4 wrapper:
    same entries, and per position the bookings a cold run would make."""

    def _cold(self, engine, target, source, cid, x):
        """A cold generic FindNEN asked for entries 1..x: the entries,
        the plain-NN attempts and the vertices it estimated."""
        from repro.nn.label_nn import PackedLabelNNFinder

        finder = PackedLabelNNFinder(engine.labels, engine.inverted)
        dest = finder.make_dest_distance(target)
        estimated = []

        def estimate(v):
            estimated.append(v)
            return dest(v)

        generic = EstimatedNNFinder(finder, estimate)
        entries = [generic.find(source, cid, i) for i in range(1, x + 1)]
        return entries, finder.queries, estimated

    def test_positions_book_like_a_cold_findnen(self, packed_setup):
        from repro.nn.estimated import EstStream
        from repro.nn.label_nn import PackedLabelNNFinder

        g, engine = packed_setup
        target = 7
        shared = PackedLabelNNFinder(engine.labels, engine.inverted)
        dest = shared.make_dest_distance(target)
        ended_early = born_empty = 0
        for source in list(range(0, g.num_vertices - 2, 3)) + [
                g.num_vertices - 2, g.num_vertices - 1]:
            for cid in range(g.num_categories):
                # Somebody else may already have advanced the shared
                # cursor (or run it dry): bookings must not depend on it.
                if (source + cid) % 2:
                    enumerate_all(shared, source, cid)
                stream = EstStream(shared.cursor_for(source, cid), dest)
                members = len(g.members(cid))
                for x in range(1, members + 2):
                    while len(stream.enl) < x and stream.advance is not None:
                        try:
                            stream.advance()
                        except StopIteration:
                            pass
                    entries, attempts, estimated = self._cold(
                        engine, target, source, cid, x)
                    got = [stream.enl[i] if i < len(stream.enl) else None
                           for i in range(x)]
                    assert got == entries
                    booked_attempts, demanded = stream.booked(x)
                    assert booked_attempts == attempts
                    assert [m for m, _ in stream.nl[:demanded]] == estimated
                assert stream.advance is None and stream.end is not None
                if len(stream.enl) < members:
                    ended_early += 1
                if not stream.nl:
                    born_empty += 1
                    assert stream.end == (0, 0)
        assert ended_early and born_empty  # both shapes were exercised

    def test_packed_make_estimated_counts_like_generic(self, packed_setup):
        from repro.nn.label_nn import PackedLabelNNFinder

        g, engine = packed_setup
        target = 11
        finder = PackedLabelNNFinder(engine.labels, engine.inverted)
        fused = finder.make_estimated(finder.make_dest_distance(target))
        asked = [(s, c, x) for s in (0, 4, 9) for c in range(g.num_categories)
                 for x in (2, 1, 3)]
        cold = PackedLabelNNFinder(engine.labels, engine.inverted)
        generic = EstimatedNNFinder(cold, cold.make_dest_distance(target))
        for s, c, x in asked:
            assert fused.find(s, c, x) == generic.find(s, c, x)
        assert fused.queries == generic.queries
        assert finder.queries == 0  # booked from positions, not advances
