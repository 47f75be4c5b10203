"""Tests for the NN oracles: FindNN (Alg. 3), FindNEN (Alg. 4), Dijkstra NN."""

import random
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import Graph, random_graph
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


def _entries(nl):
    """A cursor's ``NL`` buffer as ``(member, cost)`` pairs."""
    return list(struct.iter_unpack("qd", nl))


class TestPackedCursorRelease:
    """An ended FindNN cursor keeps only its ``NL``, as ``bytes``."""

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
                nl = finder._cursors[(source, cid)]
                assert type(nl) is bytes  # ended
                assert _entries(nl) == want
                # The merge state lived in the generator's frame only,
                # and the generator is gone.
                assert (source, cid) not in finder._live
                # Past the end: still None, and no further attempt booked.
                before = finder.queries
                assert finder.find(source, cid, len(want) + 3) is None
                assert finder.queries == before
        # The attempt that discovered each end was booked exactly like
        # the object finder's (none for cursors born empty).
        assert finder.queries == reference.queries

    def test_cursor_stops_at_its_last_member(self, packed_setup):
        """Once NL holds every member of the category, NQ is emptied on
        that resume; the next find ends the cursor with one booked
        attempt, as a drained cursor's does.  ``dead-ends`` has a member
        no other vertex reaches, so its cursors still drain."""
        from repro.nn.label_nn import PackedLabelNNFinder

        g, engine = packed_setup
        dead_ends = g.category_id("dead-ends")
        stopped = drained = 0
        for source in range(g.num_vertices):
            for cid in range(g.num_categories):
                n = len(enumerate_all(PackedLabelNNFinder(
                    engine.labels, engine.inverted), source, cid))
                if not n:
                    continue
                finder = PackedLabelNNFinder(engine.labels, engine.inverted)
                finder.find(source, cid, n)
                key = (source, cid)
                assert type(finder._cursors[key]) is bytearray  # live
                if cid == dead_ends:
                    assert n < g.category_size(cid)
                    drained += 1
                else:
                    assert n == g.category_size(cid)
                    assert finder._live[key].gi_frame.f_locals["nq"] == []
                    stopped += 1
                before = finder.queries
                assert finder.find(source, cid, n + 1) is None
                assert finder.queries == before + 1
                assert type(finder._cursors[key]) is bytes
                assert key not in finder._live
        assert stopped and drained

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
        assert type(finder._cursors[(source, cid)]) is bytearray
        assert finder._live[(source, cid)].gi_frame.f_locals["found"]


@st.composite
def _suspension_cases(draw):
    """A small digraph (integer weights: no rounding in 2-hop sums), up
    to three categories — with a member no edge enters when drawn — and
    a sequence of ``(source, category, x)`` requests."""
    n = draw(st.integers(2, 12))
    rng = random.Random(draw(st.integers(0, 2**31)))
    g = Graph(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            g.add_edge(u, v, float(rng.randint(1, 9)))
    for c in range(draw(st.integers(1, 3))):
        cid = g.add_category(f"c{c}")
        for v in rng.sample(range(n), rng.randint(1, n)):
            g.assign_category(v, cid)
    if draw(st.booleans()):
        unreached = g.add_vertex()
        g.add_edge(unreached, 0, 1.0)
        g.assign_category(unreached, 0)
    requests = draw(st.lists(
        st.tuples(st.integers(0, g.num_vertices - 1),
                  st.integers(0, g.num_categories - 1),
                  st.integers(1, g.num_vertices + 1)),
        min_size=1, max_size=25))
    return g, requests


class TestCursorSuspension:
    """A suspended cursor keeps only ``NL``; its next advance re-seeds
    the merge from it and continues the same sequence."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_suspension_cases())
    def test_resume_parity(self, case):
        """Suspending between every two requests changes no answer, no
        ``NL`` and no booked attempt, against a never-suspended packed
        finder and the reference.  Every pair asked is also asked for its
        last neighbour and one past it, so suspensions hit the cursor
        stopped at its member count and, with a member nothing reaches,
        the cursor whose reachable members are all produced but whose
        ``NQ`` still holds stale entries."""
        from repro import KOSREngine
        from repro.nn.label_nn import PackedLabelNNFinder

        g, requests = case
        engine = KOSREngine.build(g)

        def packed():
            return PackedLabelNNFinder(engine.labels, engine.inverted)

        suspended, plain = packed(), packed()
        reference = LabelNNFinder.from_index(*_object_indexes(g))
        plan = list(requests)
        for source, cid in dict.fromkeys((s, c) for s, c, _ in requests):
            n = len(enumerate_all(packed(), source, cid))
            if n:
                plan += [(source, cid, n), (source, cid, n + 1)]
        for source, cid, x in plan:
            want = reference.find(source, cid, x)
            assert plain.find(source, cid, x) == want
            assert suspended.find(source, cid, x) == want
            assert suspended.queries == plain.queries == reference.queries
            suspended.suspend()
            assert not suspended._live
        assert suspended._cursors.keys() == reference._cursors.keys()
        for key, nl in suspended._cursors.items():
            other = plain._cursors[key]
            assert nl == other
            assert _entries(nl) == reference._cursors[key].nl
            # ended (bytes) or live (bytearray) alike
            assert type(nl) is type(other)

    def test_both_end_states_are_suspended_and_resumed(self, packed_setup):
        """The fixture's ``dead-ends`` category has a member nothing
        reaches: its cursors drain, the others stop at their member
        count.  Suspended in either state, the next advance re-seeds
        an empty ``NQ`` and ends with the one booked attempt."""
        from repro.nn.label_nn import PackedLabelNNFinder

        g, engine = packed_setup
        dead_ends = g.category_id("dead-ends")
        shapes = set()
        for source in range(g.num_vertices):
            for cid in range(g.num_categories):
                n = len(enumerate_all(PackedLabelNNFinder(
                    engine.labels, engine.inverted), source, cid))
                if not n:
                    continue
                finder = PackedLabelNNFinder(engine.labels, engine.inverted)
                finder.find(source, cid, n)
                key = (source, cid)
                stale = finder._live[key].gi_frame.f_locals["nq"]
                shapes.add((cid == dead_ends, bool(stale)))
                finder.suspend()
                assert not finder._live
                assert type(finder._cursors[key]) is bytearray
                before = finder.queries
                assert finder.find(source, cid, n + 1) is None
                assert finder.queries == before + 1
                nl = finder._cursors[key]
                assert type(nl) is bytes and len(_entries(nl)) == n
        assert (False, False) in shapes and (True, True) in shapes


class TestPackedCursorMemory:
    def test_produced_neighbour_costs_two_array_slots(self):
        """A drained cursor's ``NL`` costs about 16 bytes per neighbour
        (one ``(int64, float64)`` entry of its buffer), not a tuple, a
        float and a list slot (about 88 bytes) that a session would keep
        for its lifetime.
        Large categories amortise each cursor's fixed cost: the whole
        finder, dict and cursor objects included, stays under 40 bytes
        per produced neighbour."""
        import gc
        import tracemalloc

        from repro import KOSREngine
        from repro.nn.label_nn import PackedLabelNNFinder

        g = random_graph(120, 2.5, rng=random.Random(41))
        assign_uniform_categories(g, 2, 60, random.Random(42))
        engine = KOSREngine.build(g)

        def drain(finder):
            for source in range(g.num_vertices):
                for cid in range(g.num_categories):
                    assert finder.find(source, cid, g.num_vertices + 1) \
                        is None
            return finder

        # A first pass reads every category's run directory, so the
        # measured pass allocates cursor state only.
        drain(PackedLabelNNFinder(engine.labels, engine.inverted))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            finder = drain(PackedLabelNNFinder(engine.labels,
                                               engine.inverted))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Strongly connected: every source reaches every member.
        produced = g.num_vertices * 2 * 60
        assert finder.queries == produced + len(finder._cursors)
        assert retained / produced < 40


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
                stream = EstStream(shared, source, cid, dest)
                members = len(g.members(cid))
                for x in range(1, members + 2):
                    stream.fill(x)
                    entries, attempts, estimated = self._cold(
                        engine, target, source, cid, x)
                    got = [stream.enl[i] if i < len(stream.enl) else None
                           for i in range(x)]
                    assert got == entries
                    booked_attempts, demanded = stream.booked(x)
                    assert booked_attempts == attempts
                    assert stream.members(demanded) == estimated
                assert stream.advance is None and stream.end is not None
                if len(stream.enl) < members:
                    ended_early += 1
                if not shared._cursors[(source, cid)]:
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


class TestEstStreamResume:
    """A kept stream suspended after every entry it produces (and its
    cursor with it, as a session does between queries) resumes to the
    stream a never-suspended twin produces: the same entries, bookings
    and end."""

    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_suspended_after_every_entry_matches_a_twin(self, seed):
        from repro import KOSREngine
        from repro.nn.estimated import EstStream
        from repro.nn.label_nn import _SHIFT, PackedLabelNNFinder
        from repro.service.cache import SharedDestKernel

        rng = random.Random(seed)
        g = random_graph(40, 2.0, rng=rng)
        assign_uniform_categories(g, 3, 8, rng)
        engine = KOSREngine.build(g)

        def stream_over(finder, source, cid, target):
            kernel = SharedDestKernel(target,
                                      finder.make_dest_distance(target))
            return EstStream(finder, source, cid, kernel.fn,
                             kernel.memo.get), kernel.memo

        shapes = set()
        for target, other_target in zip(rng.sample(range(40), 4),
                                         rng.sample(range(40), 4)):
            for source in rng.sample(range(40), 10):
                for cid in range(g.num_categories):
                    key = (source, cid)
                    finder = PackedLabelNNFinder(engine.labels,
                                                 engine.inverted)
                    stream, memo = stream_over(finder, source, cid, target)
                    # Another target's stream over the same cursor.
                    other, _ = stream_over(finder, source, cid, other_target)
                    twin, _ = stream_over(
                        PackedLabelNNFinder(engine.labels, engine.inverted),
                        source, cid, target)
                    x = 0
                    while True:
                        x += 1
                        more = stream.fill(x)
                        assert twin.fill(x) == more
                        assert stream.enl == twin.enl
                        assert stream.attempts == twin.attempts
                        assert stream.demanded == twin.demanded
                        assert stream.end == twin.end
                        if not more:
                            assert stream.advance is None
                            break
                        stream.suspend()
                        finder.suspend()
                        assert stream.advance is None and stream.end is None
                        n = stream.demanded[-1]
                        nl = finder._cursors[key]
                        # (a growing NL is one bytearray, grown in place)
                        length, ended = len(nl), type(nl) is bytes
                        if length > n << _SHIFT:
                            shapes.add("lookahead pending")
                        else:
                            produced = {m for m, _, _ in stream.enl}
                            if [m for m in stream.members(n)
                                    if m not in produced
                                    and memo[m] != INFINITY]:
                                shapes.add("dry, ENQ draining")
                        # Meanwhile a query to another target moves the
                        # shared cursor, or runs it to its end.
                        if rng.random() < 0.2:
                            enumerate_all(finder, source, cid)
                        elif rng.random() < 0.5:
                            other.fill(len(other.enl) + rng.randint(1, 3))
                            other.suspend()
                        finder.suspend()
                        moved = finder._cursors[key]
                        if len(moved) > length:
                            shapes.add("cursor advanced meanwhile")
                        if type(moved) is bytes and not ended:
                            shapes.add("cursor ended meanwhile")
        assert shapes == {"lookahead pending", "dry, ENQ draining",
                          "cursor advanced meanwhile",
                          "cursor ended meanwhile"}
