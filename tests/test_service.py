"""The query service layer: planner table, session cache, batches.

Covers the contracts the engine facade now rests on:

* the planner resolves every method to its row of the method table
  and rejects unknown names;
* the epoch-versioned session cache reuses finders / dest kernels within
  an epoch and drops everything when updates or compaction move it;
* SK-DB is StarKOSR over the saved index file — identical results and
  counters to SK for built, attached and warm-session execution — and
  its error paths (no saved file, a stale, deleted or truncated one)
  surface the right exceptions on both the cold and warm paths;
* ``strict_budget`` interacts correctly with both guard kinds, including
  ``time_budget_s`` deadlines;
* an interleaved update/batch fuzz pins warm execution to fresh
  single-query engines — bit-identical results and counters — right
  through ``update_edge`` and ``compact``.
"""

import gc
import json
import random
from types import GeneratorType

import pytest

from repro import (
    BudgetExceededError,
    KOSREngine,
    QueryOptions,
    QueryService,
    make_query,
)
from repro.exceptions import IndexStorageError, QueryError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling import write_index_file
from repro.service import resolve_plan
from repro.service.cache import SessionCache

from conftest import reference_engine
from test_backend_parity import assert_same_outcome

SK = QueryOptions(method="SK")
SK_DB = QueryOptions(method="SK-DB")


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture(scope="module")
def engine():
    return KOSREngine.build(_graph(13))


class TestPlanner:
    @pytest.mark.parametrize("method, switches", [
        # (use_dominance, estimated, index_file, needs_finder, needs_ch):
        # Algorithm 2's two switches, Sec. IV-C's disk-resident index,
        # and the GSP comparators
        ("KPNE", (False, False, False, True, False)),
        ("PK", (True, False, False, True, False)),
        ("SK", (True, True, False, True, False)),
        ("SK-NODOM", (False, True, False, True, False)),
        ("SK-DB", (True, True, True, True, False)),
        ("GSP", (False, False, False, False, False)),
        ("GSP-CH", (False, False, False, False, True)),
    ])
    def test_the_method_table_is_the_papers(self, method, switches):
        from repro.core.engine import METHODS
        from repro.service import METHOD_TABLE, NN_BACKENDS

        assert tuple(METHOD_TABLE) == METHODS and method in METHODS
        spec = METHOD_TABLE[method]
        assert (spec.use_dominance, spec.estimated, spec.index_file,
                spec.needs_finder, spec.needs_ch) == switches
        for nn_backend in NN_BACKENDS:
            assert resolve_plan(method, nn_backend) is spec

    def test_unknown_method_rejected(self):
        with pytest.raises(QueryError, match="unknown method"):
            resolve_plan("NOPE")

    def test_unknown_nn_backend_rejected_only_for_finder_methods(self):
        with pytest.raises(QueryError, match="unknown NN backend"):
            resolve_plan("SK", nn_backend="psychic")
        # GSP ignores the oracle axis (historical engine behaviour)
        assert resolve_plan("GSP", nn_backend="psychic").method == "GSP"

    def test_plans_are_value_objects(self):
        assert resolve_plan("SK") == resolve_plan("SK")
        assert resolve_plan("SK") != resolve_plan("PK")

    def test_every_caller_resolves_to_the_one_plan_object(self):
        """A plan is the method's table row: every caller (engine,
        services, router, admission) gets the same object."""
        from repro.service import METHOD_TABLE

        row = METHOD_TABLE["SK"]
        assert resolve_plan("SK") is row
        assert resolve_plan("SK", "label") is row
        assert QueryOptions(method="SK").plan_for() is row
        # a free-form backend on a finder-free method is its row too
        assert (resolve_plan("GSP", nn_backend="psychic")
                is METHOD_TABLE["GSP"])

    def test_engine_run_rejects_unknown_method(self, engine):
        q = make_query(engine.graph, 0, 1, [0], k=1)
        with pytest.raises(QueryError, match="unknown method"):
            engine.run(q, QueryOptions(method="NOPE"))


class TestSessionCache:
    def test_finder_and_dest_kernel_reused_within_epoch(self, engine):
        service = QueryService(engine)
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)
        service.run(q, SK)
        service.run(q, SK)
        stats = service.session.stats
        assert stats.finder_misses == 1
        assert stats.finder_hits >= 1
        assert stats.dest_kernel_misses == 1
        assert stats.dest_kernel_hits >= 1

    def test_epoch_moves_on_every_update_kind(self):
        engine = KOSREngine.build(_graph(17))
        seen = {engine.index_epoch}

        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert engine.index_epoch not in seen
        seen.add(engine.index_epoch)

        engine.remove_vertex_from_category(outsider, 0)
        assert engine.index_epoch not in seen
        seen.add(engine.index_epoch)

        engine.compact()
        assert engine.index_epoch not in seen
        seen.add(engine.index_epoch)

        engine.update_edge(0, engine.graph.num_vertices - 1, 1.5)
        assert engine.index_epoch not in seen

    def test_epoch_sees_updates_behind_the_engines_back(self):
        """Direct labeling-layer mutations still move the epoch."""
        from repro.labeling.updates import add_vertex_to_category

        engine = KOSREngine.build(_graph(19))
        before = engine.index_epoch
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        add_vertex_to_category(engine.graph, engine.labels, engine.inverted,
                               outsider, 0)
        assert engine.index_epoch > before

    def test_category_update_invalidates_only_that_category(self):
        """A membership update drops the touched category's cursors only:
        the shared finder object (and other categories' streams) survive."""
        engine = KOSREngine.build(_graph(23))
        session = SessionCache(engine)
        view = session.finder_view()
        assert session.finder_view()._shared is view._shared  # warm reuse
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert session.validate() is True  # something dropped
        assert session.finder_view()._shared is view._shared  # finder kept
        assert session.stats.invalidations == 0
        assert session.stats.partial_invalidations == 1
        assert session.validate() is False  # stable again

    def test_edge_update_still_drops_everything(self):
        """A structure update moves epoch_base: wholesale invalidation."""
        engine = KOSREngine.build(_graph(23))
        session = SessionCache(engine)
        view = session.finder_view()
        u, v, w = next(iter(engine.graph.edges()))
        engine.update_edge(u, v, w * 2)
        assert session.validate() is True
        assert session.finder_view()._shared is not view._shared  # dropped
        assert session.stats.invalidations == 1
        assert session.validate() is False

    def test_lazy_query_time_patch_does_not_move_epoch(self):
        """Decoding the edited category's runs mid-query is physical only."""
        engine = KOSREngine.build(_graph(27))
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        epoch = engine.index_epoch
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1], k=3)
        engine.service.run(q, SK)  # reading the runs moves no version
        assert engine.index_epoch == epoch

    def test_batch_result_shape(self, engine):
        g = engine.graph
        queries = [make_query(g, s, 30, [0, 1], k=2) for s in (0, 1, 2)]
        queries.append(make_query(g, 0, 31, [1, 2], k=2))
        batch = engine.service.run_batch(queries, SK)
        assert len(batch) == 4
        assert batch.num_groups == 2
        assert batch.unfinished == 0
        assert [r.query for r in batch] == queries  # input order kept
        assert batch.queries_per_second > 0

    def test_group_queries_keys_on_target_and_category_sequence(self, engine):
        """Groupmates share a target and the ordered category sequence;
        indexes keep input order within a group."""
        g = engine.graph
        queries = [
            make_query(g, 3, 30, [1, 0], k=2),
            make_query(g, 4, 30, [0, 1], k=2),
            make_query(g, 5, 30, [1, 0], k=3),
            make_query(g, 3, 31, [1, 0], k=2),
        ]
        groups = QueryService.group_queries(queries)
        assert groups == {(30, (1, 0)): [0, 2], (30, (0, 1)): [1],
                          (31, (1, 0)): [3]}
        assert list(groups) == [(30, (1, 0)), (30, (0, 1)), (31, (1, 0))]


class TestCacheRetention:
    """Per-category invalidation: untouched categories stay warm.

    The satellite contract: after updating category A, category B's warm
    entries survive (asserted through ``CacheStats.hit_rates()`` /
    stats counters) and A's cursors are the only ones dropped — while
    answers and ``QueryStats`` on both categories stay bit-identical to
    fresh engines.
    """

    def _warm_two_categories(self):
        g = _graph(31)
        engine = KOSREngine.build(g)
        service = engine.service
        qa = make_query(g, 0, g.num_vertices - 1, [0], k=2)
        qb = make_query(g, 1, g.num_vertices - 1, [1], k=2)
        service.run(qa, SK)
        service.run(qb, SK)
        return engine, service, qa, qb

    def test_update_a_keeps_b_warm(self):
        engine, service, qa, qb = self._warm_two_categories()
        session = service.session
        cursors = session._label_finder._cursors
        assert (0, 0) in cursors and (1, 1) in cursors
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert session.validate() is True
        # A's cursor is the only thing dropped; B's stream survives.
        assert (0, 0) not in cursors
        assert (1, 1) in cursors
        assert session.stats.cursors_invalidated == 1
        assert session.stats.partial_invalidations == 1
        assert session.stats.invalidations == 0

    def test_b_hits_warm_after_a_update_with_cold_parity(self):
        engine, service, qa, qb = self._warm_two_categories()
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        before = service.session.stats.as_dict()
        warm_b = service.run(qb, SK)
        after = service.session.stats.as_dict()
        # The finder lookup was a hit: B was served from retained state.
        assert after["finder_hits"] == before["finder_hits"] + 1
        assert after["finder_misses"] == before["finder_misses"]
        assert service.session.stats.hit_rates()["finder"] > 0.0
        # ... and both categories still answer exactly like fresh engines.
        fresh = reference_engine(engine.graph.copy())
        assert_same_outcome(warm_b, fresh.run(qb, SK))
        assert_same_outcome(service.run(qa, SK),
                            fresh.run(qa, SK))

    def test_category_update_drops_only_that_categorys_streams(self):
        g = _graph(31)
        engine = KOSREngine.build(g)
        service = engine.service
        session = service.session
        t = g.num_vertices - 1
        q = make_query(g, 0, t, [0, 1], k=3)
        for _ in range(3):
            service.run(q, SK)
        streams = session._dest_kernels[t].streams
        assert any(streams[0].values()) and any(streams[1].values())
        kept = dict(streams[1])
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        for update in (engine.add_vertex_to_category,
                       engine.remove_vertex_from_category):
            update(outsider, 0)
            assert session.validate() is True
            assert 0 not in streams           # every kernel lost category 0
            assert streams[1] == kept         # ... and nothing else
            before = session.stats.as_dict()
            fresh = reference_engine(g.copy())
            for _ in range(3):  # re-mark, re-admit, read back
                assert_same_outcome(service.run(q, SK),
                                    fresh.run(q, SK))
            after = session.stats.as_dict()
            assert after["est_stream_misses"] > before["est_stream_misses"]
            assert after["est_stream_hits"] > before["est_stream_hits"]
            assert any(streams[0].values())
            kept = dict(streams[1])  # may have grown: new members extend

    def test_dropped_cursors_take_their_live_merges_along(self):
        """A category update between two queries drops the category's
        cursors together with their live merge generators, before any
        suspension; so does a ``max_finders`` eviction.  No merge over
        superseded hub runs is left to resume, whatever order
        invalidation and suspension run in."""
        g = _graph(31)
        engine = KOSREngine.build(g)
        service = QueryService(engine)
        session = service.session
        t = g.num_vertices - 1
        q = make_query(g, 0, t, [0, 1], k=2)
        service.run(q, SK)
        finder = session._label_finder
        # Unfinished cursors of both categories still hold their merge.
        assert {cid for _, cid in finder._live} == {0, 1}
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        engine.add_vertex_to_category(outsider, 0)
        assert session.validate() is True
        assert {cid for _, cid in finder._live} == {1}
        assert set(finder._live) <= set(finder._cursors)
        assert_same_outcome(service.run(q, SK),
                            reference_engine(g.copy()).run(q, SK))
        # An eviction outside the between-queries seam: the trimmed
        # cursors' merges go with them.
        session.max_finders = 1
        assert len(finder._live) > 1
        session._trim_cursors()
        assert len(finder._cursors) == 1
        assert set(finder._live) <= set(finder._cursors)

    def test_category_emptied_between_warm_requests(self):
        """Streams of a category that loses its last member are born
        empty afterwards, on the warm path as on a fresh engine."""
        g = _graph(37, cats=3, size=2)
        engine = KOSREngine.build(g)
        service = engine.service
        t = g.num_vertices - 1
        q = make_query(g, 0, t, [1, 0], k=4)  # k above what exists
        for _ in range(3):
            assert_same_outcome(service.run(q, SK),
                                reference_engine(g.copy()).run(q, SK))
        extra = next(v for v in range(g.num_vertices)
                     if not g.has_category(v, 0))
        engine.add_vertex_to_category(extra, 0)
        for member in sorted(g.members(0) - {extra}):
            engine.remove_vertex_from_category(member, 0)
        for _ in range(3):
            assert_same_outcome(service.run(q, SK),
                                reference_engine(g.copy()).run(q, SK))
        engine.remove_vertex_from_category(extra, 0)
        assert not g.members(0)
        for _ in range(3):
            warm = service.run(q, SK)
            assert warm.results == []
            assert_same_outcome(warm,
                                reference_engine(g.copy()).run(q, SK))

    def test_dest_kernels_and_ch_survive_category_updates(self):
        engine, service, qa, qb = self._warm_two_categories()
        session = service.session
        kernels_before = dict(session._dest_kernels)
        service.run(make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                               [0], k=1), QueryOptions(method="GSP-CH"))
        ch_before = session._ch
        assert kernels_before and ch_before is not None
        outsider = next(v for v in range(engine.graph.num_vertices)
                        if not engine.graph.has_category(v, 1))
        engine.add_vertex_to_category(outsider, 1)
        session.validate()
        # Labels and topology are untouched by membership changes.
        assert dict(session._dest_kernels) == kernels_before
        assert session._ch is ch_before


class TestWarmFindNEN:
    """Counts that repeat exactly: what a fully warm request still does."""

    def _counted(self, finder):
        """Wrap the shared finder's plain-NN entry points with counters."""
        calls = {"find": 0, "cursor_for": []}
        find, cursor_for = finder.find, finder.cursor_for

        def counted_find(source, category, x):
            calls["find"] += 1
            return find(source, category, x)

        def counted_cursor_for(source, category):
            calls["cursor_for"].append((source, category))
            return cursor_for(source, category)

        finder.find, finder.cursor_for = counted_find, counted_cursor_for
        return calls

    def test_third_request_of_a_group_reads_streams_back(self):
        g = _graph(53, n=60, cats=4, size=9)
        engine = KOSREngine.build(g)
        service = QueryService(engine)
        session = service.session
        t, cats = g.num_vertices - 1, [0, 1, 2]
        q = make_query(g, 2, t, cats, k=6)
        cold = reference_engine(g).run(q, SK)
        first = service.run(q, SK)
        second = service.run(q, SK)
        calls = self._counted(session._label_finder)
        before = session.stats.as_dict()
        third = service.run(q, SK)
        for warm in (first, second, third):
            assert_same_outcome(warm, cold)
        after = session.stats.as_dict()
        # Nothing was produced: no FindNN fetch, no cursor even looked up.
        assert calls["find"] == 0 and calls["cursor_for"] == []
        assert after["est_stream_misses"] == before["est_stream_misses"]
        streams = after["est_stream_hits"] - before["est_stream_hits"]
        assert streams == session.populations()["est_streams"] > len(cats)
        # A new source in the same group produces only streams the group
        # has not kept — its own (level 1) and those of members the
        # earlier searches never extended from.
        kept = {(source, cid)
                for cid, by_source in session._dest_kernels[t].streams.items()
                for source, stream in by_source.items() if stream is not None}
        other = make_query(g, 11, t, cats, k=6)
        assert_same_outcome(service.run(other, SK),
                            reference_engine(g).run(other, SK))
        assert calls["find"] == 0
        assert (11, 0) in calls["cursor_for"]
        assert not kept.intersection(calls["cursor_for"])
        assert session.stats.est_stream_hits > after["est_stream_hits"]

    def test_retained_stream_over_a_suspended_cursor(self):
        """Streams kept across queries outlive their cursors' merge
        state: between queries the session drops it, and a stream that
        reads past ``NL`` re-seeds the cursor.  The group's second query
        keeps streams that advanced cursors, a query to another target
        then advances the same cursors, so a stream still holding the
        merge it advanced before would produce into ``NL`` twice."""
        g = _graph(53, n=60, cats=4, size=9)
        engine = KOSREngine.build(g)
        service = QueryService(engine)
        session = service.session
        source, t, cats = 2, g.num_vertices - 1, [0, 1, 2]
        plan = [make_query(g, source, t, cats, k=2),
                make_query(g, source, t, cats, k=4),
                make_query(g, source, t - 1, cats, k=4),
                make_query(g, source, t, cats, k=12)]
        resumed = []
        for i, q in enumerate(plan):
            if i == 1:
                finder = session._label_finder
                seed = finder._seed

                def counted_seed(key, nl):
                    if nl:
                        resumed.append(key)
                    return seed(key, nl)

                finder._seed = counted_seed
            if i == 3:
                hits, resumed[:] = session.stats.est_stream_hits, []
            assert_same_outcome(service.run(q, SK),
                                KOSREngine.build(g).run(q, SK))
            session.finder_view()  # the next query's view
            assert not session._label_finder._live
        # The last query read its group's kept streams, and they ran
        # past NL into re-seeded cursors.
        assert session.stats.est_stream_hits > hits
        assert resumed

    def test_kept_streams_hold_no_producer_between_queries(self):
        """Between queries a kept stream holds only what it produced: the
        next :meth:`finder_view` suspends every stream the last query
        read, so no FindNEN producer frame (with its ``ENQ`` and
        lookahead) and no FindNN merge is left alive, and the group's
        growing ``k`` still resumes them to cold answers."""
        from repro.nn.estimated import EstStream

        g = _graph(53, n=60, cats=4, size=9)
        service = QueryService(KOSREngine.build(g))
        session = service.session
        t, cats = g.num_vertices - 1, [0, 1, 2]
        producer = EstStream._produce.__code__
        # Growing k: the streams a group keeps read past the ENL that
        # earlier requests left, so suspended streams are resumed.
        for k in (2, 4, 8, 12):
            q = make_query(g, 2, t, cats, k=k)
            assert_same_outcome(service.run(q, SK),
                                KOSREngine.build(g).run(q, SK))
            session.finder_view()  # the next query's view
            assert not session._label_finder._live
            kept = [stream
                    for by_source in session._dest_kernels[t].streams.values()
                    for stream in by_source.values() if stream is not None]
            assert all(stream.advance is None for stream in kept)
            gc.collect()
            assert not [obj for obj in gc.get_objects()
                        if type(obj) is GeneratorType
                        and obj.gi_code is producer]
        assert kept and session.stats.est_stream_hits
        # Some kept streams are suspended mid-stream, not ended.
        assert [stream for stream in kept if stream.end is None]

    def test_repeated_category_shares_one_stream_per_query(self):
        """C = (a, b, a): both levels of category a read one stream, and
        its position is booked once."""
        g = _graph(59)
        engine = KOSREngine.build(g)
        service = QueryService(engine)
        q = make_query(g, 1, g.num_vertices - 1, [0, 1, 0], k=4)
        cold = reference_engine(g).run(q, SK)
        assert_same_outcome(engine.run(q, SK), cold)
        for _ in range(3):
            assert_same_outcome(service.run(q, SK), cold)


class TestCachePolicy:
    """LRU eviction caps on dest kernels and warm finder cursors.

    Eviction is a memory policy only: capped sessions must keep
    returning bit-identical results and counters to cold engines (the
    regenerated kernels/cursors are deterministic), while the new
    ``*_evictions`` counters surface the churn.
    """

    def _shared_target_workload(self, g, rng, targets=5, per_target=2):
        queries = []
        for _ in range(targets):
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            for _ in range(per_target):
                queries.append(
                    make_query(g, rng.randrange(g.num_vertices), t, cats, k=2))
        return queries

    def test_dest_kernels_capped_with_lru_eviction(self):
        engine = KOSREngine.build(_graph(71))
        service = QueryService(engine, max_dest_kernels=2)
        rng = random.Random(5)
        queries = self._shared_target_workload(engine.graph, rng, targets=5)
        service.run_batch(queries, SK)
        session = service.session
        assert len(session._dest_kernels) <= 2
        assert session.stats.dest_kernel_evictions >= 3

    def test_lru_keeps_recently_used_kernel(self):
        engine = KOSREngine.build(_graph(73))
        session = SessionCache(engine, max_dest_kernels=2)
        session.dest_kernel(10)
        session.dest_kernel(11)
        session.dest_kernel(10)          # refresh 10's recency
        session.dest_kernel(12)          # evicts 11, not 10
        assert 10 in session._dest_kernels and 12 in session._dest_kernels
        assert 11 not in session._dest_kernels
        assert session.stats.dest_kernel_evictions == 1

    def test_lru_keeps_recently_touched_cursor(self):
        """The finder's cursor dict order is the LRU order: a touch
        moves a cursor to the back, and a trim evicts from the front."""
        engine = KOSREngine.build(_graph(73))
        session = SessionCache(engine, max_finders=2)
        view = session.finder_view()
        view.find(10, 0, 1)
        view.find(11, 0, 1)
        view.find(10, 0, 2)             # refresh (10, 0)'s recency
        view.find(12, 0, 1)
        session.finder_view()           # between queries: trims to 2
        assert list(session._label_finder._cursors) == [(10, 0), (12, 0)]
        assert session.stats.cursor_evictions == 1

    def test_finder_cursors_capped(self):
        engine = KOSREngine.build(_graph(77))
        service = QueryService(engine, max_finders=3)
        rng = random.Random(7)
        queries = self._shared_target_workload(engine.graph, rng, targets=6)
        service.run_batch(queries, SK)
        session = service.session
        # Cursors are trimmed at the *next* query's view creation (never
        # mid-enumeration), so the cap holds at every query boundary.
        session._trim_cursors()
        assert len(session._label_finder._cursors) <= 3
        assert session.stats.cursor_evictions > 0

    @pytest.mark.parametrize("caps", [dict(max_dest_kernels=1),
                                      dict(max_finders=2),
                                      dict(max_dest_kernels=1, max_finders=1)])
    def test_capped_sessions_stay_cold_equivalent(self, caps):
        """Eviction must never change results or counters."""
        g = _graph(79)
        engine = KOSREngine.build(g)
        service = QueryService(engine, **caps)
        rng = random.Random(11)
        queries = self._shared_target_workload(g, rng, targets=4,
                                               per_target=3)
        for method in ("SK", "PK"):
            options = QueryOptions(method=method)
            batch = service.run_batch(queries, options)
            for q, warm in zip(queries, batch):
                assert_same_outcome(warm,
                                    KOSREngine.build(g).run(q, options))

    def test_caps_bound_retained_streams(self):
        """A stream lives inside a kernel and over a cursor: evicting
        either takes it along, so the two caps bound streams too."""
        g = _graph(79)
        engine = KOSREngine.build(g)
        service = QueryService(engine, max_dest_kernels=2, max_finders=4)
        session = service.session
        rng = random.Random(13)
        queries = self._shared_target_workload(g, rng, targets=4,
                                               per_target=4)
        peak = 0
        for q in queries:
            assert_same_outcome(service.run(q, SK),
                                KOSREngine.build(g).run(q, SK))
            session._trim_cursors()  # what the next query's view does
            cursors = session._label_finder._cursors
            kernels = session._dest_kernels
            assert len(cursors) <= 4 and len(kernels) <= 2
            for kernel in kernels.values():
                for cid, by_source in kernel.streams.items():
                    assert all((source, cid) in cursors
                               for source in by_source)
            peak = max(peak, session.populations()["est_streams"])
            assert session.populations()["est_streams"] <= 4 * 2
        assert peak > 0 and session.stats.est_stream_hits > 0
        assert session.stats.cursor_evictions > 0
        assert session.stats.dest_kernel_evictions > 0

    def test_invalid_caps_rejected(self):
        engine = KOSREngine.build(_graph(83))
        with pytest.raises(ValueError):
            SessionCache(engine, max_dest_kernels=0)
        with pytest.raises(ValueError):
            SessionCache(engine, max_finders=0)

    def test_hit_rates_helper(self):
        engine = KOSREngine.build(_graph(87))
        service = QueryService(engine)
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)
        service.run(q, SK)
        service.run(q, SK)
        rates = service.session.stats.hit_rates()
        assert rates["est_stream"] == 0.0  # marked, then admitted
        assert rates["finder"] == 0.5
        assert rates["dest_kernel"] == 0.5
        assert rates["disk_view"] == 0.0


class TestSessionCursorMemory:
    def test_unfinished_cursors_keep_only_nl_between_queries(self):
        """``k = 1``, ``|C| = 1`` requests over eight warm targets (the
        light-overhead shape) through a session with the server's caps
        leave almost every cursor unfinished.  Once the next query's view
        is made, what the session retains per cursor beyond its ``NL``
        (16 bytes per neighbour) is its buffer's header, its key and its
        share of the marks and memos — not a heap of one tuple per matched
        hub run, a found set and a generator frame (about 7 kB each on
        this graph)."""
        import gc
        import tracemalloc

        from repro.server.tcp import (SESSION_MAX_DEST_KERNELS,
                                      SESSION_MAX_FINDERS)

        g = random_graph(200, 3.0, rng=random.Random(43))
        assign_uniform_categories(g, 2, 50, random.Random(44))
        engine = KOSREngine.build(g)
        targets = random.Random(45).sample(range(g.num_vertices), 8)

        def batch(sources):
            return [make_query(g, s, targets[s % 8], [s % 2], k=1)
                    for s in sources]

        # Decode every hub run the requests scan, then warm the session's
        # kernels on half the sources; the other half is measured.
        QueryService(engine).run_batch(batch(range(g.num_vertices)), SK)
        service = QueryService(engine,
                               max_dest_kernels=SESSION_MAX_DEST_KERNELS,
                               max_finders=SESSION_MAX_FINDERS)
        session = service.session
        for q in batch(range(0, g.num_vertices, 2)):
            service.run(q, SK)
        session.finder_view()
        warm = set(session._label_finder._cursors)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for q in batch(range(1, g.num_vertices, 2)):
                service.run(q, SK)
            session.finder_view()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        new = [nl for key, nl in session._label_finder._cursors.items()
               if key not in warm]
        assert len(new) == g.num_vertices // 2
        # unfinished: still a growable bytearray, not an ended bytes
        assert sum(type(nl) is bytearray for nl in new) > 0.9 * len(new)
        nl_bytes = sum(len(nl) for nl in new)
        assert (retained - nl_bytes) / len(new) < 1500
        assert not session._label_finder._live

    def test_warm_cursors_give_the_collector_nothing_to_visit(self):
        """What a session keeps per FindNN cursor is one ``bytes`` or
        ``bytearray``, neither of which the garbage collector tracks: 60
        SK requests over eight warm targets on CAL 0.25, through a
        session with the server's caps, create hundreds of cursors and
        leave the collector's object count almost where it was.  A
        cursor object holding two ``array`` s (themselves tracked
        containers) added three objects per cursor."""
        import gc

        from repro.graph import generators
        from repro.server.tcp import (SESSION_MAX_DEST_KERNELS,
                                      SESSION_MAX_FINDERS)

        g = generators.dataset_by_name("CAL", scale=0.25)
        engine = KOSREngine.build(g)
        service = QueryService(engine,
                               max_dest_kernels=SESSION_MAX_DEST_KERNELS,
                               max_finders=SESSION_MAX_FINDERS)
        session = service.session
        rng = random.Random(1)
        targets = rng.sample(range(g.num_vertices), 8)

        def query(target):
            return make_query(g, rng.randrange(g.num_vertices), target,
                              rng.sample(range(g.num_categories), 4), k=10)

        # Warm the eight targets' kernels first: what is measured is
        # what the cursors add.
        for target in targets:
            service.run(query(target), SK)
        session.finder_view()
        gc.collect()
        cursors, objects = (len(session._label_finder._cursors),
                            len(gc.get_objects()))
        for _ in range(60):
            service.run(query(rng.choice(targets)), SK)
        session.finder_view()  # between queries: merges are dropped
        gc.collect()
        created = len(session._label_finder._cursors) - cursors
        grown = len(gc.get_objects()) - objects
        assert created > 300
        assert grown < 0.2 * created
        assert not any(gc.is_tracked(nl)
                       for nl in session._label_finder._cursors.values())


def _sk_db_queries(g, seed: int, n: int = 6):
    rng = random.Random(seed)
    return [make_query(g, rng.randrange(g.num_vertices),
                       rng.randrange(g.num_vertices),
                       rng.sample(range(g.num_categories), rng.choice((2, 3))),
                       k=3)
            for _ in range(n)]


class TestSkDbOverIndexFile:
    """SK-DB = StarKOSR over a fresh attachment of the saved index file."""

    @pytest.fixture(params=["built", "attached", "labels-only"])
    def saved(self, request, tmp_path):
        """(graph, engine, path): built + ``save_index``, attached to
        that file, or attached to an ``index build --no-inverted`` one."""
        g = _graph(41)
        path = tmp_path / "index.rpli"
        engine = KOSREngine.build(g)
        if request.param == "labels-only":
            write_index_file(path, engine.labels)
        else:
            engine.save_index(path)
        if request.param != "built":
            engine = KOSREngine.from_index_file(g, path)
        return g, engine, path

    def test_cold_matches_sk_and_the_reference(self, saved):
        g, engine, _ = saved
        reference = reference_engine(g)
        for q in _sk_db_queries(g, 5):
            got = engine.run(q, SK_DB)
            assert_same_outcome(got, engine.run(q, SK))
            assert_same_outcome(got, reference.run(q, SK))
            assert got.stats.index_load_time > 0

    def test_cold_attaches_only_the_querys_categories(self, tmp_path,
                                                      monkeypatch):
        from repro.labeling.mmap_index import MmapIndexFile

        g = _graph(41)
        engine = KOSREngine.build(g)
        engine.save_index(tmp_path / "index.rpli")
        attached = []
        inner = MmapIndexFile.inverted_view
        monkeypatch.setattr(
            MmapIndexFile, "inverted_view",
            lambda self, cid: attached.append(cid) or inner(self, cid))
        q = make_query(g, 0, 30, [2, 0], k=2)
        engine.run(q, SK_DB)
        assert sorted(attached) == [0, 2]

    def test_warm_session_keeps_the_attachment_not_the_finder(self, saved):
        g, engine, _ = saved
        service = QueryService(engine)
        stats = service.session.stats
        for i, q in enumerate(_sk_db_queries(g, 9, n=4) * 2):
            warm = service.run(q, SK_DB)
            assert_same_outcome(warm, engine.run(q, SK))
            assert (stats.disk_view_misses, stats.disk_view_hits) == (1, i)
        # every request got a fresh finder: the session's warm one, whose
        # reuse needs cold-equivalent booking, was never even built
        assert stats.finder_misses == stats.finder_hits == 0

    @pytest.mark.parametrize("mutate", ["add", "remove", "edge"])
    def test_updates_detach_the_file_until_it_is_saved_again(self, saved,
                                                             mutate):
        g, engine, path = saved
        service = QueryService(engine)
        q = make_query(g, 0, 30, [0, 1], k=3)
        service.run(q, SK_DB)  # the session now keeps an attachment
        if mutate == "add":
            engine.add_vertex_to_category(
                next(v for v in range(g.num_vertices)
                     if not g.has_category(v, 0)), 0)
        elif mutate == "remove":
            engine.remove_vertex_from_category(
                next(iter(sorted(g.members(1)))), 1)
        else:
            u, v, w = next(iter(g.edges()))
            engine.update_edge(u, v, w + 5.0)
        for run in (engine.run, service.run):
            with pytest.raises(QueryError, match="save_index"):
                run(q, SK_DB)
        # same path, new content: the kept attachment must not be reused
        engine.save_index(path)
        fresh = reference_engine(g).run(q, SK)
        assert_same_outcome(engine.run(q, SK_DB), fresh)
        assert_same_outcome(service.run(q, SK_DB), fresh)


class TestSkDbErrorPaths:
    def test_query_before_save_index(self, engine):
        q = make_query(engine.graph, 0, 10, [0], k=1)
        with pytest.raises(QueryError, match="save_index"):
            engine.run(q, SK_DB)
        with pytest.raises(QueryError, match="save_index"):
            QueryService(engine).run(q, SK_DB)

    @pytest.mark.parametrize("damage", ["deleted", "truncated"])
    def test_damaged_index_file_names_the_path(self, tmp_path, damage):
        engine = KOSREngine.build(_graph(33))
        path = tmp_path / "index.rpli"
        written = engine.save_index(path)
        if damage == "deleted":
            path.unlink()
        else:
            with open(path, "r+b") as f:
                f.truncate(written // 2)
        q = make_query(engine.graph, 0, 10, [1], k=1)
        for run in (engine.run, QueryService(engine).run):
            with pytest.raises(IndexStorageError, match="index.rpli"):
                run(q, SK_DB)

    def test_saving_elsewhere_resets_the_warm_attachment(self, tmp_path):
        engine = KOSREngine.build(_graph(37))
        engine.save_index(tmp_path / "a.rpli")
        service = QueryService(engine)
        q = make_query(engine.graph, 0, 10, [0, 1], k=2)
        first = service.run(q, SK_DB)
        engine.save_index(tmp_path / "b.rpli")
        second = service.run(q, SK_DB)
        assert_same_outcome(first, second)
        assert service.session.stats.disk_view_misses == 2


class TestStrictBudget:
    """``strict_budget`` escalates *either* guard into an exception."""

    def test_examined_route_budget(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        with pytest.raises(BudgetExceededError):
            engine.run(q, QueryOptions(method="KPNE", budget=1,
                                       strict_budget=True))

    def test_time_budget_deadline(self, engine):
        """An already-expired deadline trips strict mode (satellite case)."""
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        with pytest.raises(BudgetExceededError):
            engine.run(q, QueryOptions(method="SK", time_budget_s=0.0,
                                       strict_budget=True))

    def test_deadline_without_strict_reports_inf(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        result = engine.run(q, QueryOptions(method="SK", time_budget_s=0.0))
        assert not result.stats.completed

    def test_generous_guards_complete(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1], k=2)
        result = engine.run(q, QueryOptions(
            method="SK", budget=10_000, time_budget_s=30.0,
            strict_budget=True))
        assert result.stats.completed

    def test_strict_budget_on_service_path(self, engine):
        q = make_query(engine.graph, 0, engine.graph.num_vertices - 1,
                       [0, 1, 2], k=3)
        with pytest.raises(BudgetExceededError):
            QueryService(engine).run(q, QueryOptions(
                method="KPNE", budget=1, strict_budget=True))


class TestInterleavedUpdateFuzz:
    """run_batch interleaved with updates == fresh single-query engines.

    A randomized schedule of batches, category inserts/removals, edge
    updates, and compactions; after every batch each result is replayed
    on a cold engine built from the current graph.  Bit-identical
    witnesses, costs, and counters prove the epoch invalidation never
    serves stale warm state (and never over-serves: counters would drift
    if NL hits leaked across an epoch).
    """

    METHODS = ("SK", "PK")

    def _random_batch(self, g, rng, size=6):
        queries = []
        t = rng.randrange(g.num_vertices)
        cats = rng.sample(range(g.num_categories), 2)
        for _ in range(size):
            # half the batch shares (target, cats); the rest is scattered
            if rng.random() < 0.5:
                queries.append(
                    make_query(g, rng.randrange(g.num_vertices), t, cats, k=3))
            else:
                queries.append(make_query(
                    g, rng.randrange(g.num_vertices),
                    rng.randrange(g.num_vertices),
                    rng.sample(range(g.num_categories), 2), k=3))
        return queries

    @pytest.mark.parametrize("seed", [101, 202])
    def test_fuzz(self, seed):
        rng = random.Random(seed)
        g = _graph(seed, n=36, cats=4, size=6)
        engine = KOSREngine.build(g)
        service = engine.service
        method_cycle = 0
        for step in range(10):
            op = rng.random()
            if op < 0.30:
                v = rng.randrange(g.num_vertices)
                cid = rng.randrange(g.num_categories)
                if g.has_category(v, cid) and g.category_size(cid) > 2:
                    engine.remove_vertex_from_category(v, cid)
                else:
                    engine.add_vertex_to_category(v, cid)
            elif op < 0.40:
                u, v = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
                if u != v:
                    engine.update_edge(u, v, rng.uniform(0.5, 3.0))
            elif op < 0.50:
                engine.compact()
            method = self.METHODS[method_cycle % len(self.METHODS)]
            method_cycle += 1
            queries = self._random_batch(g, rng)
            batch = service.run_batch(queries, QueryOptions(method=method))
            for q, warm in zip(queries, batch):
                cold = KOSREngine.build(g).run(q, QueryOptions(method=method))
                assert_same_outcome(warm, cold)


class TestCliBatchHelpers:
    def test_workload_parsing_accepts_list_and_wrapper(self, tmp_path):
        from repro.cli import _load_workload_records

        records = [{"source": 0, "target": 1, "categories": [0]}]
        p = tmp_path / "wl.json"
        p.write_text(json.dumps(records))
        assert _load_workload_records(str(p)) == records
        p.write_text(json.dumps({"queries": records}))
        assert _load_workload_records(str(p)) == records

    def test_workload_parsing_rejects_garbage(self, tmp_path):
        from repro.cli import _load_workload_records

        p = tmp_path / "wl.json"
        p.write_text("not json")
        with pytest.raises(SystemExit, match="not valid JSON"):
            _load_workload_records(str(p))
        p.write_text(json.dumps([{"source": 0}]))
        with pytest.raises(SystemExit, match="source/target/categories"):
            _load_workload_records(str(p))
        p.write_text(json.dumps([]))
        with pytest.raises(SystemExit, match="non-empty"):
            _load_workload_records(str(p))
