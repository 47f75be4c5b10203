"""Index parity: the packed engine must agree with the object reference.

The packed indexes rewrite every query hot path (merge joins, FindNN
cursors, FindNEN, the dis(v, t) kernel), so this suite pins both of
their backings — *built* (private buffer) and *attached* (read-only mmap
of a saved index file) — to ``reference_engine``: identical witnesses,
costs, and search counters for every method, on several generated
graphs, plus structural parity of the packed inverted index itself.
"""

import random

import pytest

from conftest import reference_engine
from reference_inverted import build_inverted_index
from reference_pll import build_reference_labels
from repro import KOSREngine, QueryOptions, make_query
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import build_packed_inverted_index
from repro.labeling.pll import build_labels_auto

SK = QueryOptions(method="SK")

#: methods that exercise the NN-oracle stack (GSP/GSP-CH are graph-only)
PAIR_METHODS = ("KPNE", "PK", "SK", "SK-NODOM")

#: the QueryStats counters that must stay bit-identical across paths
COUNTERS = ("examined_routes", "generated_routes", "nn_queries",
            "dominated_routes", "reconsidered_routes", "max_queue_size",
            "results_found", "completed")


#: the PAIR_METHODS that order by FindNEN estimates (A* switch on)
ESTIMATED = ("SK", "SK-NODOM")


def assert_table_x_split(stats, estimated):
    """A profiled run's Table X buckets: only estimating methods book
    estimation time, and the buckets never exceed the wall time."""
    assert stats.nn_time > 0 and stats.queue_time > 0
    assert (stats.estimation_time > 0) == estimated
    assert (stats.nn_time + stats.queue_time + stats.estimation_time
            <= stats.total_time)


def assert_same_outcome(a, b):
    """Results and every search counter identical between two runs."""
    assert a.witnesses == b.witnesses
    assert a.costs == pytest.approx(b.costs)
    for field in COUNTERS:
        assert getattr(a.stats, field) == getattr(b.stats, field), field
    assert a.stats.per_level_examined == b.stats.per_level_examined


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture(scope="module",
                params=[(11, "built"), (23, "built"), (57, "built"),
                        (11, "attached"), (57, "attached")],
                ids=lambda p: f"seed{p[0]}-{p[1]}")
def engines(request, tmp_path_factory):
    """(graph, packed engine, reference engine) triples.

    The ``attached`` variants run the whole suite against an engine
    attached read-only to a saved index file, so every parity assertion
    (results AND counters, bit-identical) pins both backings of the one
    index representation to the object reference.
    """
    seed, backing = request.param
    g = _graph(seed)
    packed = KOSREngine.build(g)
    if backing == "attached":
        path = tmp_path_factory.mktemp("idx") / f"parity_{seed}.rpli"
        packed.save_index(path)
        packed = KOSREngine.from_index_file(g, path)
    return g, packed, reference_engine(g)


class TestQueryParity:
    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_witnesses_costs_counters_identical(self, engines, method):
        g, packed, obj = engines
        rng = random.Random(5)
        for _ in range(6):
            s = rng.randrange(g.num_vertices)
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            q = make_query(g, s, t, cats, k=4)
            a = packed.run(q, QueryOptions(method=method))
            b = obj.run(q, QueryOptions(method=method))
            assert a.witnesses == b.witnesses
            assert a.costs == pytest.approx(b.costs)
            assert a.stats.examined_routes == b.stats.examined_routes
            assert a.stats.generated_routes == b.stats.generated_routes
            assert a.stats.nn_queries == b.stats.nn_queries
            assert a.stats.dominated_routes == b.stats.dominated_routes
            assert a.stats.reconsidered_routes == b.stats.reconsidered_routes

    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_parity_with_profile_enabled(self, engines, method):
        """Profiling is a wrap around the accessors every run uses, not a
        second path: same results and counters as an unprofiled run and
        as the reference, with the Table X split filled in."""
        g, packed, obj = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        plain = QueryOptions(method=method)
        profiled = packed.run(q, plain.replace(profile=True))
        assert_same_outcome(profiled, packed.run(q, plain))
        assert_same_outcome(profiled, obj.run(q, plain))
        assert_same_outcome(profiled, obj.run(q, plain.replace(profile=True)))
        assert_table_x_split(profiled.stats, estimated=method in ESTIMATED)

    def test_profiled_packed_sk_runs_the_fused_findnen(self, engines,
                                                       monkeypatch):
        """``profile=True`` used to fork StarKOSR onto the generic
        wrapper; now only the oracles without a packed cursor reach it."""
        from repro.nn.estimated import EstimatedNNFinder

        def refuse(self, *args, **kwargs):
            raise AssertionError("the generic FindNEN wrapper was built")

        monkeypatch.setattr(EstimatedNNFinder, "__init__", refuse)
        g, packed, _ = engines
        args = (0, g.num_vertices - 1, [0, 1])
        assert packed.query(*args, k=3, method="SK", profile=True).costs
        assert packed.service.run(
            make_query(g, *args, k=3),
            QueryOptions(method="SK", profile=True)).costs
        with pytest.raises(AssertionError, match="generic FindNEN"):
            packed.query(*args, k=3, method="SK", profile=True,
                         nn_backend="dij-restart")

    def test_gsp_unaffected_by_index(self, engines):
        g, packed, obj = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=1)
        gsp = QueryOptions(method="GSP")
        assert packed.run(q, gsp).costs == pytest.approx(obj.run(q, gsp).costs)

    def test_route_restoration_identical(self, engines):
        g, packed, obj = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)
        a = packed.run(q, QueryOptions(method="SK", restore_routes=True))
        b = obj.run(q, QueryOptions(method="SK", restore_routes=True))
        for ra, rb in zip(a.results, b.results):
            assert (ra.route is None) == (rb.route is None)
            if ra.route is not None:
                assert ra.route.vertices == rb.route.vertices
                assert ra.route.cost == pytest.approx(rb.route.cost)

    def test_sk_db_from_packed_engine(self, engines, tmp_path):
        """save_index must serialise the packed indexes correctly."""
        g, packed, _ = engines
        packed.save_index(tmp_path / "index.rpli")
        q = make_query(g, 0, g.num_vertices - 1, [0, 1, 2], k=3)
        sk_db = packed.run(q, QueryOptions(method="SK-DB"))
        assert sk_db.costs == pytest.approx(packed.run(q, SK).costs)

    def test_dij_backend_matches_label_on_packed_engine(self, engines):
        g, packed, _ = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        dij = packed.run(
            q, QueryOptions(method="PK", nn_backend="dij-restart"))
        label = packed.run(q, QueryOptions(method="PK"))
        assert dij.costs == pytest.approx(label.costs)


class TestPackedInvertedParity:
    @pytest.fixture(scope="class")
    def case(self):
        g = _graph(91)
        return g, build_reference_labels(g), build_labels_auto(g)

    def test_hub_lists_identical(self, case):
        g, labels, packed_labels = case
        for cid in range(g.num_categories):
            obj = build_inverted_index(g, labels, cid)
            packed = build_packed_inverted_index(g, packed_labels, cid)
            assert packed.as_lists() == obj.as_lists()
            assert len(packed.runs()[2]) == len(obj.lists)  # one per hub
            for hub, entries in obj.lists.items():
                assert packed.hub_list(hub) == entries

    def test_statistics_identical(self, case):
        g, labels, packed_labels = case
        for cid in range(g.num_categories):
            obj = build_inverted_index(g, labels, cid)
            packed = build_packed_inverted_index(g, packed_labels, cid)
            assert packed.total_entries == obj.total_entries
            assert packed.num_hubs == obj.num_hubs
            assert packed.average_list_length() == pytest.approx(
                obj.average_list_length()
            )

    def test_runs_sorted_and_consistent(self, case):
        g, _, packed_labels = case
        packed = build_packed_inverted_index(g, packed_labels, 0)
        dists, members, directory = packed.runs()
        # read in place: the run sequences are the base sections
        assert dists is packed.sections()[3]
        assert members is packed.sections()[4]
        assert len(directory) == packed.num_hubs
        runs = []
        for lo, hi in directory.values():
            assert 0 <= lo < hi <= len(members)
            run = list(zip(dists[lo:hi], members[lo:hi]))
            assert run == sorted(run)
            runs.append(run)
        # the directory's runs are the hub lists, keyed by rank
        assert sorted(runs) == sorted(packed.as_lists().values())

    def test_unknown_hub_is_empty(self, case):
        g, _, packed_labels = case
        packed = build_packed_inverted_index(g, packed_labels, 0)
        assert 10 ** 9 not in packed.runs()[2]  # nor an unknown rank
        assert packed.hub_list(10 ** 9) == []


class TestServicePathParity:
    """The warm batch/service path answers like fresh single-query engines.

    The session cache shares FindNN streams and ``dis(·, t)`` memos
    across a batch, so these tests are the contract that warm reuse is
    observably transparent: for every method × index backing, results
    *and* every QueryStats counter from ``run_batch`` equal those of a
    cold ``engine.run`` on a fresh reference engine (the cold-equivalent
    accounting described in ``repro.service.cache``).
    """

    def _workload(self, g, rng, n_targets=3, per_target=3, k=3):
        queries = []
        for _ in range(n_targets):
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            for _ in range(per_target):
                queries.append(
                    make_query(g, rng.randrange(g.num_vertices), t, cats, k=k))
        return queries

    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_batch_matches_fresh_engines(self, engines, method):
        g, packed, _ = engines
        queries = self._workload(g, random.Random(29))
        options = QueryOptions(method=method)
        batch = packed.service.run_batch(queries, options)
        assert len(batch) == len(queries)
        for q, warm in zip(queries, batch):
            assert_same_outcome(warm, reference_engine(g).run(q, options))

    def test_batch_sk_db_matches_fresh_engines(self, engines, tmp_path):
        g, packed, _ = engines
        packed.save_index(tmp_path / "index.rpli")
        queries = self._workload(g, random.Random(31), n_targets=2)
        sk_db = QueryOptions(method="SK-DB")
        batch = packed.service.run_batch(queries, sk_db)
        for q, warm in zip(queries, batch):
            fresh = KOSREngine.build(g)
            fresh._store = packed._store
            assert_same_outcome(warm, fresh.run(q, sk_db))

    def test_gsp_via_service(self, engines):
        g, packed, _ = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=1)
        for method in ("GSP", "GSP-CH"):
            warm = packed.service.run(q, QueryOptions(method=method))
            cold = packed.run(q, QueryOptions(method=method))
            assert warm.costs == pytest.approx(cold.costs)

    def test_repeated_warm_queries_report_cold_counters(self, engines):
        """The Nth identical warm query books the same counters as the 1st."""
        g, packed, _ = engines
        q = make_query(g, 1, g.num_vertices - 2, [0, 1], k=4)
        cold = packed.run(q, SK)
        service = packed.service
        for _ in range(3):
            assert_same_outcome(service.run(q, SK), cold)

    def test_first_admitting_and_warm_request_of_a_group(self, engines):
        """Request 1 only marks its FindNEN streams, request 2 produces
        them again and keeps them, request 3 reads them back — and each
        reports what a fresh engine reports."""
        from repro.service import QueryService

        g, packed, _ = engines
        t, cats = g.num_vertices - 3, (2, 0, 1)
        service = QueryService(packed)
        session = service.session
        seen = []
        for source in (1, 1, 1, 4, 4, 1, 9):
            q = make_query(g, source, t, cats, k=4)
            before = session.stats.as_dict()
            warm = service.run(q, SK)
            assert_same_outcome(warm, reference_engine(g).run(q, SK))
            after = session.stats.as_dict()
            hits = after["est_stream_hits"] - before["est_stream_hits"]
            misses = after["est_stream_misses"] - before["est_stream_misses"]
            if not seen:
                assert hits == 0 and misses > 0
                assert session.populations()["est_streams"] == 0
            elif seen == [1]:
                assert hits == 0  # marked, not kept: produced once more
                assert session.populations()["est_streams"] == misses
            elif seen == [1, 1]:
                assert misses == 0 and hits > 0  # fully warm
            seen.append(source)
        assert session.stats.est_stream_hits > 0

    def test_same_source_and_category_under_two_targets(self, engines):
        """One shared session serving two targets (a shard worker's
        shape): both kernels stream over the same FindNN cursors."""
        from repro.service import QueryService

        g, packed, _ = engines
        service = QueryService(packed)
        queries = [make_query(g, s, t, (1, 3), k=3)
                   for s in (2, 5) for t in (g.num_vertices - 1, 8)]
        for _ in range(3):
            for q in queries:
                assert_same_outcome(service.run(q, SK),
                                    reference_engine(g).run(q, SK))
        assert service.session.populations()["dest_kernels"] == 2
        assert service.session.stats.est_stream_hits > 0

    def test_budgets_and_expired_deadline_on_a_warm_group(self, engines):
        """An early stop books exactly the positions asked so far, also
        when the streams were produced by earlier, longer searches."""
        from repro.api import QueryOptions
        from repro.service import QueryService

        g, packed, _ = engines
        service = QueryService(packed)
        q = make_query(g, 3, g.num_vertices - 2, (0, 2, 1), k=5)
        for _ in range(3):
            full = service.run(q, SK)
        assert service.session.stats.est_stream_hits > 0
        assert full.stats.examined_routes > 13
        for budget in (0, 1, 2, 3, 5, 8, 13, full.stats.examined_routes):
            options = QueryOptions(method="SK", budget=budget)
            assert_same_outcome(service.run(q, options),
                                reference_engine(g).run(q, options))
        expired = QueryOptions(method="SK", time_budget_s=0.0)
        warm = service.run(q, expired)
        assert not warm.stats.completed
        assert_same_outcome(warm, reference_engine(g).run(q, expired))

    @pytest.mark.parametrize("method", PAIR_METHODS)
    def test_profile_mode_on_the_service_path(self, engines, method):
        """The first warm request of a group and the third (which reads
        retained FindNEN streams back) answer and count alike with the
        Table X timers on, off, and on a fresh reference engine."""
        from repro.service import QueryService

        g, packed, _ = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        plain = QueryOptions(method=method)
        timed, untimed = QueryService(packed), QueryService(packed)
        expected = reference_engine(g).run(q, plain)
        for _ in range(3):
            warm = timed.run(q, plain.replace(profile=True))
            assert_same_outcome(warm, untimed.run(q, plain))
            assert_same_outcome(warm, expected)
            assert_table_x_split(warm.stats, estimated=method in ESTIMATED)
        read_back = timed.session.stats.est_stream_hits
        assert (read_back > 0) == (method in ESTIMATED)
        assert read_back == untimed.session.stats.est_stream_hits

    def test_batch_restores_routes(self, engines):
        g, packed, _ = engines
        queries = [make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)]
        options = QueryOptions(method="SK", restore_routes=True)
        batch = packed.service.run_batch(queries, options)
        cold = packed.run(queries[0], options)
        for warm_item, cold_item in zip(batch.results[0].results, cold.results):
            assert (warm_item.route is None) == (cold_item.route is None)
            if warm_item.route is not None:
                assert warm_item.route.vertices == cold_item.route.vertices

    def test_dij_backends_stay_cold_on_service_path(self, engines):
        """Dijkstra comparators are rebuilt per query even when warm."""
        g, packed, _ = engines
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)
        options = QueryOptions(method="PK", nn_backend="dij-restart")
        cold = packed.run(q, options)
        service = packed.service
        for _ in range(2):
            warm = service.run(q, options)
            assert_same_outcome(warm, cold)


class TestPostUpdateParity:
    """The packed engine stays bit-identical *after* dynamic updates.

    It absorbs category updates by editing its hub runs; the
    reference is rebuilt from the mutated graph after every update.
    """

    def _engine(self, seed=77):
        g = _graph(seed)
        return g, KOSREngine.build(g)

    def _assert_parity(self, g, packed, rng, rounds=6):
        ref = reference_engine(g)
        for _ in range(rounds):
            s = rng.randrange(g.num_vertices)
            t = rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            for method in ("SK", "PK"):
                q = make_query(g, s, t, cats, k=3)
                assert_same_outcome(packed.run(q, QueryOptions(method=method)),
                                    ref.run(q, QueryOptions(method=method)))
        return ref

    def test_parity_after_category_insert_and_remove(self):
        g, packed = self._engine()
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        packed.add_vertex_to_category(outsider, 0)
        assert g.has_category(outsider, 0)
        self._assert_parity(g, packed, random.Random(3))

        member = sorted(g.members(1))[0]
        packed.remove_vertex_from_category(member, 1)
        ref = self._assert_parity(g, packed, random.Random(4))

        # Table IX statistics stay in lockstep too.
        for cid in range(g.num_categories):
            assert packed.inverted[cid].total_entries == \
                ref.inverted[cid].total_entries
            assert packed.inverted[cid].num_hubs == ref.inverted[cid].num_hubs
            assert packed.inverted[cid].as_lists() == \
                ref.inverted[cid].as_lists()

    def test_parity_after_edge_update_stays_packed(self):
        g, packed = self._engine(78)
        packed.update_edge(0, g.num_vertices - 1, 0.75)
        assert isinstance(packed.labels, PackedLabelIndex)
        self._assert_parity(g, packed, random.Random(5))

    def test_compact_preserves_results(self):
        g, packed = self._engine(79)
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        packed.add_vertex_to_category(outsider, 0)
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=3)
        before = packed.run(q, SK)
        packed.compact()
        after = packed.run(q, SK)
        assert before.witnesses == after.witnesses
        assert before.costs == after.costs
        # compacted: no edit garbage left behind
        dists, members, _ = packed.inverted[0].runs()
        assert len(members) == len(dists) == packed.inverted[0].total_entries

    def test_updates_detach_stale_disk_store(self, tmp_path):
        """SK-DB must not silently serve the pre-update index file."""
        from repro.exceptions import QueryError

        g, packed = self._engine(83)
        packed.save_index(tmp_path / "index.rpli")
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        packed.add_vertex_to_category(outsider, 0)
        q = make_query(g, 0, g.num_vertices - 1, [0, 1], k=2)
        with pytest.raises(QueryError, match="save_index"):
            packed.run(q, QueryOptions(method="SK-DB"))
        # re-saving refreshes the file with the updated indexes
        packed.save_index(tmp_path / "index.rpli")
        assert packed.run(q, QueryOptions(method="SK-DB")).costs == \
            pytest.approx(packed.run(q, SK).costs)

    def test_update_guard_validates_every_category(self):
        """The fail-fast guard inspects *all* indexes, not just the first."""
        from repro.exceptions import IndexBuildError
        from repro.labeling.updates import add_vertex_to_category

        g, packed = self._engine(81)
        last_cid = max(packed.inverted)
        packed.inverted[last_cid] = object()  # pollute a *non-first* slot
        victim = next(v for v in range(g.num_vertices)
                      if not g.has_category(v, 0))
        with pytest.raises(IndexBuildError, match="PackedInvertedIndex"):
            add_vertex_to_category(g, packed.labels, packed.inverted, victim, 0)
        # The guard fires before F(v) is touched.
        assert not g.has_category(victim, 0)
