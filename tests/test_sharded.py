"""Sharded multi-process serving: routing, parity, updates, lifecycle.

The invariant under test everywhere: sharding is observably transparent.
Whatever the partition, routing, or update interleaving, every answer —
results AND ``QueryStats`` counters — is bit-identical to a fresh
unsharded cold engine over the same state.
"""

import asyncio
import json
import random
import threading
import time

import pytest

from repro import (
    KOSREngine,
    QueryOptions,
    QueryRequest,
    ShardedQueryService,
    make_query,
)
from repro.exceptions import QueryError, ShardError
from repro.graph.builders import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.service.cache import hit_rates_from
from repro.shard.router import CategoryShardRouter

from conftest import reference_engine
from fleet_fakes import FakeContext, InThreadFleet, ThreadProcess
from test_backend_parity import assert_same_outcome


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture(scope="module")
def setting():
    """One engine + one 2-shard service over the same graph/labels."""
    engine = KOSREngine.build(_graph(83))
    sharded = ShardedQueryService.from_engine(engine, num_shards=2)
    yield engine, sharded
    sharded.close()


class TestRouter:
    def test_modulo_ownership(self):
        router = CategoryShardRouter(3)
        assert [router.shard_of(c) for c in range(6)] == [0, 1, 2, 0, 1, 2]
        assert router.owned_categories(1, 6) == [1, 4]

    def test_owners_primary_first_and_deduped(self):
        router = CategoryShardRouter(2)
        assert router.owners((3, 0, 1)) == [1, 0]   # 3 -> 1 first
        assert router.owners((0, 2)) == [0]
        assert router.spans_shards((0, 1))
        assert not router.spans_shards((0, 2))

    def test_rejects_empty_partition(self):
        with pytest.raises(ValueError):
            CategoryShardRouter(0)


class TestShardedParity:
    @pytest.mark.parametrize("method", ["SK", "PK", "KPNE", "SK-NODOM"])
    def test_methods_match_unsharded_cold(self, setting, method):
        engine, sharded = setting
        rng = random.Random(11)
        options = QueryOptions(method=method)
        for _ in range(4):
            q = make_query(
                engine.graph, rng.randrange(40), rng.randrange(40),
                rng.sample(range(4), rng.randint(1, 3)), k=3)
            assert_same_outcome(sharded.run(q, options), engine.run(q, options))

    def test_spanning_request_bit_identical(self, setting):
        """Categories 0 (shard 0) and 1 (shard 1): served by shard 0."""
        engine, sharded = setting
        q = make_query(engine.graph, 1, 30, [0, 1], k=5)
        assert sharded.router.owners(q.categories) == [0, 1]
        assert_same_outcome(sharded.run(q, QueryOptions()), engine.run(q))

    def test_spanning_request_runs_on_the_primary_only(self):
        """The non-primary owner neither runs the request nor faults in
        the primary's categories; the primary faults in the other's."""
        g = _graph(83)
        reference = KOSREngine.build(g)
        with InThreadFleet(g.copy(), 2) as fleet:
            q = fleet.make_query(1, 30, [0, 1], k=5)
            assert fleet.router.owners(q.categories) == [0, 1]
            before = fleet._seqs[1]
            assert_same_outcome(fleet.run(q), reference.run(q))
            assert fleet._seqs[1] == before  # no exchange with shard 1
            primary, other = fleet.ping()
        assert other["materialized_categories"] == [1, 3]  # owned only
        assert primary["materialized_categories"] == [0, 1, 2]

    def test_topology_only_fleet_serves_gsp_and_rejects_label_plans(self):
        """build_labels=False skips the dominant startup cost for GSP."""
        g = _graph(67)
        engine = KOSREngine(g)  # bare engine: the unsharded GSP setup
        sharded = ShardedQueryService(g.copy(), 2, build_labels=False)
        try:
            assert sharded.labels is None
            q = sharded.make_query(0, 30, [0, 1], k=1)
            options = QueryOptions(method="GSP")
            assert_same_outcome(sharded.run(q, options),
                                engine.run(q, options))
            with pytest.raises(QueryError, match="without labels"):
                sharded.run(q, QueryOptions(method="SK"))
        finally:
            sharded.close()

    def test_gsp_routes_round_robin(self, setting):
        engine, sharded = setting
        q = make_query(engine.graph, 0, 30, [0, 1], k=1)
        options = QueryOptions(method="GSP")
        shards = {sharded.shard_for(q, options) for _ in range(4)}
        assert shards == {0, 1}  # alternates across the fleet
        assert_same_outcome(sharded.run(q, options), engine.run(q, options))

    def test_sk_db_matches_sk_on_an_index_file_fleet(self, setting,
                                                     tmp_path):
        """SK-DB routes like SK and is answered by the serving worker
        from the fleet's ``index_path`` file — single-owner and spanning
        requests alike, results and counters identical to SK."""
        engine, _ = setting
        g = engine.graph
        path = tmp_path / "fleet.rpli"
        engine.save_index(path)
        reference = reference_engine(g)
        sk, sk_db = QueryOptions(method="SK"), QueryOptions(method="SK-DB")
        with ShardedQueryService(g.copy(), 2, index_path=path) as fleet:
            for cats in ([0, 2], [1, 0, 3], [2, 1]):
                q = make_query(g, 3, 30, cats, k=3)
                assert fleet.shard_for(q, sk_db) == fleet.shard_for(q, sk)
                got = fleet.run(q, sk_db)
                assert_same_outcome(got, engine.run(q, sk))
                assert_same_outcome(got, reference.run(q, sk))
                assert got.stats.index_load_time > 0
            # an update makes the file stale fleet-wide, on every shard
            outsider = next(v for v in range(g.num_vertices)
                            if not fleet.graph.has_category(v, 0))
            fleet.add_vertex_to_category(outsider, 0)
            for cats in ([0, 2], [1, 3]):
                with pytest.raises(QueryError, match="save_index"):
                    fleet.run(make_query(g, 3, 30, cats, k=1), sk_db)

    def test_sk_db_without_an_index_file_is_the_engines_error(self, setting):
        engine, sharded = setting
        fresh = KOSREngine.build(engine.graph)
        q = make_query(sharded.graph, 0, 30, [0], k=1)
        with pytest.raises(QueryError, match="save_index") as on_fleet:
            sharded.run(q, QueryOptions(method="SK-DB"))
        with pytest.raises(QueryError) as on_engine:
            fresh.run(q, QueryOptions(method="SK-DB"))
        assert str(on_fleet.value) == str(on_engine.value)

    def test_update_edge_live_parity(self):
        """Edge updates apply fleet-wide without a restart.

        Answers from the replacement workers must be bit-identical to a
        fresh unsharded engine built from the post-update graph.
        """
        from repro.labeling.updates import apply_edge_mutation

        g = _graph(31)
        sharded = ShardedQueryService(g.copy(), 2)
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())  # warm the old index first
            sharded.update_edge(0, 1, 0.25)

            expected = g.copy()
            apply_edge_mutation(expected, 0, 1, 0.25)
            fresh = KOSREngine.build(expected)
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                fresh.run(q))
        finally:
            sharded.close()

    def test_update_edge_on_an_mmap_fleet(self, tmp_path):
        """An edge update on a fleet attached to an index file.

        A category update has already retired the file (it no longer
        describes category 0) when the edge update replaces every worker
        with one built from private post-update labels: SK-DB (which
        reads the file) stays refused, and a spanning SK query matches a
        fresh engine.  A later recovery respawns from the same private
        labels.
        """
        from repro.labeling.updates import apply_edge_mutation

        g = _graph(37)
        path = tmp_path / "fleet.rpli"
        KOSREngine.build(g).save_index(path)
        expected = g.copy()
        with ShardedQueryService(g.copy(), 2, index_path=path) as fleet:
            joined = next(v for v in range(g.num_vertices)
                          if not g.has_category(v, 0))
            fleet.add_vertex_to_category(joined, 0)
            expected.assign_category(joined, 0)
            assert fleet.index_path is None
            pids = {r["pid"] for r in fleet.epoch_info()["shards"]}

            fleet.update_edge(0, 1, 0.25)
            apply_edge_mutation(expected, 0, 1, 0.25)
            q = fleet.make_query(3, 30, [0, 1, 3], k=3)
            assert fleet.router.spans_shards(q.categories)
            assert_same_outcome(fleet.run(q, QueryOptions()),
                                KOSREngine.build(expected.copy()).run(q))
            assert fleet.index_path is None
            with pytest.raises(QueryError, match="save_index"):
                fleet.run(q, QueryOptions(method="SK-DB"))
            info = fleet.epoch_info()
            assert info["router_epoch"] == 2
            assert all(r["alive"] and r["pid"] not in pids
                       for r in info["shards"])
            assert fleet.respawns == 0

            # Kill one worker: the next update's recovery respawns it
            # from the parent's private post-update labels.
            fleet._procs[1].terminate()
            fleet._procs[1].join(timeout=5)
            joined = next(v for v in range(g.num_vertices)
                          if not expected.has_category(v, 1))
            fleet.add_vertex_to_category(joined, 1)
            expected.assign_category(joined, 1)
            assert fleet.respawns == 1
            assert_same_outcome(fleet.run(q, QueryOptions()),
                                KOSREngine.build(expected).run(q))

    def test_mmap_fault_in_after_an_update_builds_from_the_graph(
            self, tmp_path):
        """A live worker faults in a category updated since the file was
        written: it must build it from its updated graph, not attach the
        file's pre-update sections.

        Category 1 belongs to shard 1 and no query touches it before
        vertex 10 joins it, so shard 0 first materialises it for the
        spanning query ``[0, 1]``, whose top-3 the new member changes.
        """
        g = _graph(19)
        path = tmp_path / "fleet.rpli"
        KOSREngine.build(g).save_index(path)
        expected = g.copy()
        expected.assign_category(10, 1)
        q = make_query(g, 0, 30, [0, 1], k=3)
        fresh = KOSREngine.build(expected).run(q)
        assert fresh.costs != KOSREngine.build(g.copy()).run(q).costs
        with ShardedQueryService(g.copy(), 2, index_path=path) as fleet:
            assert fleet.shard_for(q, QueryOptions()) == 0
            fleet.add_vertex_to_category(10, 1)
            assert fleet.index_path is None
            assert_same_outcome(fleet.run(q, QueryOptions()), fresh)

    def test_cache_counters_do_not_fall_across_update_edge(
            self, enabled_registry):
        """The replaced workers' session counters carry into the fleet's
        totals — ``cache_stats()`` and the merged ``repro_cache_*_total``
        alike — so no counter falls when an edge update swaps workers,
        and no router counter is merged twice."""
        with ShardedQueryService(_graph(31), 2) as fleet:
            q = fleet.make_query(0, 30, [0, 1], k=3)
            for _ in range(3):
                fleet.run(q, QueryOptions())
            before = fleet.cache_stats()
            assert before["finder_hits"] >= 1
            fleet.update_edge(0, 1, 0.25)
            after = fleet.cache_stats()
            assert all(after[name] >= value
                       for name, value in before.items()), (before, after)
            fleet.run(q, QueryOptions())
            later = fleet.cache_stats()
            assert later["finder_misses"] == before["finder_misses"] + 1

            def counters(snapshot, prefix):
                return {(m["name"], m["labels"].get("shard")): m["value"]
                        for m in snapshot["metrics"]
                        if m["type"] == "counter"
                        and m["name"].startswith(prefix)}

            router = counters(enabled_registry.snapshot(), "repro_shard_")
            merged = fleet.metrics_snapshot()
            assert {name[len("repro_cache_"):-len("_total")]: value
                    for (name, _), value
                    in counters(merged, "repro_cache_").items()} == later
            # The replacements were forked from a parent that had counted
            # requests; they count only their own, so the merge adds the
            # router's counters once.
            assert counters(merged, "repro_shard_") == router

    def test_update_edge_rejected_on_topology_only_fleet(self):
        sharded = ShardedQueryService(_graph(31), 2, build_labels=False)
        try:
            with pytest.raises(QueryError, match="build_labels=False"):
                sharded.update_edge(0, 1, 2.0)
        finally:
            sharded.close()

    def test_update_edge_bad_delete_leaves_fleet_serving(self):
        """Deleting a missing edge raises before any state moves."""
        g = _graph(31)
        sharded = ShardedQueryService(g.copy(), 2)
        try:
            present = {(a, b) for a, b, _ in g.edges()}
            u, v = next((u, v) for u in range(5) for v in range(5, 12)
                        if (u, v) not in present)
            with pytest.raises(KeyError):
                sharded.update_edge(u, v, None)
            q = sharded.make_query(0, 30, [0, 1], k=2)
            fresh = KOSREngine.build(g.copy())
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                fresh.run(q))
        finally:
            sharded.close()

    def test_strict_budget_error_crosses_the_process_boundary(self, setting):
        from repro.exceptions import BudgetExceededError

        _, sharded = setting
        q = make_query(sharded.graph, 0, 30, [0, 1, 2], k=5)
        with pytest.raises(BudgetExceededError) as info:
            sharded.run(q, QueryOptions(budget=1, strict_budget=True))
        assert info.value.budget == 1  # __reduce__ preserved the payload


class TestShardedBatch:
    def test_batch_order_parity_and_groups(self, setting):
        engine, sharded = setting
        rng = random.Random(29)
        queries = [make_query(engine.graph, rng.randrange(40),
                              rng.randrange(40),
                              rng.sample(range(4), rng.randint(1, 2)), k=2)
                   for _ in range(12)]
        options = QueryOptions(method="SK")
        batch = sharded.run_batch(queries, options)
        assert len(batch) == len(queries)
        for q, got in zip(queries, batch):
            assert_same_outcome(got, engine.run(q, options))
        assert batch.num_groups >= 1
        lookups = (batch.cache_stats["finder_misses"]
                   + batch.cache_stats["finder_hits"])
        assert lookups >= len(queries)  # the whole batch ran warm-path

    def test_batch_cache_stats_are_per_batch_deltas(self, setting):
        _, sharded = setting
        q = make_query(sharded.graph, 0, 30, [0], k=1)
        first = sharded.run_batch([q], QueryOptions())
        second = sharded.run_batch([q], QueryOptions())
        # The second batch re-serves a warm target: hits, not misses —
        # and the deltas cover only that batch's single lookup.
        assert second.cache_stats["dest_kernel_hits"] == 1
        assert second.cache_stats["dest_kernel_misses"] == 0
        assert (first.cache_stats["dest_kernel_hits"]
                + first.cache_stats["dest_kernel_misses"]) == 1


class TestUpdateBroadcast:
    def test_spanning_query_after_interleaved_update(self):
        """Straddling request parity, before and after a broadcast update.

        The update targets a category on shard 1 while the spanning
        request runs on shard 0 — the copy shard 0 faulted in must
        observe it exactly as the owning shard's edited index does.
        """
        g = _graph(19, cats=4)
        sharded = ShardedQueryService(g.copy(), 2)
        try:
            q = sharded.make_query(1, 30, [0, 1], k=4)
            before_ref = KOSREngine.build(sharded.graph.copy())
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                before_ref.run(q))

            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 1))
            sharded.add_vertex_to_category(moved, 1)
            assert sharded.graph.has_category(moved, 1)

            after_ref = KOSREngine.build(sharded.graph.copy())
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                after_ref.run(q))

            sharded.remove_vertex_from_category(moved, 1)
            removed_ref = KOSREngine.build(sharded.graph.copy())
            assert_same_outcome(sharded.run(q, QueryOptions()),
                                removed_ref.run(q))
        finally:
            sharded.close()

    def test_update_fuzz_vs_fresh_engines(self):
        """Random update/query interleavings stay unsharded-identical."""
        g = _graph(37, cats=4)
        sharded = ShardedQueryService(g.copy(), 2)
        rng = random.Random(5)
        try:
            for _ in range(15):
                action = rng.random()
                if action < 0.25:
                    v = rng.randrange(g.num_vertices)
                    cid = rng.randrange(4)
                    if sharded.graph.has_category(v, cid) \
                            and sharded.graph.category_size(cid) > 1:
                        sharded.remove_vertex_from_category(v, cid)
                    else:
                        sharded.add_vertex_to_category(v, cid)
                elif action < 0.3:
                    sharded.compact()
                else:
                    q = sharded.make_query(
                        rng.randrange(g.num_vertices),
                        rng.randrange(g.num_vertices),
                        rng.sample(range(4), rng.randint(1, 3)), k=2)
                    fresh = KOSREngine.build(sharded.graph.copy())
                    assert_same_outcome(sharded.run(q, QueryOptions()),
                                        fresh.run(q))
        finally:
            sharded.close()


class TestWorkerProtocol:
    """Drive worker_main directly (in a thread) over a real pipe.

    Messages are ``(kind, seq, *args)``; replies echo the sequence
    number (``("ok"|"err", seq, payload)``) so the parent can discard
    replies to exchanges it abandoned.
    """

    @pytest.fixture()
    def worker_conn(self):
        import itertools
        import multiprocessing
        import threading

        from repro.shard.worker import worker_main

        g = _graph(91)
        engine = KOSREngine.build(g)
        parent, child = multiprocessing.Pipe(duplex=True)
        thread = threading.Thread(
            target=worker_main,
            args=(child, g, engine.labels, [0, 2], None, None),
            daemon=True)
        thread.start()
        kind, seq, health = parent.recv()  # startup handshake
        assert (kind, seq) == ("ok", 0)
        seqs = itertools.count(1)

        def exchange(kind, *args):
            seq = next(seqs)
            parent.send((kind, seq, *args))
            reply_kind, reply_seq, payload = parent.recv()
            assert reply_seq == seq
            return reply_kind, payload

        yield g, engine, exchange, health
        assert exchange("shutdown") == ("ok", "bye")
        thread.join(timeout=5)

    def test_query_ping_stats_and_faulting(self, worker_conn):
        g, engine, exchange, health = worker_conn
        assert health["owned_categories"] == [0, 2]
        q = make_query(g, 0, 20, [1, 3], k=2)  # neither category owned
        kind, result = exchange("query", q, QueryOptions())
        assert kind == "ok"
        assert_same_outcome(result, engine.run(q))
        _, report = exchange("ping")
        # Both unowned categories were faulted in to serve the query.
        assert set(report["materialized_categories"]) == {0, 1, 2, 3}
        kind, stats = exchange("stats")
        assert kind == "ok" and stats["finder_misses"] == 1

    def test_update_only_patches_materialized_categories(self, worker_conn):
        g, engine, exchange, _ = worker_conn
        v = next(v for v in range(g.num_vertices)
                 if not g.has_category(v, 1))
        kind, epoch = exchange("update", "add", v, 1)  # not materialized
        assert kind == "ok" and epoch == 0   # membership only, no IL touch
        _, report = exchange("ping")
        assert 1 not in report["materialized_categories"]
        kind, epoch = exchange("update", "add", v, 0)  # owned: IL edited
        assert kind == "ok" and epoch >= 1
        kind, _ = exchange("compact")
        assert kind == "ok"

    def test_errors_are_replies_not_crashes(self, worker_conn):
        g, _, exchange, _ = worker_conn
        kind, exc = exchange("nonsense")
        assert kind == "err" and isinstance(exc, ValueError)
        kind, exc = exchange("update")  # known kind, arguments missing
        assert kind == "err" and isinstance(exc, TypeError)
        q = make_query(g, 0, 20, [0], k=1)
        kind, exc = exchange("query", q,
                             QueryOptions(budget=0, strict_budget=True))
        assert kind == "err"
        # The worker answered and lives on: the next request still works.
        kind, result = exchange("query", q, QueryOptions())
        assert kind == "ok" and result.stats.completed


class TestLifecycle:
    def test_ping_reports_every_shard(self, setting):
        _, sharded = setting
        reports = sharded.ping()
        assert [r["shard"] for r in reports] == [0, 1]
        assert all(r["alive"] for r in reports)
        owned = sorted(c for r in reports for c in r["owned_categories"])
        assert owned == [0, 1, 2, 3]  # a partition: disjoint and complete

    def test_cache_stats_and_hit_rates_aggregate(self, setting):
        _, sharded = setting
        q = make_query(sharded.graph, 3, 33, [0], k=1)
        sharded.run(q, QueryOptions())
        sharded.run(q, QueryOptions())
        totals = sharded.cache_stats()
        assert totals["finder_misses"] >= 1
        rates = hit_rates_from(totals)
        assert set(rates) == {"finder", "dest_kernel", "est_stream", "ch", "disk_view"}
        assert 0.0 <= rates["finder"] <= 1.0

    def test_close_is_idempotent_and_querying_after_close_fails(self):
        sharded = ShardedQueryService(_graph(7), 2)
        q = sharded.make_query(0, 10, [0], k=1)
        sharded.run(q, QueryOptions())
        sharded.close()
        sharded.close()
        assert all(not p.is_alive() for p in sharded._procs)
        with pytest.raises(ShardError):
            sharded.run(q, QueryOptions())

    def test_timed_out_reply_is_discarded_not_served_to_next_request(self):
        """A slow reply must never answer a *later* request (regression).

        The fake transport holds the worker's first query reply back
        (after the handler ran) for longer than the request timeout, so
        the exchange is abandoned while the reply is provably still to
        come; the following request on the same shard must get its own
        answer — the stale reply is dropped by sequence number, not
        popped as the next response.
        """
        sharded = InThreadFleet(_graph(41), 1)
        sharded.arm(0, "query", "after", "delay", delay_s=0.6)
        try:
            q_slow = sharded.make_query(0, 10, [0, 1], k=3)
            q_fast = sharded.make_query(5, 20, [1], k=1)
            sharded.timeout_s = 0.2
            with pytest.raises(ShardError, match="no response"):
                sharded.run(q_slow, QueryOptions())
            # The held reply (seq 1) is still ahead of this one's (seq 2).
            sharded.timeout_s = 30.0
            got = sharded.run(q_fast, QueryOptions())
            cold = KOSREngine.build(sharded.graph.copy()).run(q_fast)
            assert_same_outcome(got, cold)
            assert sharded.fired == [(0, "query", "after", "delay")]
        finally:
            sharded.close()

    def test_dead_worker_surfaces_as_shard_error(self):
        sharded = ShardedQueryService(_graph(13), 2)
        try:
            sharded._procs[0].terminate()
            sharded._procs[0].join(timeout=5)
            q = sharded.make_query(0, 10, [0], k=1)  # category 0 -> shard 0
            with pytest.raises(ShardError):
                sharded.run(q, QueryOptions())
            reports = sharded.ping()
            assert reports[0]["alive"] is False
            assert reports[1]["alive"] is True
        finally:
            sharded.close()

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedQueryService(_graph(3), 0)

    def test_failed_startup_tears_spawned_workers_down(self, monkeypatch):
        """A handshake failure must not leak already-started workers.

        Runs under a Python-level SIGTERM handler, as any process that
        served through ``cli serve`` has: forked workers inherit it, and
        a SIGTERM landing in a worker's first instants after fork is
        then lost — the teardown must still reap every worker.
        """
        import signal

        def raise_interrupt(_signo, _frame):
            raise KeyboardInterrupt

        spawned = {}
        original_recv = ShardedQueryService._recv

        def failing_recv(self, shard, seq, timeout_s=None):
            if seq == 0 and shard == 1:  # second worker "fails" to start
                spawned["procs"] = list(self._procs)
                raise ShardError(shard, "simulated startup failure")
            return original_recv(self, shard, seq, timeout_s=timeout_s)

        monkeypatch.setattr(ShardedQueryService, "_recv", failing_recv)
        previous = signal.signal(signal.SIGTERM, raise_interrupt)
        try:
            with pytest.raises(ShardError, match="simulated"):
                ShardedQueryService(_graph(23), 2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        # The constructor reaped them itself: nothing left to wait for.
        assert all(not proc.is_alive() for proc in spawned["procs"])

    def test_unrecoverable_update_broadcast_poisons_the_fleet(
            self, monkeypatch):
        """Divergent fleets fail fast instead of serving inconsistently.

        A broadcast failure is now recovered by retry + respawn; only
        when even the respawn fails does the fleet poison itself.
        """
        sharded = ShardedQueryService(_graph(31), 2)
        sharded.update_retries = 0
        try:
            q = sharded.make_query(0, 10, [0], k=1)
            sharded.run(q, QueryOptions())
            original = ShardedQueryService._exchange_locked

            def failing_exchange(self, shard, msg, on_route=None):
                if msg[0] == "update" and shard == 1:
                    raise ShardError(shard, "worker died mid-broadcast")
                return original(self, shard, msg, on_route=on_route)

            def failing_respawn(self, shard):
                raise ShardError(shard, "respawn denied by test")

            monkeypatch.setattr(ShardedQueryService, "_exchange_locked",
                                failing_exchange)
            monkeypatch.setattr(ShardedQueryService,
                                "_respawn_worker_locked", failing_respawn)
            with pytest.raises(ShardError, match="respawn denied"):
                sharded.add_vertex_to_category(0, 1)
            monkeypatch.undo()
            with pytest.raises(ShardError, match="diverged"):
                sharded.run(q, QueryOptions())
            # Every update entry point refuses too, before any parent
            # state moves (regression: add/remove/compact went through,
            # mutating the graph and bumping the epoch of a dead fleet).
            outsider = next(v for v in range(sharded.graph.num_vertices)
                            if not sharded.graph.has_category(v, 1))
            member = next(iter(sharded.graph.members(1)))
            before = (sorted(sharded.graph.members(1)),
                      sharded.index_path, sharded.index_epoch)
            for refused in (
                    lambda: sharded.add_vertex_to_category(outsider, 1),
                    lambda: sharded.remove_vertex_from_category(member, 1),
                    sharded.compact,
                    lambda: sharded.update_edge(0, 1, 0.5)):
                with pytest.raises(ShardError, match="diverged"):
                    refused()
            assert (sorted(sharded.graph.members(1)),
                    sharded.index_path, sharded.index_epoch) == before
        finally:
            sharded.close()

    def test_workers_follow_a_killed_parent_down(self):
        """SIGKILL the parent: the watchdog must reap the workers.

        Under fork, workers inherit parent-side pipe fds, so they never
        see EOF when the parent dies uncleanly — the recv loop's
        parent-pid watchdog is what prevents orphaned worker processes
        (regression: `kill <serve pid>` used to leave them behind).
        """
        import os
        import signal
        import subprocess
        import sys
        import time

        code = (
            "import random, time\n"
            "from repro import ShardedQueryService\n"
            "from repro.graph.builders import random_graph\n"
            "from repro.graph.categories import assign_uniform_categories\n"
            "g = random_graph(30, avg_out_degree=2.5,"
            " rng=random.Random(1))\n"
            "assign_uniform_categories(g, 2, 5, random.Random(2))\n"
            "s = ShardedQueryService(g, 2)\n"
            "print('\\n'.join(str(r['pid']) for r in s.ping()),"
            " flush=True)\n"
            "time.sleep(60)\n"
        )
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ,
               "PYTHONPATH": src + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            pids = [int(proc.stdout.readline()) for _ in range(2)]
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.time() + 10
            while time.time() < deadline and any(
                    os.path.exists(f"/proc/{pid}") for pid in pids):
                time.sleep(0.2)
            leftover = [pid for pid in pids
                        if os.path.exists(f"/proc/{pid}")]
            for pid in leftover:  # never leak even when failing
                os.kill(pid, signal.SIGKILL)
            assert not leftover
        finally:
            if proc.poll() is None:
                proc.kill()


class TestOneFleetPath:
    """The seams: ``_spawn`` / ``_reap`` / ``_fan_out``, driven over the
    fake transport of ``tests/fleet_fakes.py``."""

    def test_removed_parameters_are_gone(self):
        g = _graph(3)
        for removed in ({"fault_injection": {}}, {"metrics": True},
                        {"update_retries": 0}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                ShardedQueryService(g, 2, **removed)

    def test_reap_kills_a_worker_that_ignores_terminate(self):
        """The ladder's last rung — the one ``close()`` used to lack."""
        calls = []

        class Stubborn(ThreadProcess):
            def terminate(self):
                calls.append("terminate")  # ... and carries on serving

            def kill(self):
                calls.append("kill")
                super().terminate()

        class StubbornContext(FakeContext):
            Process = Stubborn

        class Fleet(InThreadFleet):
            context = StubbornContext

        fleet = Fleet(_graph(7), 2)
        procs = list(fleet._procs)
        fleet._reap(0, grace_s=0.05)
        assert calls == ["terminate", "kill"]
        assert not procs[0].is_alive() and procs[1].is_alive()
        # close() escalates the same way when a worker sits on its
        # "shutdown" (shard 0 is gone already: nothing to signal there).
        fleet.arm(1, "shutdown", "before", "hang")
        fleet.close(grace_s=0.05)
        assert calls == ["terminate", "kill"] * 2
        assert not any(proc.is_alive() for proc in procs)

    def test_failing_second_spawn_reaps_the_first(self):
        spawned = []

        class Fleet(InThreadFleet):
            def _spawn(self, shard):
                if shard == 1:
                    raise OSError("no more processes")
                super()._spawn(shard)
                spawned.append(self._procs[shard])

        with pytest.raises(OSError, match="no more processes"):
            Fleet(_graph(7), 2)
        assert len(spawned) == 1 and not spawned[0].is_alive()

    def test_every_worker_starts_before_the_first_handshake(self):
        events = []

        class Fleet(InThreadFleet):
            def _spawn(self, shard):
                events.append(("spawn", shard))
                super()._spawn(shard)

            def _recv(self, shard, seq, **kwargs):
                if seq == 0:
                    events.append(("handshake", shard))
                return super()._recv(shard, seq, **kwargs)

        with Fleet(_graph(7), 3):
            assert events == [("spawn", 0), ("spawn", 1), ("spawn", 2),
                              ("handshake", 0), ("handshake", 1),
                              ("handshake", 2)]

    def test_fan_out_waits_for_every_shard_and_raises_the_first(self):
        """Shard order in, shard order out; no exchange is abandoned."""
        finished = []
        calling_thread = threading.get_ident()

        def echo(shard, msg):
            return (shard, msg)

        def failing(shard, msg):
            if shard == 0:
                assert threading.get_ident() == calling_thread
            if shard == 1:
                raise ShardError(1, "first failure")
            if shard == 2:
                time.sleep(0.1)
                finished.append(2)
                raise ShardError(2, "second failure")
            return (shard, msg)

        with InThreadFleet(_graph(7), 3) as fleet:
            assert fleet._fan_out(echo, "m", [2, 0]) == [(2, "m"), (0, "m")]
            assert fleet._fan_out(echo, "m", [1]) == [(1, "m")]
            with pytest.raises(ShardError, match="first failure"):
                fleet._fan_out(failing, "m", range(3))
            assert finished == [2]  # waited out before the re-raise

    def test_update_retries_attribute_controls_the_retry_rung(self):
        """A lost acknowledgement: one resend recovers it, and with the
        rung disabled the ladder goes straight to respawn."""
        g = _graph(11)
        moved = next(v for v in range(g.num_vertices)
                     if not g.has_category(v, 1))
        for retries, respawns in ((1, 0), (0, 1)):
            with InThreadFleet(g.copy(), 2, timeout_s=0.2) as fleet:
                assert ShardedQueryService.update_retries == 1
                fleet.update_retries = retries
                fleet.arm(1, "update", "after", "drop")
                fleet.add_vertex_to_category(moved, 1)
                assert fleet.fired == [(1, "update", "after", "drop")]
                assert fleet.respawns == respawns
                assert fleet._diverged is None
                q = fleet.make_query(0, 30, [0, 1], k=3)
                fresh = KOSREngine.build(fleet.graph.copy())
                assert_same_outcome(fleet.run(q, QueryOptions()),
                                    fresh.run(q))


class TestAsyncOverShards:
    def test_coalescing_and_parity_through_the_front_door(self, setting):
        from repro import AsyncQueryService

        engine, sharded = setting
        q = make_query(engine.graph, 4, 32, [0, 1], k=3)
        request = QueryRequest(q, QueryOptions())

        async def scenario():
            async with AsyncQueryService(sharded) as front:
                results = await asyncio.gather(
                    *(front.submit(request) for _ in range(6)))
                return results, front.stats

        results, stats = asyncio.run(scenario())
        assert stats.executed == 1 and stats.coalesced == 5
        assert all(r is results[0] for r in results)
        assert_same_outcome(results[0], engine.run(q))

    def test_gather_mixed_groups_parity(self, setting):
        from repro import AsyncQueryService

        engine, sharded = setting
        rng = random.Random(3)
        queries = [make_query(engine.graph, rng.randrange(40),
                              rng.randrange(40),
                              rng.sample(range(4), rng.randint(1, 2)), k=2)
                   for _ in range(8)]
        requests = [QueryRequest(q, QueryOptions()) for q in queries]

        async def scenario():
            async with AsyncQueryService(sharded) as front:
                return await front.gather(requests)

        results = asyncio.run(scenario())
        for q, got in zip(queries, results):
            assert_same_outcome(got, engine.run(q))


class TestShardedTCP:
    def test_serve_and_stats_request_over_shards(self, setting):
        from repro.server.tcp import serve

        engine, sharded = setting
        s, t = 2, 31

        async def scenario():
            server = await serve(None, "127.0.0.1", 0, service=sharded)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(json.dumps(
                {"id": "q", "source": s, "target": t,
                 "categories": [0, 1], "k": 2}).encode() + b"\n")
            writer.write(json.dumps({"id": "ops", "stats": True}).encode()
                         + b"\n")
            await writer.drain()
            answer = json.loads(await reader.readline())
            stats = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await server.query_service.close()
            return answer, stats

        answer, stats = asyncio.run(scenario())
        cold = engine.run(make_query(engine.graph, s, t, [0, 1], k=2))
        assert answer["id"] == "q"
        assert answer["costs"] == pytest.approx(cold.costs)
        assert answer["nn_queries"] == cold.stats.nn_queries
        assert stats["id"] == "ops"
        assert stats["stats"]["serving"]["executed"] >= 1
        assert "finder_misses" in stats["stats"]["cache"]
        assert set(stats["stats"]["hit_rates"]) == \
            {"finder", "dest_kernel", "est_stream", "ch", "disk_view"}
        # Index footprint arrives per worker over the pipes.
        memory = stats["stats"]["index_memory"]
        assert memory["num_shards"] == sharded.num_shards
        assert len(memory["shards"]) == sharded.num_shards
        for shard in memory["shards"]:
            assert shard["total_resident"] > 0
            assert "rss_bytes" in shard and "uss_bytes" in shard
        # Epoch/version state arrives per shard too.
        epochs = stats["stats"]["epochs"]
        assert epochs["router_epoch"] == sharded._epoch
        assert len(epochs["shards"]) == sharded.num_shards
        for report in epochs["shards"]:
            assert report["alive"] is True
            assert report["epoch"] == report["epoch_base"] + \
                sum(report["category_versions"].values())


class TestShardedCLI:
    @pytest.fixture()
    def workload_setup(self, tmp_path):
        from repro.graph.io import save_json

        g = _graph(53)
        graph_path = tmp_path / "g.json"
        save_json(g, graph_path)
        records = [
            {"source": 0, "target": 30, "categories": [0, 1], "k": 2},
            {"source": 2, "target": 30, "categories": [1], "k": 2},
            {"source": 5, "target": 11, "categories": [2, 3], "k": 1},
        ]
        wl_path = tmp_path / "wl.json"
        wl_path.write_text(json.dumps(records))
        return g, str(graph_path), str(wl_path), records

    def _reference_rows(self, g, records):
        engine = KOSREngine.build(g)
        return [engine.run(make_query(g, r["source"], r["target"],
                                      r["categories"], k=r["k"]))
                for r in records]

    def test_batch_shards_matches_unsharded(self, workload_setup, capsys):
        from repro.cli import main

        g, graph_path, wl_path, records = workload_setup
        assert main(["batch", "--graph", graph_path, "--workload", wl_path,
                     "--shards", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        refs = self._reference_rows(g, records)
        assert len(payload["queries"]) == len(records)
        for row, ref in zip(payload["queries"], refs):
            assert row["costs"] == pytest.approx(ref.costs)
            assert row["nn_queries"] == ref.stats.nn_queries
            assert row["examined_routes"] == ref.stats.examined_routes
        assert "cache_stats" in payload

    def test_async_batch_shards_matches_unsharded(self, workload_setup,
                                                  capsys):
        from repro.cli import main

        g, graph_path, wl_path, records = workload_setup
        assert main(["batch", "--async", "--graph", graph_path,
                     "--workload", wl_path, "--shards", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        refs = self._reference_rows(g, records)
        for row, ref in zip(payload["queries"], refs):
            assert row["costs"] == pytest.approx(ref.costs)
            assert row["nn_queries"] == ref.stats.nn_queries
        assert payload["serving_stats"]["executed"] == len(records)
        # the fleet's counters, read before the workers shut down
        assert payload["cache_stats"]["finder_misses"] > 0

    def test_shards_one_runs_a_real_single_worker_fleet(self, workload_setup,
                                                        capsys):
        """--shards 1 must engage the worker process, not fall back."""
        from unittest.mock import patch

        from repro.cli import main
        from repro.shard import ShardedQueryService

        g, graph_path, wl_path, records = workload_setup
        with patch.object(ShardedQueryService, "run_batch",
                          autospec=True,
                          side_effect=ShardedQueryService.run_batch) as spy:
            assert main(["batch", "--graph", graph_path,
                         "--workload", wl_path, "--shards", "1",
                         "--json"]) == 0
            assert spy.called  # the fleet served it, not the engine
        payload = json.loads(capsys.readouterr().out)
        refs = self._reference_rows(g, records)
        for row, ref in zip(payload["queries"], refs):
            assert row["costs"] == pytest.approx(ref.costs)
            assert row["nn_queries"] == ref.stats.nn_queries

    def test_nonpositive_shards_rejected(self, workload_setup):
        from repro.cli import main

        _, graph_path, wl_path, _ = workload_setup
        with pytest.raises(SystemExit, match="--shards must be >= 1"):
            main(["batch", "--graph", graph_path, "--workload", wl_path,
                  "--shards", "0"])
