"""The asyncio serving front-end: coalescing, backpressure, epoch parity.

Plain ``asyncio.run``-based tests (no pytest-asyncio in the toolchain).
Pins the acceptance contracts of the PR 4 server:

* N identical concurrent requests coalesce onto ONE plan execution and
  every waiter receives the *same result object* (asserted through the
  front door's ServingStats and the group session's cache counters);
* admission is bounded: past ``max_queue`` pending requests, submits
  fail with :class:`ServiceOverloadedError` and nothing is enqueued;
* interleaved updates and serving keep epoch-invalidation parity — every
  async answer is bit-identical (results + QueryStats counters) to a
  fresh cold engine built after the update;
* query errors propagate to all coalesced waiters and the front door
  stays usable;
* the JSON-lines TCP face answers, reports errors, and echoes ids.
"""

import asyncio
import json
import random
import threading

import pytest

from repro import (
    AsyncQueryService,
    KOSREngine,
    QueryOptions,
    QueryRequest,
    ServiceOverloadedError,
    make_query,
)
from repro.exceptions import QueryError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories

from test_backend_parity import assert_same_outcome


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture()
def engine():
    return KOSREngine.build(_graph(61))


class TestCoalescing:
    def test_identical_concurrent_requests_share_one_execution(self, engine):
        q = make_query(engine.graph, 0, 30, [0, 1], k=3)
        request = QueryRequest(q, QueryOptions())

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         max_inflight=2) as front:
                results = await asyncio.gather(
                    *(front.submit(request) for _ in range(8)))
                return results, front.stats

        results, stats = asyncio.run(scenario())
        assert stats.executed == 1
        assert stats.coalesced == 7
        assert stats.submitted == 8
        # Everyone got the very same response object, not copies.
        assert all(r is results[0] for r in results)
        # One execution == one cold-equivalent answer.
        cold = KOSREngine.build(engine.graph).run(q)
        assert_same_outcome(results[0], cold)

    def test_coalescing_observed_in_group_session_counters(self, engine):
        """One execution -> one finder/dest-kernel build, zero warm hits."""
        q = make_query(engine.graph, 1, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                await asyncio.gather(*(front.submit(QueryRequest(q))
                                       for _ in range(6)))
                (session,) = front.group_sessions().values()
                return front.stats, session.stats.as_dict()

        stats, cache = asyncio.run(scenario())
        assert stats.executed == 1 and stats.coalesced == 5
        # The group session saw exactly one query: one cold build each,
        # zero warm hits — six separate executions would show 5 hits.
        assert cache["finder_misses"] == 1 and cache["finder_hits"] == 0
        assert cache["dest_kernel_misses"] == 1
        assert cache["dest_kernel_hits"] == 0

    def test_distinct_requests_do_not_coalesce(self, engine):
        g = engine.graph
        queries = [make_query(g, s, 30, [0, 1], k=2) for s in (0, 1, 2)]
        # Same (s, t, C, k) but different options is a different request.
        extra = QueryRequest(queries[0], QueryOptions(method="PK"))

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                results = await front.gather(
                    [QueryRequest(q) for q in queries] + [extra])
                return results, front.stats

        results, stats = asyncio.run(scenario())
        assert stats.executed == 4 and stats.coalesced == 0
        for q, r in zip(queries, results):
            assert_same_outcome(r, KOSREngine.build(g).run(q))
        assert results[3].stats.method == "PK"

    def test_coalesce_false_executes_every_request(self, engine):
        q = make_query(engine.graph, 0, 30, [0], k=1)

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         coalesce=False) as front:
                results = await asyncio.gather(
                    *(front.submit(QueryRequest(q)) for _ in range(3)))
                return results, front.stats

        results, stats = asyncio.run(scenario())
        assert stats.executed == 3 and stats.coalesced == 0
        assert results[0] is not results[1]
        assert_same_outcome(results[0], results[1])

    def test_gather_preserves_input_order(self, engine):
        g = engine.graph
        queries = [make_query(g, s, 25 + (s % 3), [0, 1], k=2)
                   for s in range(6)]

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         max_inflight=3) as front:
                return await front.gather(queries)

        results = asyncio.run(scenario())
        assert [r.query for r in results] == queries


class TestBackpressure:
    def test_rejects_above_max_queue(self, engine):
        g = engine.graph
        queries = [make_query(g, s, 30, [0, 1], k=2) for s in range(6)]
        gate = threading.Event()

        async def scenario():
            front = AsyncQueryService(engine.service, max_inflight=1,
                                      max_queue=2)
            real = front._execute
            front._execute = lambda *args: (gate.wait(10), real(*args))[1]
            tasks = [asyncio.ensure_future(front.submit(QueryRequest(q)))
                     for q in queries]
            # Let every submit run its admission section while the first
            # request blocks in the worker thread on the gate.
            for _ in range(10):
                await asyncio.sleep(0)
            rejected = [t for t in tasks if t.done()]
            gate.set()
            settled = await asyncio.gather(*tasks, return_exceptions=True)
            await front.close()
            return rejected, settled, front.stats

        rejected, settled, stats = asyncio.run(scenario())
        # Admission held 2 (max_queue); the other 4 failed fast.
        assert len(rejected) == 4
        assert all(isinstance(t.exception(), ServiceOverloadedError)
                   for t in rejected)
        errors = [r for r in settled if isinstance(r, Exception)]
        answers = [r for r in settled if not isinstance(r, Exception)]
        assert len(errors) == 4 and len(answers) == 2
        assert stats.rejected == 4 and stats.executed == 2
        assert stats.submitted == 6

    def test_pending_drains_and_service_recovers(self, engine):
        q1 = make_query(engine.graph, 0, 30, [0, 1], k=2)
        q2 = make_query(engine.graph, 1, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         max_queue=1) as front:
                await front.submit(QueryRequest(q1))
                assert front.pending == 0  # drained, not leaked
                return await front.submit(QueryRequest(q2))

        result = asyncio.run(scenario())
        assert result.stats.completed

    def test_invalid_limits_rejected(self, engine):
        with pytest.raises(ValueError):
            AsyncQueryService(engine.service, max_inflight=0)
        with pytest.raises(ValueError):
            AsyncQueryService(engine.service, max_queue=0)
        with pytest.raises(ValueError):
            AsyncQueryService(engine.service, max_groups=0)

    def test_idle_groups_retired_at_max_groups(self, engine):
        """Diverse traffic must not grow one worker per group forever."""
        g = engine.graph

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         max_groups=2) as front:
                for t in (25, 26, 27, 28, 29):
                    await front.submit(
                        QueryRequest(make_query(g, 0, t, [0, 1], k=1)))
                return len(front._groups), front.stats.groups_retired

        live, retired = asyncio.run(scenario())
        assert live <= 2
        assert retired == 3

    def test_busy_groups_never_evicted(self, engine):
        """The group cap is soft: outstanding requests pin their group."""
        g = engine.graph
        gate = threading.Event()

        async def scenario():
            front = AsyncQueryService(engine.service, max_inflight=1,
                                      max_groups=1)
            real = front._execute
            front._execute = lambda *args: (gate.wait(10),
                                            real(*args))[1]
            first = asyncio.ensure_future(front.submit(
                QueryRequest(make_query(g, 0, 25, [0, 1], k=1))))
            for _ in range(5):
                await asyncio.sleep(0)
            # A second group arrives while the first is busy: no eviction.
            second = asyncio.ensure_future(front.submit(
                QueryRequest(make_query(g, 0, 26, [0, 1], k=1))))
            for _ in range(5):
                await asyncio.sleep(0)
            overshoot = len(front._groups)
            gate.set()
            results = await asyncio.gather(first, second)
            await front.close()
            return overshoot, results, front.stats.groups_retired

        overshoot, results, retired = asyncio.run(scenario())
        assert overshoot == 2  # soft cap overshot rather than dropping work
        assert retired == 0
        assert all(r.stats.completed for r in results)

    def test_worker_survives_plumbing_failure(self, engine):
        """An exception outside the executor must not hang the group."""
        q1 = make_query(engine.graph, 0, 30, [0, 1], k=2)
        q2 = make_query(engine.graph, 1, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                real_barrier = front._overlay_barrier
                calls = {"n": 0}

                async def flaky_barrier():
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise RuntimeError("synthetic plumbing failure")
                    await real_barrier()

                front._overlay_barrier = flaky_barrier
                with pytest.raises(RuntimeError, match="synthetic"):
                    await front.submit(QueryRequest(q1))
                # Same group, same worker: it must still be alive.
                result = await front.submit(QueryRequest(q2))
                assert front.pending == 0
                return result

        result = asyncio.run(scenario())
        assert result.stats.completed


class TestErrorPropagation:
    def test_query_error_reaches_every_coalesced_waiter(self, engine):
        q = make_query(engine.graph, 0, 30, [0], k=1)
        bad = QueryRequest(q, QueryOptions(method="SK-DB"))  # no saved file

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                settled = await asyncio.gather(
                    *(front.submit(bad) for _ in range(3)),
                    return_exceptions=True)
                # The front door must stay usable after a failure.
                ok = await front.submit(QueryRequest(q))
                return settled, ok

        settled, ok = asyncio.run(scenario())
        assert all(isinstance(r, QueryError) for r in settled)
        assert ok.stats.completed

    def test_submit_after_close_rejected(self, engine):
        q = make_query(engine.graph, 0, 30, [0], k=1)

        async def scenario():
            front = AsyncQueryService(engine.service)
            await front.close()
            with pytest.raises(RuntimeError, match="closed"):
                await front.submit(QueryRequest(q))

        asyncio.run(scenario())


class TestInterleavedUpdateParity:
    """Serve → update → serve keeps epoch-invalidation parity.

    After every index mutation, async answers must match a cold engine
    freshly built from the current graph — results AND counters — which
    proves the per-group sessions revalidate their epoch instead of
    serving stale warm state.
    """

    def test_category_update_between_batches(self):
        g = _graph(67)
        engine = KOSREngine.build(g)
        queries = [make_query(g, s, 30, [0, 1], k=3) for s in (0, 1, 2, 0)]

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         max_inflight=2) as front:
                before = await front.gather(queries)
                await front.drain()          # quiesce before mutating
                assert front.pending == 0
                outsider = next(v for v in range(g.num_vertices)
                                if not g.has_category(v, 0))
                engine.add_vertex_to_category(outsider, 0)
                assert engine.inverted[0].dirty
                after = await front.gather(queries)
                # The barrier folded the pending overlay on the loop
                # thread before any pool thread created a cursor.
                assert front.stats.overlay_folds >= 1
                assert not engine.inverted[0].dirty
                return before, after

        before, after = asyncio.run(scenario())
        fresh = KOSREngine.build(g)  # sees the updated graph/categories
        for q, warm in zip(queries, after):
            assert_same_outcome(warm, fresh.run(q))
        # And the pre-update answers matched the pre-update state: the
        # first batch ran before the mutation, so its own parity engine
        # cannot be rebuilt here — completion is the meaningful check.
        assert all(r.stats.completed for r in before)

    @pytest.mark.parametrize("seed", [301, 302])
    def test_fuzz_updates_vs_fresh_engines(self, seed):
        rng = random.Random(seed)
        g = _graph(seed, n=36, cats=4, size=6)
        engine = KOSREngine.build(g)

        async def serve_round(front, queries):
            return await front.gather([QueryRequest(q) for q in queries])

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         max_inflight=2) as front:
                for _ in range(6):
                    op = rng.random()
                    if op < 0.35:
                        v = rng.randrange(g.num_vertices)
                        cid = rng.randrange(g.num_categories)
                        if g.has_category(v, cid) and g.category_size(cid) > 2:
                            engine.remove_vertex_from_category(v, cid)
                        else:
                            engine.add_vertex_to_category(v, cid)
                    elif op < 0.45:
                        u, v = (rng.randrange(g.num_vertices),
                                rng.randrange(g.num_vertices))
                        if u != v:
                            engine.update_edge(u, v, rng.uniform(0.5, 3.0))
                    elif op < 0.55:
                        engine.compact()
                    t = rng.randrange(g.num_vertices)
                    cats = rng.sample(range(g.num_categories), 2)
                    queries = [make_query(g, rng.randrange(g.num_vertices),
                                          t, cats, k=3) for _ in range(4)]
                    warm = await serve_round(front, queries)
                    cold_engine = KOSREngine.build(g)
                    for q, w in zip(queries, warm):
                        assert_same_outcome(w, cold_engine.run(q))

        asyncio.run(scenario())


class TestTcpServer:
    def test_json_lines_round_trip(self, engine):
        from repro.server.tcp import serve

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0,
                                 defaults=QueryOptions())
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = [
                {"id": "a", "source": 0, "target": 30,
                 "categories": [0, 1], "k": 2},
                {"id": "dup", "source": 0, "target": 30,
                 "categories": [0, 1], "k": 2},
                {"id": "bad-method", "source": 0, "target": 30,
                 "categories": [0], "method": "NOPE"},
                {"id": "malformed", "source": 0},
            ]
            for record in requests:
                writer.write(json.dumps(record).encode() + b"\n")
            await writer.drain()
            responses = [json.loads(await reader.readline())
                         for _ in requests]
            writer.write(b"not json at all\n")
            await writer.drain()
            responses.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await server.query_service.close()
            return responses

        a, dup, bad_method, malformed, not_json = asyncio.run(scenario())
        assert a["id"] == "a" and a["completed"]
        assert a["costs"] and a["witnesses"]
        # Identical requests over one connection give identical answers.
        assert dup["costs"] == a["costs"]
        assert dup["witnesses"] == a["witnesses"]
        assert "unknown method" in bad_method["error"]
        assert "needs 'target'" in malformed["error"]
        assert not_json["kind"] == "JSONDecodeError"

    def test_stats_request_reports_cache_and_hit_rates(self, engine):
        """Operators can inspect a live server: {"stats": true}."""
        from repro.server.tcp import serve

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0,
                                 defaults=QueryOptions())
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            query = {"source": 0, "target": 30, "categories": [0, 1], "k": 2}
            for record in (query, query, {"id": "ops", "stats": True}):
                writer.write(json.dumps(record).encode() + b"\n")
            await writer.drain()
            responses = [json.loads(await reader.readline())
                         for _ in range(3)]
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await server.query_service.close()
            return responses

        first, second, ops = asyncio.run(scenario())
        assert first["completed"] and second["completed"]
        assert ops["id"] == "ops"
        stats = ops["stats"]
        assert stats["serving"]["submitted"] == 2
        assert stats["serving"]["executed"] == 2  # sequential: no coalesce
        # The second identical query ran warm: the group session shows a
        # hit, and the eviction counters are exposed for operators.
        assert stats["cache"]["finder_hits"] >= 1
        assert "dest_kernel_evictions" in stats["cache"]
        assert "cursor_evictions" in stats["cache"]
        assert stats["hit_rates"]["finder"] > 0.0
        # Resident-vs-serialized index footprint rides along in the same
        # reply (built in-process, so not an mmap-shared attachment).
        memory = stats["index_memory"]
        assert "backend" not in memory
        assert memory["shared"] is False
        assert memory["total_resident"] > 0
        assert memory["total_serialized"] > 0
