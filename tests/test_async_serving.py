"""The asyncio serving front-end: coalescing, backpressure, epoch parity.

Plain ``asyncio.run``-based tests (no pytest-asyncio in the toolchain).
Pins the acceptance contracts of the PR 4 server:

* N identical concurrent requests coalesce onto ONE plan execution and
  every waiter receives the *same result object* (asserted through the
  front door's ServingStats and the session's cache counters);
* every group runs over the service's one warm session on one execution
  thread: FindNN streams are reused across targets, and a deadline
  request queued behind a running execution is shed, never executed;
* admission is bounded: past ``max_queue`` pending requests, submits
  fail with :class:`ServiceOverloadedError` and nothing is enqueued;
* interleaved updates and serving keep epoch-invalidation parity — every
  async answer is bit-identical (results + QueryStats counters) to a
  fresh cold engine built after the update;
* query errors propagate to all coalesced waiters and the front door
  stays usable;
* the JSON-lines TCP face answers, reports errors, and echoes ids; its
  stats probe never waits on a running query, and its one warm session
  stays under fixed caps.
"""

import asyncio
import itertools
import json
import random
import threading

import pytest

from repro import (
    AsyncQueryService,
    DeadlineExceededError,
    KOSREngine,
    QueryOptions,
    QueryRequest,
    ServiceOverloadedError,
    make_query,
)
from repro.exceptions import QueryError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.service.service import QueryService

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
            async with AsyncQueryService(engine.service) as front:
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

    def test_coalescing_observed_in_session_counters(self, engine):
        """One execution -> one finder/dest-kernel build, zero warm hits."""
        q = make_query(engine.graph, 1, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                await asyncio.gather(*(front.submit(QueryRequest(q))
                                       for _ in range(6)))
                return front.stats, front.cache_stats()

        stats, cache = asyncio.run(scenario())
        assert stats.executed == 1 and stats.coalesced == 5
        # The session saw exactly one query: one cold build each, zero
        # warm hits — six separate executions would show 5 hits.
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

    def test_gather_preserves_input_order(self, engine):
        g = engine.graph
        queries = [make_query(g, s, 25 + (s % 3), [0, 1], k=2)
                   for s in range(6)]

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                return await front.gather(queries)

        results = asyncio.run(scenario())
        assert [r.query for r in results] == queries


class TestBackpressure:
    def test_rejects_above_max_queue(self, engine):
        g = engine.graph
        queries = [make_query(g, s, 30, [0, 1], k=2) for s in range(6)]
        gate = threading.Event()

        async def scenario():
            front = AsyncQueryService(engine.service, max_queue=2)
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
            AsyncQueryService(engine.service, max_queue=0)

    def test_distinct_groups_leave_no_tasks_behind(self, engine):
        """Diverse traffic grows nothing per group: 1 000 distinct
        (t, C) groups through one front door leave the event loop's task
        count where it started, and every answer is exact."""
        g = engine.graph
        sequences = [list(c) for r in (1, 2, 3)
                     for c in itertools.permutations(range(4), r)]
        queries = [make_query(g, t % 7, t, cats, k=1)
                   for t in range(g.num_vertices) for cats in sequences]
        queries = queries[:1000]
        assert len({(q.target, tuple(q.categories)) for q in queries}) == 1000

        async def scenario():
            before = len(asyncio.all_tasks())
            async with AsyncQueryService(engine.service) as front:
                results = await front.gather(queries)
                return before, len(asyncio.all_tasks()), results

        before, after, results = asyncio.run(scenario())
        assert after == before
        cold = KOSREngine.build(g)
        for q, warm in zip(queries, results):
            assert_same_outcome(warm, cold.run(q))

    def test_execution_thread_survives_a_failure_outside_the_run(
            self, engine):
        """An exception raised on the execution thread outside
        ``service.run`` answers that caller with the error; the next
        request succeeds on the same thread."""
        q1 = make_query(engine.graph, 0, 30, [0, 1], k=2)
        q2 = make_query(engine.graph, 1, 30, [0, 1], k=2)
        threads = []

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                real = front._execute

                def flaky(*args):
                    threads.append(threading.current_thread())
                    if len(threads) == 1:
                        raise RuntimeError("synthetic plumbing failure")
                    return real(*args)

                front._execute = flaky
                with pytest.raises(RuntimeError, match="synthetic"):
                    await front.submit(QueryRequest(q1))
                result = await front.submit(QueryRequest(q2))
                assert front.pending == 0
                return result, front.stats

        result, stats = asyncio.run(scenario())
        assert len(threads) == 2 and threads[0] is threads[1]
        assert result.stats.completed
        assert stats.executed == 1
        assert_same_outcome(result, KOSREngine.build(engine.graph).run(q2))

    def test_close_answers_every_queued_request(self, engine):
        """Requests already queued when ``close()`` is called are all
        answered exactly; a deadline request that expires while queued
        behind a gated execution is shed without running."""
        g = engine.graph
        queries = [make_query(g, s, t, [0, 1], k=2)
                   for s, t in ((0, 25), (1, 26), (2, 27), (3, 28))]
        late = make_query(g, 4, 29, [0, 1], k=2)
        gate = threading.Event()
        executed = []

        async def scenario():
            front = AsyncQueryService(engine.service)
            real = front._execute

            def gated(request, *rest):
                executed.append(request.query)
                gate.wait(10)
                return real(request, *rest)

            front._execute = gated
            first = asyncio.ensure_future(
                front.submit(QueryRequest(queries[0])))
            while not front._executing:
                await asyncio.sleep(0.001)
            rest = [asyncio.ensure_future(front.submit(QueryRequest(q)))
                    for q in queries[1:]]
            shed = asyncio.ensure_future(
                front.submit(QueryRequest(late), deadline_s=0.02))
            for _ in range(5):
                await asyncio.sleep(0)
            before = front.stats.as_dict()
            closing = asyncio.ensure_future(front.close())
            await asyncio.sleep(0.05)  # past the deadline, still gated
            assert not closing.done()
            with pytest.raises(RuntimeError, match="closed"):
                await front.submit(QueryRequest(queries[0]))
            gate.set()
            await closing
            settled = await asyncio.gather(first, *rest, shed,
                                           return_exceptions=True)
            return before, front.stats.as_dict(), settled

        before, after, settled = asyncio.run(scenario())
        *answers, shed = settled
        assert isinstance(shed, DeadlineExceededError)
        assert executed == queries  # the late request never ran
        assert after["executed"] == before["executed"] + len(queries)
        assert after["deadline_shed"] == before["deadline_shed"] + 1
        assert after["groups_retired"] == 0
        cold = KOSREngine.build(g)
        for q, warm in zip(queries, answers):
            assert_same_outcome(warm, cold.run(q))


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


class TestOneWarmSession:
    """Every group runs over the service's one session, on one thread."""

    @pytest.mark.parametrize("method", ["SK", "PK"])
    def test_finder_streams_reused_across_targets(self, method):
        """A FindNN stream depends on (source, category), not the target:
        requests that are each their own (t, C) group still hit the warm
        finder, and answer exactly like fresh engines — before and after
        a category update."""
        g = _graph(71)
        engine = KOSREngine.build(g)
        options = QueryOptions(method=method)
        # Six targets, six groups; the two sources recur across them.
        queries = [make_query(g, s, t, [0, 1], k=3)
                   for s, t in ((0, 25), (1, 26), (0, 27), (1, 28),
                                (0, 29), (1, 30))]

        async def serve_and_check(front):
            served = await front.gather(
                [QueryRequest(q, options) for q in queries])
            cold = KOSREngine.build(g)
            for q, warm in zip(queries, served):
                assert_same_outcome(warm, cold.run(q, options))

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                await serve_and_check(front)
                hits = front.cache_stats()["finder_hits"]
                await front.drain()
                outsider = next(v for v in range(g.num_vertices)
                                if not g.has_category(v, 0))
                engine.add_vertex_to_category(outsider, 0)
                await serve_and_check(front)
                return hits, front.cache_stats()

        hits, cache = asyncio.run(scenario())
        assert hits == len(queries) - 1  # one finder build, then reuse
        assert cache["finder_hits"] == 2 * len(queries) - 1
        assert cache["partial_invalidations"] == 1

    def test_deadline_request_behind_an_execution_is_shed_unexecuted(
            self, engine):
        """Head-of-line bound: another group's deadline request queued
        behind a running execution is shed at dispatch, not run late."""
        g = engine.graph
        slow = make_query(g, 0, 25, [0, 1], k=2)
        late = make_query(g, 1, 30, [0, 1], k=2)
        gate = threading.Event()
        executed = []

        async def scenario():
            front = AsyncQueryService(engine.service)
            real = front._execute

            def gated(request, *rest):
                executed.append(request.query)
                gate.wait(10)
                return real(request, *rest)

            front._execute = gated
            first = asyncio.ensure_future(front.submit(QueryRequest(slow)))
            for _ in range(5):
                await asyncio.sleep(0)
            second = asyncio.ensure_future(
                front.submit(QueryRequest(late), deadline_s=0.02))
            await asyncio.sleep(0.08)
            gate.set()
            settled = await asyncio.gather(first, second,
                                           return_exceptions=True)
            await front.close()
            return settled, front.stats

        (ok, shed), stats = asyncio.run(scenario())
        assert ok.stats.completed
        assert isinstance(shed, DeadlineExceededError)
        assert executed == [slow]
        assert stats.executed == 1 and stats.deadline_shed == 1


class TestInterleavedUpdateParity:
    """Serve → update → serve keeps epoch-invalidation parity.

    After every index mutation, async answers must match a cold engine
    freshly built from the current graph — results AND counters — which
    proves the warm session revalidates its epoch instead of serving
    stale warm state.
    """

    def test_category_update_between_batches(self):
        g = _graph(67)
        engine = KOSREngine.build(g)
        queries = [make_query(g, s, 30, [0, 1], k=3) for s in (0, 1, 2, 0)]

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                before = await front.gather(queries)
                cold = KOSREngine.build(g)   # the pre-update state
                for q, warm in zip(queries, before):
                    assert_same_outcome(warm, cold.run(q))
                await front.drain()          # quiesce before mutating
                assert front.pending == 0
                outsider = next(v for v in range(g.num_vertices)
                                if not g.has_category(v, 0))
                version = engine.inverted[0].version
                engine.add_vertex_to_category(outsider, 0)
                assert engine.inverted[0].version > version
                return await front.gather(queries)

        after = asyncio.run(scenario())
        fresh = KOSREngine.build(g)  # sees the updated graph/categories
        for q, warm in zip(queries, after):
            assert_same_outcome(warm, fresh.run(q))

    @pytest.mark.parametrize("seed", [301, 302])
    def test_fuzz_updates_vs_fresh_engines(self, seed):
        rng = random.Random(seed)
        g = _graph(seed, n=36, cats=4, size=6)
        engine = KOSREngine.build(g)

        async def serve_round(front, queries):
            return await front.gather([QueryRequest(q) for q in queries])

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
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
        # The second identical query ran warm: the session shows a hit,
        # and the eviction counters are exposed for operators.
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

    def test_stats_probe_does_not_wait_for_a_running_query(self, engine):
        """Unsharded, {"stats": true} is answered on the event loop while
        the one execution thread is busy."""
        from repro.server.tcp import serve

        gate = threading.Event()

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            aqs = server.query_service
            real = aqs._execute
            aqs._execute = lambda *args: (gate.wait(10), real(*args))[1]
            port = server.sockets[0].getsockname()[1]
            conns = [await asyncio.open_connection("127.0.0.1", port)
                     for _ in range(2)]
            (qr, qw), (sr, sw) = conns
            qw.write(json.dumps({"source": 0, "target": 30,
                                 "categories": [0, 1]}).encode() + b"\n")
            await qw.drain()
            while not aqs._executing:
                await asyncio.sleep(0.001)
            sw.write(b'{"id": "ops", "stats": true}\n')
            await sw.drain()
            ops = json.loads(await asyncio.wait_for(sr.readline(), 5))
            blocked = not gate.is_set()
            gate.set()
            answer = json.loads(await qr.readline())
            for _, w in conns:
                w.close()
                await w.wait_closed()
            server.close()
            await server.wait_closed()
            await aqs.close()
            return ops, blocked, answer

        ops, blocked, answer = asyncio.run(scenario())
        assert blocked and ops["id"] == "ops"
        assert ops["stats"]["serving"]["executed"] == 0
        assert answer["completed"]

    def test_warm_session_stays_bounded_over_distinct_targets(
            self, engine, monkeypatch):
        """The server's one session lives as long as the process: its
        kernel and cursor populations stay under the server's caps
        however many targets arrive, and answers stay exact."""
        from repro.server import tcp

        monkeypatch.setattr(tcp, "SESSION_MAX_DEST_KERNELS", 2)
        monkeypatch.setattr(tcp, "SESSION_MAX_FINDERS", 3)
        g = engine.graph
        records = [{"source": s, "target": t, "categories": [0, 1], "k": 2}
                   for t in range(20, 32) for s in range(20)]

        async def scenario():
            server = await tcp.serve(engine, "127.0.0.1", 0)
            session = server.query_service.service.session
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            answers, peaks = [], {}
            for record in records:
                writer.write(json.dumps(record).encode() + b"\n")
                await writer.drain()
                answers.append(json.loads(await reader.readline()))
                for name, value in session.populations().items():
                    peaks[name] = max(peaks.get(name, 0), value)
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await server.query_service.close()
            return answers, peaks, session.stats

        answers, peaks, stats = asyncio.run(scenario())
        queries = [make_query(g, r["source"], r["target"], r["categories"],
                              k=2) for r in records]
        unbounded = QueryService(KOSREngine.build(g))
        for q in queries:
            unbounded.run(q)
        grown = unbounded.session.populations()
        assert grown["dest_kernels"] == 12
        assert peaks["dest_kernels"] <= 2
        # Cursors are trimmed between queries, so one query's own cursors
        # may sit above the cap until the next one starts.
        assert peaks["finder_cursors"] < grown["finder_cursors"] // 2
        assert stats.dest_kernel_evictions > 0
        assert stats.cursor_evictions > 0
        fresh = KOSREngine.build(g)
        for q, answer in zip(queries, answers):
            cold = fresh.run(q)
            assert answer["costs"] == cold.costs
            assert answer["nn_queries"] == cold.stats.nn_queries
            assert answer["examined_routes"] == cold.stats.examined_routes
