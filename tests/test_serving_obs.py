"""Streaming responses, deadline-aware admission, and the serving probes.

Plain ``asyncio.run``-based tests (no pytest-asyncio in the toolchain).
Pins the PR 7 serving contracts:

* **streaming** — the anytime algorithms surface route i before route
  i+1 is searched for; ``run(on_route=)`` / ``submit(on_route=)`` / the TCP
  ``{"stream": true}`` face deliver each route as it is discovered, then
  a summary carrying the same final ``QueryStats`` as a non-streamed
  run;
* **deadlines** — ``deadline_s`` / ``deadline_ms`` requests are shed
  with :class:`DeadlineExceededError` (a structured
  ``{"error": "deadline_exceeded"}`` reply over TCP) when the deadline
  passes in the queue or the capped execution comes back incomplete;
* **expensive-plan shedding** — past the admission watermark, plans
  that search the whole graph (GSP family) or fan out across shards are
  shed first, before cheap indexed requests are refused;
* **malformed TCP records** — non-object JSON, unknown fields, and
  missing fields each get a structured error naming the offender, and
  the connection stays usable;
* **overload over TCP** — a rejected request gets a structured
  ``overloaded`` reply on a live connection, never a dropped socket,
  and the shed counters increment;
* **the 4-shard acceptance scenario** — a fleet streams a StarKOSR
  request route-by-route, answers ``{"metrics": true}`` with
  fleet-merged per-shard latency histograms, and sheds a past-deadline
  GSP request with a structured error.
"""

import asyncio
import gc
import json
import random
import threading
import time

import pytest

from repro import (
    AsyncQueryService,
    DeadlineExceededError,
    KOSREngine,
    QueryOptions,
    QueryRequest,
    ServiceOverloadedError,
    ShardedQueryService,
    make_query,
)
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.obs.metrics import REGISTRY

from test_backend_parity import assert_same_outcome


def _graph(seed: int, n: int = 40, cats: int = 8, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture()
def engine():
    return KOSREngine.build(_graph(91))


@pytest.fixture()
def enabled_registry():
    was_enabled = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enable()
    yield REGISTRY
    REGISTRY.enabled = was_enabled
    REGISTRY.reset()


class _StopStreaming(Exception):
    pass


class TestServiceStreaming:
    def test_callback_fires_while_the_search_is_still_running(self, engine):
        """Raising from the first callback aborts the rest of the search —
        proof the route was delivered mid-run, not replayed at the end."""
        q = make_query(engine.graph, 0, 30, [0, 1], k=3)
        calls = []

        def boom(res):
            calls.append(res)
            raise _StopStreaming

        with pytest.raises(_StopStreaming):
            engine.service.run(q, QueryOptions(method="SK"), on_route=boom)
        assert len(calls) == 1

    def test_streamed_routes_are_the_result_objects_in_order(self, engine):
        q = make_query(engine.graph, 0, 30, [0, 1], k=3)
        streamed = []
        result = engine.service.run(q, on_route=streamed.append)
        assert len(streamed) == len(result.results)
        assert all(a is b for a, b in zip(streamed, result.results))
        # And a streamed run answers exactly like a plain one.
        assert_same_outcome(result, KOSREngine.build(engine.graph).run(q))

    def test_all_at_end_methods_replay_through_the_callback(self, engine):
        """GSP has no incremental seam; callers still see every result."""
        q = make_query(engine.graph, 0, 30, [0, 1], k=1)
        streamed = []
        result = engine.service.run(q, QueryOptions(method="GSP"),
                                    on_route=streamed.append)
        assert streamed == list(result.results)

    def test_stream_without_callback_is_a_plain_run(self, engine):
        q = make_query(engine.graph, 1, 30, [0, 1], k=2)
        assert_same_outcome(engine.service.run(q, on_route=None),
                            KOSREngine.build(engine.graph).run(q))


class TestAsyncStreaming:
    def test_routes_arrive_before_the_submit_resolves(self, engine):
        q = make_query(engine.graph, 0, 30, [0, 1], k=3)
        submit_resolved = threading.Event()
        premature = []

        def on_route(res):
            premature.append(submit_resolved.is_set())

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                result = await front.submit(QueryRequest(q),
                                            on_route=on_route)
                submit_resolved.set()
                return result, front.stats

        result, stats = asyncio.run(scenario())
        assert premature and not any(premature)
        assert stats.streamed == 1
        assert result.stats.completed

    def test_streamed_requests_never_coalesce(self, engine):
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                await asyncio.gather(
                    front.submit(QueryRequest(q), on_route=lambda r: None),
                    front.submit(QueryRequest(q), on_route=lambda r: None))
                return front.stats

        stats = asyncio.run(scenario())
        assert stats.executed == 2 and stats.coalesced == 0
        assert stats.streamed == 2


class TestDeadlines:
    def test_nonpositive_deadline_sheds_before_any_work(self, engine):
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                with pytest.raises(DeadlineExceededError):
                    await front.submit(QueryRequest(q), deadline_s=0.0)
                return front.stats

        stats = asyncio.run(scenario())
        assert stats.deadline_shed == 1
        assert stats.executed == 0

    def test_deadline_expiring_in_the_queue_sheds(self, engine):
        g = engine.graph
        q1 = make_query(g, 0, 30, [0, 1], k=2)
        q2 = make_query(g, 1, 30, [0, 1], k=2)
        gate = threading.Event()

        async def scenario():
            front = AsyncQueryService(engine.service, max_inflight=1)
            real = front._execute
            front._execute = lambda *args: (gate.wait(10),
                                            real(*args))[1]
            first = asyncio.ensure_future(front.submit(QueryRequest(q1)))
            for _ in range(5):
                await asyncio.sleep(0)
            # Same group: q2 waits behind the gated q1 past its deadline.
            second = asyncio.ensure_future(
                front.submit(QueryRequest(q2), deadline_s=0.02))
            await asyncio.sleep(0.08)
            gate.set()
            settled = await asyncio.gather(first, second,
                                           return_exceptions=True)
            await front.close()
            return settled, front.stats

        (ok, shed), stats = asyncio.run(scenario())
        assert ok.stats.completed
        assert isinstance(shed, DeadlineExceededError)
        assert shed.deadline_ms == pytest.approx(20.0)
        assert stats.deadline_shed == 1

    def test_incomplete_answer_past_deadline_becomes_the_error(self, engine):
        """The deadline caps the execution time budget; if the search
        comes back incomplete after the deadline, the caller gets the
        structured error, not a silent partial answer."""
        q = make_query(engine.graph, 0, 30, [0, 1], k=3)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                real = front._execute

                def slow_incomplete(*args):
                    time.sleep(0.05)
                    return real(*args)

                front._execute = slow_incomplete
                with pytest.raises(DeadlineExceededError):
                    # budget=1 forces an incomplete result; the sleep
                    # carries it past the 10ms deadline.
                    await front.submit(
                        QueryRequest(q, QueryOptions(budget=1)),
                        deadline_s=0.01)
                return front.stats

        stats = asyncio.run(scenario())
        assert stats.deadline_shed == 1

    def test_complete_answer_is_returned_even_if_late(self, engine):
        """Work that finished is not thrown away: only *incomplete*
        past-deadline answers convert to the error."""
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                real = front._execute
                front._execute = lambda *args: (time.sleep(0.05),
                                                real(*args))[1]
                return await front.submit(QueryRequest(q), deadline_s=5.0)

        result = asyncio.run(scenario())
        assert result.stats.completed

    def test_deadline_requests_do_not_coalesce(self, engine):
        q = make_query(engine.graph, 0, 30, [0, 1], k=2)

        async def scenario():
            async with AsyncQueryService(engine.service) as front:
                await asyncio.gather(
                    front.submit(QueryRequest(q), deadline_s=30.0),
                    front.submit(QueryRequest(q), deadline_s=30.0))
                return front.stats

        stats = asyncio.run(scenario())
        assert stats.executed == 2 and stats.coalesced == 0


class TestExpensiveShedding:
    def test_gsp_is_shed_first_under_load(self, engine):
        """Past the watermark, whole-graph plans are refused while
        indexed requests are still admitted."""
        g = engine.graph
        gate = threading.Event()
        cheap = [make_query(g, s, 30, [0, 1], k=2) for s in (0, 1, 2)]
        gsp = QueryRequest(make_query(g, 3, 30, [0, 1], k=1),
                           QueryOptions(method="GSP"))

        async def scenario():
            front = AsyncQueryService(engine.service, max_inflight=1,
                                      max_queue=4)  # watermark = 2
            real = front._execute
            front._execute = lambda *args: (gate.wait(10),
                                            real(*args))[1]
            tasks = [asyncio.ensure_future(front.submit(QueryRequest(q)))
                     for q in cheap[:2]]
            for _ in range(5):
                await asyncio.sleep(0)
            assert front.pending == 2
            with pytest.raises(ServiceOverloadedError):
                await front.submit(gsp)
            # A cheap indexed request is still welcome at this depth.
            tasks.append(asyncio.ensure_future(
                front.submit(QueryRequest(cheap[2]))))
            gate.set()
            results = await asyncio.gather(*tasks)
            await front.close()
            return results, front.stats

        results, stats = asyncio.run(scenario())
        assert all(r.stats.completed for r in results)
        assert stats.expensive_shed == 1
        assert stats.rejected == 1

    def test_below_watermark_gsp_is_admitted(self, engine):
        gsp = QueryRequest(make_query(engine.graph, 0, 30, [0, 1], k=1),
                           QueryOptions(method="GSP"))

        async def scenario():
            async with AsyncQueryService(engine.service,
                                         max_queue=4) as front:
                return await front.submit(gsp), front.stats.expensive_shed

        result, shed = asyncio.run(scenario())
        assert result.stats.completed and shed == 0

    def test_invalid_expensive_fraction_rejected(self, engine):
        with pytest.raises(ValueError):
            AsyncQueryService(engine.service, expensive_fraction=0.0)
        with pytest.raises(ValueError):
            AsyncQueryService(engine.service, expensive_fraction=1.5)


async def _talk(port, records):
    """Send JSON records over one connection; one reply line each."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    for record in records:
        line = record if isinstance(record, (bytes, bytearray)) \
            else json.dumps(record).encode()
        writer.write(line + b"\n")
        await writer.drain()
        replies.append(json.loads(await reader.readline()))
    writer.close()
    await writer.wait_closed()
    return replies


async def _shutdown(server):
    server.close()
    await server.wait_closed()
    await server.query_service.close()


class TestTcpValidation:
    def test_malformed_records_name_the_offender(self, engine):
        from repro.server.tcp import serve

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _talk(port, [
                    b"[1, 2, 3]",                       # non-object JSON
                    b'"just a string"',                 # non-object JSON
                    b'{"source": "\xff\xfe"}',          # invalid UTF-8
                    {"source": 0, "target": 30, "categories": [0],
                     "methd": "SK", "id": "typo"},      # unknown field
                    {"source": 0, "id": "missing"},     # missing fields
                    {"source": 0, "target": 30, "categories": [0],
                     "deadline_ms": "soon", "id": "bad-deadline"},
                    # ...and the connection is still fully usable:
                    {"source": 0, "target": 30, "categories": [0, 1],
                     "k": 2, "id": "ok"},
                ])
            finally:
                await _shutdown(server)

        non_dict, non_dict2, bad_utf8, typo, missing, bad_deadline, ok = \
            asyncio.run(scenario())
        assert "must be a JSON object" in non_dict["error"]
        assert "list" in non_dict["error"]
        assert "str" in non_dict2["error"]
        assert bad_utf8["kind"] == "UnicodeDecodeError"
        assert typo["id"] == "typo"
        assert "'methd'" in typo["error"]
        assert "unknown request field" in typo["error"]
        assert missing["id"] == "missing"
        assert "'target'" in missing["error"]
        assert bad_deadline["id"] == "bad-deadline"
        assert "'deadline_ms'" in bad_deadline["error"]
        assert "str" in bad_deadline["error"]
        assert ok["completed"] and ok["costs"]

    @pytest.mark.parametrize("field, literal", [
        ("k", "1e400"),            # json.loads: inf; int(inf) overflowed
        ("categories", '"01"'),    # was iterated as ['0', '1']
        ("source", "0.0"),         # was echoed back as 0.0
        ("k", "2.9"),              # was truncated to k=2
        ("k", "true"),             # was k=1
        ("categories", "[2.9]"),   # was answered as category 2
        ("categories", "[true]"),  # was answered as category 1
        ("categories", "[[1]]"),   # leaked int()'s TypeError text
        ("categories", "[null]"),
        ("categories", '[{"a": 1}]'),
        ("budget", "true"),        # ran with budget 1
        ("budget", "0.5"),         # ran with budget 0.5
        ("budget", '"3"'),         # "'<' not supported between ..."
        ("time_budget_s", '"1"'),
        ("time_budget_s", "1e400"),
        ("method", '["SK"]'),      # "unhashable type: 'list'"
        ("nn_backend", "7"),
        # an integer beyond float range: the OverflowError used to
        # escape the handler and drop the connection
        ("deadline_ms", "1" + "0" * 400),
    ])
    def test_mistyped_values_are_errors_naming_the_field(
            self, engine, enabled_registry, field, literal):
        """``source``/``target``/``k``/``budget`` are JSON integers,
        ``categories`` a list of integers or names, ``time_budget_s`` a
        finite number, ``method``/``nn_backend`` strings; anything else
        is refused at the boundary and the connection keeps serving."""
        from repro.server.tcp import serve

        good = {"source": 0, "target": 30, "categories": [0, 1], "k": 2}
        fields = {name: json.dumps(value) for name, value in good.items()}
        fields.update({field: literal, "id": '"bad"'})
        hostile = "{%s}" % ", ".join(
            f'"{name}": {text}' for name, text in fields.items())

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _talk(port, [hostile.encode(), good])
            finally:
                await _shutdown(server)

        bad, ok = asyncio.run(scenario())
        assert bad["id"] == "bad" and bad["kind"] == "ValueError"
        assert repr(field) in bad["error"]
        assert ok["completed"] and ok["costs"]
        errors = [m for m in enabled_registry.snapshot()["metrics"]
                  if m["name"] == "repro_tcp_errors_total"]
        assert errors and errors[0]["value"] == 1

    def test_oversized_line_is_answered_then_the_connection_closed(
            self, engine, enabled_registry):
        """A line over the stream limit used to escape the handler as an
        unhandled ``ValueError``: no reply, a traceback in the log."""
        from repro.server.tcp import MAX_LINE_BYTES, serve

        good = {"source": 0, "target": 30, "categories": [0, 1], "k": 2}
        huge = json.dumps({**good, "id": "x" * (MAX_LINE_BYTES + 6000)})

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(huge.encode() + b"\n"
                             + json.dumps(good).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await reader.readline())
                rest = await reader.read()  # server closes: EOF, no more
                writer.close()
                await writer.wait_closed()
                # the server itself keeps serving new connections
                (ok,) = await _talk(port, [good])
                return reply, rest, ok
            finally:
                await _shutdown(server)

        reply, rest, ok = asyncio.run(scenario())
        assert reply["kind"] == "ValueError" and reply["id"] is None
        assert str(MAX_LINE_BYTES) in reply["error"]
        assert rest == b""
        assert ok["completed"]
        errors = [m for m in enabled_registry.snapshot()["metrics"]
                  if m["name"] == "repro_tcp_errors_total"]
        assert errors and errors[0]["value"] == 1


class TestTcpClientReset:
    """A client that resets its socket is "client gone", not a server
    fault: the connection's handler ends quietly (it used to escape as
    an unhandled ``ConnectionResetError``, once per dropped client)."""

    @staticmethod
    def _run(engine, lines, read_first: bool):
        """Send ``lines``, optionally read one reply line, then RST."""
        import socket
        import struct

        from repro.server.tcp import serve

        good = {"source": 0, "target": 30, "categories": [0, 1], "k": 2}
        reports = []

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, context: reports.append(context))
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            front = server.query_service
            try:
                sock = socket.create_connection(("127.0.0.1", port))
                sock.setblocking(False)
                await loop.sock_sendall(sock, b"".join(
                    json.dumps(line).encode() + b"\n" for line in lines))
                first = None
                if read_first:
                    first = json.loads(
                        (await loop.sock_recv(sock, 65536)).split(b"\n")[0])
                # SO_LINGER 0: close() sends RST instead of FIN.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                deadline = time.monotonic() + 10
                while (front.pending or front.stats.submitted < 1) \
                        and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)  # let the handler unwind
                (ok,) = await _talk(port, [good])
                return first, front.pending, ok
            finally:
                await _shutdown(server)

        first, pending, ok = asyncio.run(scenario())
        gc.collect()  # a never-retrieved task exception reports on GC
        assert reports == []
        assert pending == 0
        assert ok["completed"] and ok["costs"]
        return first

    def test_reset_mid_stream(self, engine):
        streamed = {"id": "s", "source": 0, "target": 30,
                    "categories": [0, 1, 2, 3], "k": 400, "stream": True}
        first = self._run(engine, [streamed], read_first=True)
        assert first["id"] == "s" and first["rank"] == 1

    def test_reset_before_a_plain_reply_with_lines_queued_behind(
            self, engine):
        plain = {"source": 0, "target": 30, "categories": [0, 1, 2, 3],
                 "k": 400}
        self._run(engine, [plain, plain, plain], read_first=False)


class TestTcpOverload:
    def test_overload_reply_is_structured_and_counted(self, engine):
        """A shed request gets an ``overloaded`` reply on a live
        connection — never a dropped socket — and the counter moves."""
        from repro.server.tcp import serve

        gate = threading.Event()
        record = {"source": 0, "target": 30, "categories": [0, 1], "k": 2}

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0,
                                 max_inflight=1, max_queue=1)
            port = server.sockets[0].getsockname()[1]
            aqs = server.query_service
            real = aqs._execute
            aqs._execute = lambda *args: (gate.wait(10),
                                          real(*args))[1]
            try:
                # Connection A occupies the whole admission queue...
                reader_a, writer_a = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer_a.write(json.dumps(record).encode() + b"\n")
                await writer_a.drain()
                while aqs.pending == 0:
                    await asyncio.sleep(0.01)
                # ...so connection B's distinct request is shed.
                reader_b, writer_b = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer_b.write(json.dumps(
                    {**record, "source": 1, "id": "b1"}).encode() + b"\n")
                await writer_b.drain()
                shed = json.loads(await reader_b.readline())
                gate.set()
                ok_a = json.loads(await reader_a.readline())
                # B's connection survived the rejection and still works.
                writer_b.write(json.dumps(
                    {**record, "source": 1, "id": "b2"}).encode() + b"\n")
                await writer_b.drain()
                ok_b = json.loads(await reader_b.readline())
                for w in (writer_a, writer_b):
                    w.close()
                    await w.wait_closed()
                return shed, ok_a, ok_b, aqs.stats
            finally:
                await _shutdown(server)

        shed, ok_a, ok_b, stats = asyncio.run(scenario())
        assert shed["id"] == "b1"
        assert shed["overloaded"] is True
        assert shed["kind"] == "ServiceOverloadedError"
        assert ok_a["completed"] and ok_b["completed"]
        assert stats.rejected == 1
        assert stats.executed == 2


class TestTcpStreaming:
    def test_stream_records_then_summary(self, engine):
        from repro.server.tcp import serve

        k = 3
        record = {"source": 0, "target": 30, "categories": [0, 1], "k": k,
                  "stream": True, "id": "s1"}

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(json.dumps(record).encode() + b"\n")
                await writer.drain()
                lines = []
                while True:
                    lines.append(json.loads(await reader.readline()))
                    if lines[-1].get("summary"):
                        break
                # plain twin for parity
                writer.write(json.dumps(
                    {**record, "stream": False, "id": "plain"}
                ).encode() + b"\n")
                await writer.drain()
                plain = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return lines, plain
            finally:
                await _shutdown(server)

        lines, plain = asyncio.run(scenario())
        *routes, summary = lines
        assert routes, "expected per-route records before the summary"
        assert [r["rank"] for r in routes] == list(range(1, len(routes) + 1))
        assert all(r["stream"] and r["id"] == "s1" for r in routes)
        # Streamed routes ARE the answer, in rank order.
        assert [r["cost"] for r in routes] == summary["costs"]
        assert [r["witness"] for r in routes] == summary["witnesses"]
        assert summary["summary"] is True
        assert summary["results_streamed"] == len(routes)
        # The summary carries the same final stats as a non-streamed run.
        assert summary["costs"] == plain["costs"]
        assert summary["witnesses"] == plain["witnesses"]
        assert summary["examined_routes"] == plain["examined_routes"]
        assert summary["nn_queries"] == plain["nn_queries"]

    def test_stream_error_reports_structured(self, engine):
        from repro.server.tcp import serve

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _talk(port, [
                    {"source": 0, "target": 30, "categories": [0],
                     "method": "NOPE", "stream": True, "id": "bad"},
                ])
            finally:
                await _shutdown(server)

        (reply,) = asyncio.run(scenario())
        assert reply["id"] == "bad"
        assert "unknown method" in reply["error"]


class TestTcpDeadline:
    def test_past_deadline_request_gets_structured_error(self, engine):
        from repro.server.tcp import serve

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _talk(port, [
                    {"source": 0, "target": 30, "categories": [0, 1],
                     "k": 2, "deadline_ms": 0.001, "id": "dl"},
                    {"source": 0, "target": 30, "categories": [0, 1],
                     "k": 2, "id": "after"},
                ]), server.query_service.stats.deadline_shed
            finally:
                await _shutdown(server)

        (shed, after), shed_count = asyncio.run(scenario())
        assert shed["id"] == "dl"
        assert shed["error"] == "deadline_exceeded"
        assert shed["deadline_ms"] == pytest.approx(0.001)
        assert "deadline" in shed["detail"]
        assert after["completed"]
        assert shed_count == 1


class TestTcpMetricsProbe:
    def test_disabled_registry_reports_disabled(self, engine):
        from repro.server.tcp import serve

        if REGISTRY.enabled:  # REPRO_METRICS=1 force-enables it
            pytest.skip("registry force-enabled for this run")

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _talk(port, [{"metrics": True, "id": "m"}])
            finally:
                await _shutdown(server)

        (reply,) = asyncio.run(scenario())
        assert reply["id"] == "m"
        assert reply["metrics"]["enabled"] is False

    def test_probe_reports_per_layer_metrics(self, engine,
                                             enabled_registry):
        from repro.server.tcp import serve

        record = {"source": 0, "target": 30, "categories": [0, 1], "k": 2}

        async def scenario():
            server = await serve(engine, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await _talk(port, [
                    record, {**record, "source": 1},
                    {"metrics": True, "id": "m"},
                ])
            finally:
                await _shutdown(server)

        *_, probe = asyncio.run(scenario())
        snap = probe["metrics"]
        assert snap["enabled"] is True
        by_name = {}
        for m in snap["metrics"]:
            by_name.setdefault(m["name"], m)
        # engine/executor layer
        assert by_name["repro_queries_total"]["value"] == 2
        assert by_name["repro_query_latency_seconds"]["count"] == 2
        assert by_name["repro_examined_routes_total"]["value"] > 0
        # session-cache layer
        assert "repro_cache_finder_misses_total" in by_name
        assert by_name["repro_cache_dest_kernels"]["type"] == "gauge"
        assert by_name["repro_cache_est_streams"]["type"] == "gauge"
        assert "repro_cache_est_stream_misses_total" in by_name
        # TCP layer (the probe request itself is counted too)
        assert by_name["repro_tcp_requests_total"]["value"] == 3
        assert by_name["repro_tcp_connections"]["value"] == 1
        # serving gauges sampled at probe time
        assert by_name["repro_serving_queue_depth"]["type"] == "gauge"
        # epoch/version gauges sampled at probe time
        assert by_name["repro_index_epoch"]["value"] == engine.index_epoch
        assert by_name["repro_category_version"]["type"] == "gauge"


class TestEpochGauges:
    def test_fleet_samples_each_category_version_exactly_once(
            self, enabled_registry):
        """Owner-only sampling: ``merge_snapshots`` *adds* gauges, so a
        category version reported by every worker would multiply by the
        shard count.  Each worker samples only its owned categories, and
        its index epoch is labeled per shard instead of summed."""
        g = _graph(59, cats=4)
        sharded = ShardedQueryService(g.copy(), 2)
        try:
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 2))
            sharded.add_vertex_to_category(moved, 2)
            snap = sharded.metrics_snapshot()
            versions = {m["labels"]["category"]: m["value"]
                        for m in snap["metrics"]
                        if m["name"] == "repro_category_version"}
            # One gauge per category, valued at the OWNER's counter —
            # not a sum across every worker that materialised it.
            owner = {}
            for report in sharded.ping():
                for cid in sharded.router.owned_categories(
                        report["shard"], 4):
                    owner[str(cid)] = report["category_versions"][cid]
            assert versions == owner
            assert versions["2"] >= 1 and versions["0"] == 0
            epochs = {m["labels"]["shard"]: m["value"]
                      for m in snap["metrics"]
                      if m["name"] == "repro_index_epoch"}
            assert set(epochs) == {"0", "1"}
            assert epochs["0"] >= 1  # the owner's index moved
        finally:
            sharded.close()


class TestFourShardAcceptance:
    """The ISSUE acceptance scenario, end to end over a 4-shard fleet."""

    def test_stream_metrics_and_deadline_over_a_fleet(self,
                                                      enabled_registry):
        from repro.server.tcp import serve

        g = _graph(97, n=44, cats=8, size=7)
        engine = KOSREngine.build(g)  # unsharded parity twin
        sharded = ShardedQueryService.from_engine(engine, num_shards=4)
        # Categories 0 and 4 both live on shard 0 (cid % 4): the request
        # is single-owner, so routes stream *live* over the worker pipe.
        stream_req = {"source": 0, "target": 30, "categories": [0, 4],
                      "k": 3, "stream": True, "id": "s"}
        gsp_req = {"source": 1, "target": 30, "categories": [0], "k": 1,
                   "method": "GSP", "deadline_ms": 0.001, "id": "late"}

        async def scenario():
            server = await serve(None, "127.0.0.1", 0, service=sharded)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(json.dumps(stream_req).encode() + b"\n")
                await writer.drain()
                lines = []
                while True:
                    lines.append(json.loads(await reader.readline()))
                    if lines[-1].get("summary"):
                        break
                writer.write(json.dumps(gsp_req).encode() + b"\n")
                await writer.drain()
                shed = json.loads(await reader.readline())
                writer.write(b'{"metrics": true, "id": "m"}\n')
                await writer.drain()
                probe = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return lines, shed, probe
            finally:
                await _shutdown(server)

        try:
            lines, shed, probe = asyncio.run(scenario())
        finally:
            sharded.close()

        # (1) streaming: route records precede the summary — the worker
        # sends each interim pipe frame before its final reply, so the
        # first record reached the client before the run completed.
        *routes, summary = lines
        assert routes and routes[0]["rank"] == 1
        assert summary["results_streamed"] == len(routes)
        q = make_query(g, 0, 30, [0, 4], k=3)
        cold = engine.run(q)
        assert summary["costs"] == cold.costs
        assert [r["witness"] for r in routes] == \
            [list(w) for w in cold.witnesses]
        assert summary["examined_routes"] == cold.stats.examined_routes
        assert summary["nn_queries"] == cold.stats.nn_queries

        # (2) past-deadline GSP request: structured shed, not a hang.
        assert shed["error"] == "deadline_exceeded"
        assert shed["id"] == "late"

        # (3) fleet-merged metrics: worker-side method latency plus the
        # router's per-shard round-trip histograms.
        snap = probe["metrics"]
        assert snap["enabled"] is True
        hists = {(m["name"], m["labels"].get("shard")): m
                 for m in snap["metrics"] if m["type"] == "histogram"}
        lat = hists[("repro_query_latency_seconds", None)]
        assert lat["count"] >= 1  # recorded inside a worker process
        shard_rtts = [m for (name, shard), m in hists.items()
                      if name == "repro_shard_roundtrip_seconds"]
        assert shard_rtts and all(m["labels"]["shard"] is not None
                                  for m in shard_rtts)
        counters = {(m["name"], m["labels"].get("shard")): m["value"]
                    for m in snap["metrics"] if m["type"] == "counter"}
        assert counters[("repro_shard_requests_total", "0")] >= 1
        assert counters[("repro_serving_deadline_shed_total", None)] == 1


class TestShardedStreaming:
    def test_single_owner_requests_stream_live(self, enabled_registry):
        """Route frames cross the worker pipe before the final reply."""
        g = _graph(101, cats=8)
        sharded = ShardedQueryService(g, 4)
        try:
            q = sharded.make_query(0, 30, [0, 4], k=3)
            streamed = []
            result = sharded.run(q, on_route=streamed.append)
            assert [r.cost for r in streamed] == result.costs
            assert [list(r.witness.vertices) for r in streamed] == \
                [list(w) for w in result.witnesses]
        finally:
            sharded.close()

    def test_spanning_requests_replay_after_the_merge(self):
        """Cross-shard requests have no single live stream; the merged
        top-k is replayed through the callback in rank order."""
        g = _graph(103, cats=8)
        sharded = ShardedQueryService(g, 4)
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)  # shards 0 and 1
            streamed = []
            result = sharded.run(q, on_route=streamed.append)
            assert [r.cost for r in streamed] == result.costs
        finally:
            sharded.close()
