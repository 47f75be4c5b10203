"""A JSON-lines TCP front door over :class:`AsyncQueryService`.

The minimal network face of the serving stack (``repro.cli serve``):
each connection sends newline-delimited JSON request records and
receives one JSON response line per request, in request order per
connection.  Records mirror the batch workload format::

    {"source": 0, "target": 42, "categories": [0, 3], "k": 5,
     "method": "SK", "id": "req-1"}

``id`` (optional) is echoed back.  Good answers carry ``costs``,
``witnesses``, and the headline ``QueryStats`` counters; failures carry
``error`` (+ ``overloaded: true`` for backpressure rejections, so
clients can distinguish shed load from bad requests).  Malformed records
— non-object JSON, unknown fields, missing required fields — are
answered with a structured error naming the offending key, never routed
into query handling; a line over 64 KiB gets such an error too, and
its connection is closed.  Concurrency, coalescing, and backpressure
all come from the wrapped
:class:`~repro.server.async_service.AsyncQueryService`.

Each connection reads into one reused 64 KiB receive buffer (the line
limit) instead of a fresh allocation per socket read, so the front
door's cost per request does not depend on the allocator's state.

Streaming (``"stream": true``)
------------------------------

The paper's algorithms are anytime — the i-th optimal route is proven
final before the (i+1)-th is searched for — and a streamed request
surfaces exactly that: one JSON line per discovered route, flushed the
moment the search (possibly in a shard worker process) emits it, then a
terminating summary record with the final ``QueryStats``::

    {"source": 0, "target": 42, "categories": [0, 3], "k": 3,
     "stream": true, "id": "s-1"}
    -> {"id": "s-1", "stream": true, "rank": 1, "cost": 20.0,
        "witness": [0, 7, 42]}
    -> {"id": "s-1", "stream": true, "rank": 2, "cost": 21.0, ...}
    -> {"id": "s-1", "summary": true, "costs": [...], ...,
        "results_streamed": 3}

Deadlines (``"deadline_ms"``)
-----------------------------

A request carrying ``deadline_ms`` is shed the moment its deadline
passes — still queued, or finished incomplete — with a structured
``{"error": "deadline_exceeded"}`` reply instead of a silent slow or
partial answer.  Under overload, admission sheds expensive plans (GSP
full-graph searches) first; see :class:`AsyncQueryService`.

Operator probes
---------------

``{"stats": true}`` returns the serving counters plus the session-cache
counters and per-artefact hit rates (of the process's one warm session —
or summed over the worker fleet when serving ``--shards``), and the
resident-vs-serialized ``index_memory`` footprint.  Unsharded it is
answered on the event loop, never queued behind a running query.

``{"metrics": true}`` returns the full metrics snapshot — counters,
gauges, and mergeable latency histograms, fleet-merged across every
shard worker when sharded (see ``docs/observability.md`` for the
catalogue)::

    {"metrics": true, "id": "ops-1"}
    -> {"id": "ops-1", "metrics": {"enabled": true, "metrics": [...]}}

Unsharded, the metrics probe samples the warm session's populations on
the one execution thread, so it waits out the query running there.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Dict, Optional

from repro.api import QueryOptions, QueryRequest
from repro.core.query import category_ref
from repro.exceptions import (DeadlineExceededError, ReproError,
                              ServiceOverloadedError)
from repro.obs.metrics import REGISTRY as _METRICS
from repro.server.async_service import AsyncQueryService
from repro.service.service import QueryService

#: LRU caps on the server's one warm session when it serves unsharded
#: (shard workers hold their own sessions): one ``dis(·, t)`` kernel per
#: live group, and 2**16 FindNN cursors — a few times what 512
#: single-request groups on the benchmark's CAL graph held, at about 40
#: cursors each, when every group had a session of its own
SESSION_MAX_DEST_KERNELS = 512
SESSION_MAX_FINDERS = 2 ** 16

#: every key a request record may carry; anything else is rejected with
#: a structured error naming the offender (typo'd fields must not be
#: silently ignored — a mistyped "methd" would otherwise run the wrong
#: plan without a trace)
KNOWN_FIELDS = frozenset({
    "id", "source", "target", "categories", "k",
    "method", "nn_backend", "budget", "time_budget_s",
    "stream", "deadline_ms", "stats", "metrics",
})

#: longest request line accepted, newline included (asyncio's stream
#: limit); a longer one is answered with an error and the connection
#: closed, since the rest of the record is still arriving
MAX_LINE_BYTES = 2 ** 16

#: bucket bounds for the requests-per-connection histogram
_CONN_REQUEST_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                         1000.0)

#: sentinel ending a stream's route-record queue
_STREAM_DONE = object()


class _ReusedBufferProtocol(asyncio.StreamReaderProtocol,
                            asyncio.BufferedProtocol):
    """A stream protocol whose transport reads into one buffer per
    connection.

    Under a plain stream protocol the transport allocates a fresh
    256 KiB ``bytes`` per read, and whether glibc serves that from the
    heap or from a fresh ``mmap`` depends on what the process freed
    earlier: the front door's cost per request would have two
    start-up-dependent modes.  Here the transport ``recv_into`` s one
    :data:`MAX_LINE_BYTES` buffer, which the reader copies out of at once.
    """

    def __init__(self, handle, loop: asyncio.AbstractEventLoop):
        super().__init__(asyncio.StreamReader(limit=MAX_LINE_BYTES,
                                              loop=loop), handle, loop=loop)
        self._view = memoryview(bytearray(MAX_LINE_BYTES))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._view

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._view[:nbytes])


def _validate_record(record) -> dict:
    """Structural validation with the offending key in the message."""
    if not isinstance(record, dict):
        raise ValueError(
            f"request record must be a JSON object, got "
            f"{type(record).__name__}")
    unknown = sorted(set(record) - KNOWN_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown request field(s) {', '.join(repr(k) for k in unknown)}"
            f" (known fields: {', '.join(sorted(KNOWN_FIELDS))})")
    return record


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


#: option fields a record may override: what the JSON value must be
#: (``null`` leaves a budget unset, as in ``QueryOptions``)
_OPTION_FIELDS = (
    ("method", "a JSON string", lambda v: isinstance(v, str)),
    ("nn_backend", "a JSON string", lambda v: isinstance(v, str)),
    ("budget", "a JSON integer",
     lambda v: v is None or _is_json_int(v)),
    ("time_budget_s", "a finite JSON number",
     lambda v: v is None or _is_finite_number(v)),
)


def _parse_record(engine, record: dict,
                  defaults: QueryOptions) -> QueryRequest:
    for field in ("source", "target", "categories"):
        if field not in record:
            raise ValueError(f"request record needs {field!r}")
    # json.loads also hands out floats (1e400 is inf), bools, strings and
    # containers where the protocol means an integer, a number or a list:
    # reject them here, by field name, instead of letting int() truncate
    # or a comparison fail later.
    k = record.get("k", 1)
    for field, value in (("source", record["source"]),
                         ("target", record["target"]), ("k", k)):
        if not _is_json_int(value):
            raise ValueError(
                f"{field!r} must be a JSON integer, got {value!r}")
    if not isinstance(record["categories"], list):
        raise ValueError(
            f"'categories' must be a JSON list, got "
            f"{record['categories']!r}")
    for c in record["categories"]:
        if not (_is_json_int(c) or isinstance(c, str)):
            raise ValueError(
                f"'categories' holds JSON integers (ids) or strings "
                f"(names), got {c!r}")
    cats = [category_ref(c) for c in record["categories"]]
    query = engine.make_query(record["source"], record["target"], cats, k=k)
    overrides = {}
    for name, expected, accepts in _OPTION_FIELDS:
        if name in record:
            if not accepts(record[name]):
                raise ValueError(
                    f"{name!r} must be {expected}, got {record[name]!r}")
            overrides[name] = record[name]
    options = defaults.replace(**overrides) if overrides else defaults
    return QueryRequest(query, options)


def _parse_deadline_s(record: dict) -> Optional[float]:
    deadline_ms = record.get("deadline_ms")
    if deadline_ms is None:
        return None
    if not _is_finite_number(deadline_ms):
        raise ValueError(
            f"'deadline_ms' must be a finite number of milliseconds, got "
            f"{type(deadline_ms).__name__}")
    return float(deadline_ms) / 1000.0


def _encode_result(result, request_id) -> dict:
    stats = result.stats
    return {
        "id": request_id,
        "costs": result.costs,
        "witnesses": [list(w) for w in result.witnesses],
        "completed": stats.completed,
        "examined_routes": stats.examined_routes,
        "nn_queries": stats.nn_queries,
        "time_ms": stats.total_time * 1000.0,
    }


def _encode_route(res, request_id, rank: int) -> dict:
    return {
        "id": request_id,
        "stream": True,
        "rank": rank,
        "cost": res.cost,
        "witness": list(res.witness.vertices),
    }


def _encode_error(exc: BaseException, request_id) -> dict:
    payload = {"id": request_id, "error": str(exc),
               "kind": type(exc).__name__}
    if isinstance(exc, ServiceOverloadedError):
        payload["overloaded"] = True
    if isinstance(exc, DeadlineExceededError):
        payload["error"] = "deadline_exceeded"
        payload["detail"] = str(exc)
        payload["deadline_ms"] = exc.deadline_ms
    return payload


async def serve(engine, host: str = "127.0.0.1", port: int = 0, *,
                defaults: Optional[QueryOptions] = None,
                max_queue: Optional[int] = None,
                service=None) -> asyncio.AbstractServer:
    """Start the TCP server; returns the listening ``asyncio`` server.

    The caller owns the server's lifetime: :func:`shutdown` ends it
    without cancelling a connection's handler (the CLI's way), or
    ``async with server:`` / ``server.serve_forever()`` and then the
    ``close()`` of the wrapped front door, exposed as
    ``server.query_service``.

    Unsharded, the server answers over a :class:`QueryService` of its
    own on ``engine``, whose session is capped at
    :data:`SESSION_MAX_DEST_KERNELS` kernels and
    :data:`SESSION_MAX_FINDERS` cursors.  ``service`` overrides the
    execution backend: pass a
    :class:`~repro.shard.service.ShardedQueryService` to serve from the
    worker fleet instead (``engine`` may then be ``None`` — requests
    validate against the sharded service's graph).
    """
    options = defaults if defaults is not None else QueryOptions()
    sharded = service is not None
    served = service if sharded else QueryService(
        engine, max_dest_kernels=SESSION_MAX_DEST_KERNELS,
        max_finders=SESSION_MAX_FINDERS)
    # Whatever owns the graph validates incoming records.
    query_maker = service if sharded else engine
    aqs = AsyncQueryService(served, max_queue=max_queue)
    #: each open connection's handler task -> its writer (for shutdown)
    connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}

    def _stats_payload(request_id) -> dict:
        from repro.service.cache import hit_rates_from

        # One counter snapshot serves both fields, so the reported rates
        # always agree with the reported counters.
        totals = aqs.cache_stats()
        return {"id": request_id, "stats": {
            "serving": aqs.stats.as_dict(),
            "cache": totals,
            "hit_rates": hit_rates_from(totals),
            # Resident-vs-serialized index footprint (per worker for a
            # sharded backend), so operators can watch index memory
            # without touching the process.
            "index_memory": served.index_memory(),
            # Index epoch + per-category version counters (per shard on
            # a fleet, with each worker's pid), so operators can watch
            # updates — an edge update's replacement workers too — land
            # without touching the process.
            "epochs": served.epoch_info(),
        }}

    def _metrics_payload(request_id) -> dict:
        return {"id": request_id, "metrics": aqs.metrics_snapshot()}

    async def _probe_response(payload, request_id) -> dict:
        if not sharded and payload is _stats_payload:
            # Plain counters and index sizes: read on the loop thread,
            # so the probe never waits behind a running query.
            return payload(request_id)
        # The metrics probe walks the warm session's dicts, so unsharded
        # it runs on the one execution thread, which owns them.
        # Sharded, both probes talk over the worker pipes — blocking
        # I/O that must stay off the event loop.
        return await aqs.call(payload, request_id)

    async def _stream_response(request: QueryRequest,
                               deadline_s: Optional[float], request_id,
                               writer: asyncio.StreamWriter) -> dict:
        """Write one route record per discovered route; return the
        terminating record (summary, or a structured error).

        Routes surface on the execution thread (possibly relayed
        from a shard worker's pipe frames); ``call_soon_threadsafe``
        marshals them to this loop, where each is flushed immediately —
        the first record reaches the client while the search is still
        running.  FIFO callback ordering guarantees every route lands
        before the completion sentinel, so none are lost.
        """
        loop = asyncio.get_running_loop()
        routes: asyncio.Queue = asyncio.Queue()

        def on_route(res) -> None:
            loop.call_soon_threadsafe(routes.put_nowait, res)

        async def run():
            try:
                return await aqs.submit(request, deadline_s=deadline_s,
                                        on_route=on_route)
            finally:
                routes.put_nowait(_STREAM_DONE)

        task = loop.create_task(run())
        rank = 0
        try:
            while True:
                res = await routes.get()
                if res is _STREAM_DONE:
                    break
                rank += 1
                writer.write(json.dumps(
                    _encode_route(res, request_id, rank)).encode() + b"\n")
                await writer.drain()
        except BaseException:
            task.cancel()
            raise
        try:
            result = await task
        except (ValueError, TypeError, KeyError, ReproError) as exc:
            return _encode_error(exc, request_id)
        summary = _encode_result(result, request_id)
        summary["summary"] = True
        summary["results_streamed"] = rank
        return summary

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        connections[task] = writer
        metrics = _METRICS
        if metrics.enabled:
            metrics.counter("repro_tcp_connections_total").inc()
            metrics.gauge("repro_tcp_connections").inc()
        conn_requests = 0
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the stream limit: the reader has dropped part
                    # of the record, so this connection cannot be
                    # resynchronised — answer below, then close it.
                    line = None
                else:
                    if not line:
                        break
                    line = line.strip()
                    if not line:
                        continue
                conn_requests += 1
                if metrics.enabled:
                    metrics.counter("repro_tcp_requests_total").inc()
                request_id = None
                try:
                    if line is None:
                        raise ValueError(
                            f"request line exceeds the {MAX_LINE_BYTES}-byte "
                            f"limit; closing the connection")
                    record = json.loads(line)
                    request_id = record.get("id") if isinstance(record, dict) \
                        else None
                    _validate_record(record)
                    if record.get("stats"):
                        response = await _probe_response(_stats_payload,
                                                         request_id)
                    elif record.get("metrics"):
                        response = await _probe_response(_metrics_payload,
                                                         request_id)
                    else:
                        request = _parse_record(query_maker, record, options)
                        deadline_s = _parse_deadline_s(record)
                        if record.get("stream"):
                            response = await _stream_response(
                                request, deadline_s, request_id, writer)
                        else:
                            result = await aqs.submit(request,
                                                      deadline_s=deadline_s)
                            response = _encode_result(result, request_id)
                except (ValueError, TypeError, KeyError, ReproError) as exc:
                    response = _encode_error(exc, request_id)
                    if metrics.enabled:
                        metrics.counter("repro_tcp_errors_total").inc()
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
                if line is None:
                    break
        except ConnectionError:
            # The client is gone (reset mid-stream, or before its reply
            # was written): there is nobody left to answer, so this
            # connection's handler just ends.  A streamed request's
            # task was cancelled on the way out of _stream_response.
            pass
        finally:
            del connections[task]
            if metrics.enabled:
                metrics.gauge("repro_tcp_connections").dec()
                metrics.histogram("repro_tcp_requests_per_connection",
                                  bounds=_CONN_REQUEST_BUCKETS).observe(
                                      conn_requests)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    loop = asyncio.get_running_loop()
    server = await loop.create_server(
        lambda: _ReusedBufferProtocol(handle, loop), host, port)
    server.query_service = aqs  # type: ignore[attr-defined]
    server.connections = connections  # type: ignore[attr-defined]
    return server


async def shutdown(server: asyncio.AbstractServer) -> None:
    """Stop a :func:`serve` server without cancelling any handler.

    Stops accepting, then closes every open connection's transport: a
    handler waiting in ``readline`` reads end-of-file and returns, one in
    the middle of a request finishes it first (its reply has nobody left
    to go to).  Once every handler has ended, closes the front door.
    A cancelled handler is what asyncio would log a traceback for.
    """
    server.close()
    handlers = server.connections  # type: ignore[attr-defined]
    while handlers:  # again for a handler that started meanwhile
        for writer in handlers.values():
            writer.transport.close()
        await asyncio.wait(list(handlers))
    await server.query_service.close()  # type: ignore[attr-defined]
