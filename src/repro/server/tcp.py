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
full-graph searches, cross-shard spanning requests) first; see
:class:`AsyncQueryService`.

Operator probes
---------------

``{"stats": true}`` returns the serving counters plus the session-cache
counters and per-artefact hit rates (summed over group sessions — or
over the worker fleet when serving ``--shards``), and the
resident-vs-serialized ``index_memory`` footprint.

``{"metrics": true}`` returns the full metrics snapshot — counters,
gauges, and mergeable latency histograms, fleet-merged across every
shard worker when sharded (see ``docs/observability.md`` for the
catalogue)::

    {"metrics": true, "id": "ops-1"}
    -> {"id": "ops-1", "metrics": {"enabled": true, "metrics": [...]}}
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Optional

from repro.api import QueryOptions, QueryRequest
from repro.exceptions import (DeadlineExceededError, ReproError,
                              ServiceOverloadedError)
from repro.obs.metrics import REGISTRY as _METRICS
from repro.server.async_service import AsyncQueryService

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
    cats = [int(c) if isinstance(c, str) and c.isdigit() else c
            for c in record["categories"]]
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
                max_inflight: int = 4,
                max_queue: Optional[int] = None,
                max_groups: Optional[int] = None,
                service=None) -> asyncio.AbstractServer:
    """Start the TCP server; returns the listening ``asyncio`` server.

    The caller owns the server's lifetime (``async with server:`` /
    ``server.serve_forever()``); the wrapped front door is exposed as
    ``server.query_service`` — await its ``close()`` after closing the
    server (the CLI does both).

    ``service`` overrides the execution backend: pass a
    :class:`~repro.shard.service.ShardedQueryService` to serve from the
    worker fleet instead of ``engine.service`` (``engine`` may then be
    ``None`` — requests validate against the sharded service's graph).
    """
    options = defaults if defaults is not None else QueryOptions()
    served = service if service is not None else engine.service
    # Whatever owns the graph validates incoming records.
    query_maker = service if service is not None else engine
    aqs = AsyncQueryService(served, max_inflight=max_inflight,
                            max_queue=max_queue, max_groups=max_groups)

    def _stats_payload(request_id) -> dict:
        from repro.service.cache import hit_rates_from

        # One counter snapshot serves both fields, so the reported rates
        # always agree with the reported counters.
        totals = aqs.cache_stats()
        payload = {"id": request_id, "stats": {
            "serving": aqs.stats.as_dict(),
            "cache": totals,
            "hit_rates": hit_rates_from(totals),
        }}
        index_memory = getattr(served, "index_memory", None)
        if callable(index_memory):
            # Resident-vs-serialized index footprint (per worker for a
            # sharded backend), so operators can watch index memory
            # without touching the process.
            payload["stats"]["index_memory"] = index_memory()
        epoch_info = getattr(served, "epoch_info", None)
        if callable(epoch_info):
            # Index epoch + per-category version counters (per shard on
            # a fleet), so operators can watch updates — including a
            # fenced edge swap — land without touching the process.
            payload["stats"]["epochs"] = epoch_info()
        return payload

    async def _stats_response(request_id) -> dict:
        if service is not None:
            # Sharded backend: the counters come over the worker pipes —
            # blocking I/O that must stay off the event loop.
            return await asyncio.get_running_loop().run_in_executor(
                aqs._pool, _stats_payload, request_id)
        # Unsharded: a pure in-memory walk of the live group sessions.
        # It must run on the loop thread, which owns the group dicts —
        # an executor thread could race their mutation mid-iteration.
        return _stats_payload(request_id)

    def _metrics_payload(request_id) -> dict:
        return {"id": request_id, "metrics": aqs.metrics_snapshot()}

    async def _metrics_response(request_id) -> dict:
        if service is not None:
            # Sharded: worker snapshots travel over the pipes (blocking
            # I/O) — same off-loop rule as the stats probe.
            return await asyncio.get_running_loop().run_in_executor(
                aqs._pool, _metrics_payload, request_id)
        return _metrics_payload(request_id)

    async def _stream_response(request: QueryRequest,
                               deadline_s: Optional[float], request_id,
                               writer: asyncio.StreamWriter) -> dict:
        """Write one route record per discovered route; return the
        terminating record (summary, or a structured error).

        Routes surface on an executing pool thread (possibly relayed
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
                        response = await _stats_response(request_id)
                    elif record.get("metrics"):
                        response = await _metrics_response(request_id)
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

    server = await asyncio.start_server(handle, host, port,
                                        limit=MAX_LINE_BYTES)
    server.query_service = aqs  # type: ignore[attr-defined]
    return server
