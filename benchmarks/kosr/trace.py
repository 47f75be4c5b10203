"""Tracing from outside: spans around the calls into each layer.

The wrappers sit on the public boundary callables of ``src/repro`` —
nothing under ``src/`` is edited — and record a span (name, start, end,
parent, request id) per call into an in-memory list that is written out
when the process ends.  The traced repetition sends **one request at a
time**, so spans nest by containment and one process-wide stack gives
every span its parent even though a request hops from the event loop to
a pool thread; no context needs propagating.

A layer is a module of the stack; a span belongs to the layer its name
is prefixed with.  A span's *self time* is its duration minus the part
its children cover, so the self times of one request add up to exactly
the root span — and with the client's round trip as the root, every
microsecond the client waited belongs to exactly one layer.

Worker processes are not patched: a sharded run's worker-side execution
time is the reply's own ``stats.total_time``, recorded as a synthetic
``core.execute_plan`` child of the ``shard.run`` span.
"""

from __future__ import annotations

import functools
import json
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from benchmarks.kosr.summary import median

#: span-name prefix → layer, outermost first (report order)
LAYERS = ("tcp", "async", "shard", "service", "core")


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._lock = threading.Lock()
        self._requests = 0

    def start(self, name: str) -> dict:
        with self._lock:
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._requests += 1
            span = {"id": len(self.spans), "name": name,
                    "parent": None if parent is None else parent["id"],
                    "request": self._requests, "start": perf_counter(),
                    "end": None}
            self.spans.append(span)
            self._stack.append(span)
        return span

    def finish(self, span: dict) -> None:
        span["end"] = perf_counter()
        with self._lock:
            self._stack.remove(span)

    def add_child(self, parent: dict, name: str, duration_s: float) -> None:
        """A synthetic child span of known duration (time reported by
        another process), laid at the start of its parent."""
        with self._lock:
            self.spans.append({
                "id": len(self.spans), "name": name, "parent": parent["id"],
                "request": parent["request"], "start": parent["start"],
                "end": parent["start"] + duration_s, "synthetic": True})

    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.
        ``after(span, result, *call_args)`` may annotate the finished span
        from what the call returned."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = self.start(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.finish(span)
            if after is not None:
                after(span, result, *args)
            return result

        setattr(owner, attr, traced)

    def wrap_async(self, owner, attr: str, name: str) -> None:
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        async def traced(*args, **kwargs):
            span = self.start(name)
            try:
                return await inner(*args, **kwargs)
            finally:
                self.finish(span)

        setattr(owner, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)


def _wrap_cache_lookup(recorder: SpanRecorder, attr: str, counter: str) -> None:
    """Span a ``SessionCache`` lookup and mark whether it missed (its
    miss counter moved), so time spent building shows separately."""
    from repro.service.cache import SessionCache

    inner = getattr(SessionCache, attr)

    @functools.wraps(inner)
    def traced(session, *args, **kwargs):
        before = getattr(session.stats, counter)
        span = recorder.start(f"service.cache.{attr}")
        try:
            return inner(session, *args, **kwargs)
        finally:
            recorder.finish(span)
            span["miss"] = getattr(session.stats, counter) != before

    setattr(SessionCache, attr, traced)


def _worker_time(recorder: SpanRecorder):
    def after(span, result, *_args):
        recorder.add_child(span, "core.execute_plan",
                           result.stats.total_time)
    return after


def install_server_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the boundaries a ``cli serve`` request crosses."""
    import repro.service.service as service_module
    from repro.server.async_service import AsyncQueryService
    from repro.service.cache import SessionCache
    from repro.service.service import QueryService
    from repro.shard.service import ShardedQueryService

    recorder.wrap_async(AsyncQueryService, "submit", "async.submit")
    recorder.wrap(QueryService, "run", "service.run")
    recorder.wrap(ShardedQueryService, "run", "shard.run",
                  after=_worker_time(recorder))
    # QueryService.run resolves execute_plan through its module's
    # globals at call time, so that is the name to wrap.
    recorder.wrap(service_module, "execute_plan", "core.execute_plan")
    recorder.wrap(SessionCache, "validate", "service.cache.validate")
    _wrap_cache_lookup(recorder, "dest_kernel", "dest_kernel_misses")
    _wrap_cache_lookup(recorder, "finder_view", "finder_misses")


def install_fleet_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the in-process fleet's query and update entry points."""
    from repro.shard.service import ShardedQueryService

    recorder.wrap(ShardedQueryService, "run", "shard.run",
                  after=_worker_time(recorder))
    recorder.wrap(ShardedQueryService, "add_vertex_to_category",
                  "shard.update")
    recorder.wrap(ShardedQueryService, "remove_vertex_from_category",
                  "shard.update")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: Sequence[dict]) -> Dict[int, float]:
    """Span id → self time in seconds: duration minus the part of the
    interval that child spans cover (overlapping children count once)."""
    children: Dict[int, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda s: s["start"]):
            lo = max(cursor, child["start"])
            hi = min(span["end"], child["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def layer_report(spans: Sequence[dict], round_trips_ms: Sequence[float],
                 skip: int = 0, outer: str = "tcp") -> Dict[str, object]:
    """Per-layer self time of the traced queries.

    ``round_trips_ms`` are the client's latencies of the same queries, in
    order; query *i* is the *i*-th root span that is not an update.  The
    client round trip minus the root span belongs to the ``outer`` layer:
    ``tcp`` for a socket client (socket, JSON parse/validate/encode, the
    connection handler), ``shard`` for an API caller of the fleet.  That
    makes the layer shares of a workload sum to 1.  The first ``skip``
    queries (the warm-up prefix) are matched but left out.  Update spans
    are reported on their own.
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    requests: Dict[int, List[dict]] = {}
    for span in spans:
        requests.setdefault(span["request"], []).append(span)
    queries = [group for group in requests.values()
               if group[0]["name"] != "shard.update"]
    updates_ms = [(group[0]["end"] - group[0]["start"]) * 1000.0
                  for group in requests.values()
                  if group[0]["name"] == "shard.update"]
    if len(queries) != len(round_trips_ms):
        raise ValueError(f"{len(queries)} traced queries but "
                         f"{len(round_trips_ms)} client round trips")
    per_layer: Dict[str, List[float]] = {}
    waits_ms: List[float] = []
    build_ms = total_ms = 0.0
    for group, round_trip in list(zip(queries, round_trips_ms))[skip:]:
        root = group[0]
        total_ms += round_trip
        layers = {outer: round_trip
                  - (root["end"] - root["start"]) * 1000.0}
        for span in group:
            layer = layer_of(span["name"])
            layers[layer] = layers.get(layer, 0.0) + own[span["id"]] * 1000.0
            if span.get("miss"):
                build_ms += (span["end"] - span["start"]) * 1000.0
            if span["name"] in ("service.run", "shard.run") \
                    and span["parent"] is not None:
                waits_ms.append(
                    (span["start"] - by_id[span["parent"]]["start"]) * 1000.0)
        for layer, value in layers.items():
            per_layer.setdefault(layer, []).append(value)
    count = len(queries) - skip
    return {
        "requests": count,
        "layers": {layer: {"self_p50_ms": median(per_layer[layer]),
                           "share": sum(per_layer[layer]) / total_ms}
                   for layer in LAYERS if layer in per_layer},
        "async_wait_p50_ms": median(waits_ms) if waits_ms else None,
        "cache_build_mean_ms": build_ms / count if count else 0.0,
        "update_broadcast_p50_ms": median(updates_ms) if updates_ms else None,
    }


def load_spans(path: str) -> List[dict]:
    with open(path) as fh:
        return json.load(fh)["spans"]
