"""repro.server — the asyncio serving front-end.

* :mod:`repro.server.async_service` — :class:`AsyncQueryService`:
  one work queue feeding one execution thread over one warm session per
  process unsharded (four threads only for dispatch to a sharded fleet),
  coalescing of identical in-flight requests, and bounded admission
  (backpressure via :class:`~repro.exceptions.ServiceOverloadedError`);
* :mod:`repro.server.tcp` — a JSON-lines TCP front door
  (``repro.cli serve``): streamed responses (``"stream": true``),
  per-request deadlines (``"deadline_ms"``), and the
  ``{"stats": true}`` / ``{"metrics": true}`` operator probes.

Layer contract
--------------

* **Coalescing identity.**  Two requests may share one plan execution
  iff their :attr:`~repro.api.QueryRequest.key` — the full
  ``(s, t, C, k)`` tuple *plus* the frozen ``QueryOptions`` — are equal
  and both are in flight within the same index epoch.  The service
  layer's epoch semantics guarantee equal keys then produce identical
  answers, so every coalesced waiter receives the *same* result object
  and the counters still read as one cold execution.
* **Cold-equivalence is inherited, not re-implemented.**  The front-end
  never touches accounting; it only routes to the warm session (or, when
  constructed over a :class:`~repro.shard.ShardedQueryService`, to the
  worker fleet), so every answer remains bit-identical to a fresh cold
  engine.
* **Bounded admission.**  At most ``max_queue`` requests are pending at
  once; excess submits fail fast with ``ServiceOverloadedError`` rather
  than queueing unboundedly.
"""

from repro._lazy import lazy_exports

# Resolved on first use (see :mod:`repro._lazy`): an in-process front
# door (``batch --async``) never loads the TCP face.
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.server.async_service": ("AsyncQueryService", "ServingStats"),
    "repro.server.tcp": ("serve",),
})
