"""repro.service — the workload-serving layer between indexes and algorithms.

* :mod:`repro.service.planner` — the method table (one
  :class:`MethodSpec` row per method of the paper); ``(method,
  nn_backend)`` -> :class:`QueryPlan`;
* :mod:`repro.service.cache` — epoch-versioned :class:`SessionCache`
  with cold-equivalent counter accounting;
* :mod:`repro.service.execution` — resource providers +
  :func:`execute_plan`, the one seam from a plan to the search loop,
  used by both the engine facade and the batch service;
* :mod:`repro.service.service` — :class:`QueryService` with grouped
  :meth:`~QueryService.run_batch` execution.

The typed request/response vocabulary (:class:`~repro.api.QueryOptions`
/ :class:`~repro.api.QueryRequest`) lives in :mod:`repro.api`; the
asyncio front-end over this layer lives in :mod:`repro.server`; the
multi-process category-sharded deployment lives in :mod:`repro.shard`.

Layer contract
--------------

Everything above the engine leans on two invariants this package owns:

* **Cold-equivalence.**  The paper's evaluation counters are defined per
  query over cold caches, so warm reuse must be *observably
  transparent*: any query answered through a :class:`SessionCache` —
  single, batched, async, or sharded — returns results AND
  ``QueryStats`` counters bit-identical to a fresh single-query engine.
  Shared state may only share *values* (memo contents, produced NL
  entries); accounting stays per-query (virtual cursor positions,
  per-query dedup).  Pinned by ``TestServicePathParity`` and the
  interleaved-update fuzz suites.
* **Epoch semantics.**  Every index mutation moves the engine's
  ``index_epoch`` (engine-level base + per-index version counters, so
  even updates applied behind the engine's back are seen).  A session
  validates its stored epoch before serving and drops the warm state a
  change could have touched — just the changed categories' cursors and
  FindNEN streams when only per-category versions moved, everything
  when ``epoch_base`` moved (edge update, compaction) — so no query can
  ever observe pre-update cache state.  Within one epoch, index state
  is immutable-as-observed: identical requests are guaranteed identical
  answers, which is what makes the serving layer's coalescing
  (:attr:`repro.api.QueryRequest.key`) sound.
"""

from repro.api import DEFAULT_OPTIONS, QueryOptions, QueryRequest

from repro.service.cache import (
    CacheStats,
    ColdEquivalentFinderView,
    SessionCache,
    SharedDestKernel,
)
from repro.service.execution import ColdResources, WarmResources, execute_plan
from repro.service.planner import (
    METHODS,
    METHOD_TABLE,
    MethodSpec,
    NN_BACKENDS,
    QueryPlan,
    resolve_plan,
)
from repro.service.service import BatchResult, QueryService

__all__ = [
    "BatchResult",
    "CacheStats",
    "ColdEquivalentFinderView",
    "ColdResources",
    "DEFAULT_OPTIONS",
    "METHODS",
    "METHOD_TABLE",
    "MethodSpec",
    "NN_BACKENDS",
    "QueryOptions",
    "QueryPlan",
    "QueryRequest",
    "QueryService",
    "SessionCache",
    "SharedDestKernel",
    "WarmResources",
    "execute_plan",
    "resolve_plan",
]
