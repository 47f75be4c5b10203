"""Plan execution: the one plan→search seam.

Every query path — the engine facade's per-query ``run``, the batch
service, a shard worker, the preference variant — answers a query
through :func:`execute_plan`, which reads the method's
:class:`~repro.service.planner.MethodSpec` row from the options and
calls the search (or the GSP dynamic program) directly.  The paths
differ only in the resource provider handed in, and there are two:

* the engine (the default): a fresh finder, the engine's lazy CH and a
  fresh attachment of the saved index file per query — the paper's
  cold measurement setup, and the reference for counter parity;
* its :class:`~repro.service.cache.SessionCache`: the warm label finder
  view, the session's CH and its kept SK-DB attachment, all
  epoch-validated by the caller before the query.

Both expose ``finder(nn_backend)``, ``contraction_hierarchy()`` and
``index_attachment()``.  (The preference variant hands in a provider
with only ``finder``, the engine's wrapped in its member filter.)
"""

from __future__ import annotations

from repro.api import DEFAULT_OPTIONS, QueryOptions
from repro.core.gsp import gsp_osr, gsp_osr_ch
from repro.core.query import KOSRQuery
from repro.core.runtime import QueryRuntime
from repro.core.search import sequenced_route_search
from repro.core.stats import QueryStats
from repro.exceptions import BudgetExceededError
from repro.obs import clock
from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.planner import resolve_plan


def execute_plan(
    engine,
    query: KOSRQuery,
    options: QueryOptions = DEFAULT_OPTIONS,
    *,
    resources=None,
    on_result=None,
):
    """Answer ``query`` as ``options`` ask; returns a
    :class:`~repro.core.engine.KOSRResult`.

    ``options.method`` / ``options.nn_backend`` resolve to the method's
    table row (raising :class:`~repro.exceptions.QueryError` on unknown
    names); the rest are the execution knobs (budgets, strictness, route
    restoration, profiling).  ``resources`` provides the finder, the CH
    and SK-DB's index attachment, and defaults to ``engine`` (fresh
    per-query state).  ``on_result`` streams each route as the anytime
    search finalises it; the all-at-end GSP family has no such seam, so
    its results are replayed through the callback after the run (and
    after route restoration).  Either way the callback sees exactly the
    returned result's objects, in order.
    """
    from repro.core.engine import KOSRResult

    spec = resolve_plan(options.method, options.nn_backend)
    if resources is None:
        resources = engine
    method = options.method
    stats = QueryStats(method=method, profile=options.profile)
    t_start = clock.now()
    deadline = (None if options.time_budget_s is None
                else t_start + options.time_budget_s)
    if spec.needs_finder:
        if spec.index_file:
            # SK-DB: attach what of the saved file is not attached yet (on
            # the cold path, everything), then search with a fresh finder.
            t0 = clock.now()
            finder = resources.index_attachment().finder(engine.graph,
                                                         query.categories)
            stats.index_load_time = clock.now() - t0
        else:
            finder = resources.finder(options.nn_backend)
        results = sequenced_route_search(
            QueryRuntime(query, finder, stats, estimated=spec.estimated),
            spec.use_dominance, spec.estimated, budget=options.budget,
            deadline=deadline, on_result=on_result)
    elif spec.needs_ch:
        results = gsp_osr_ch(engine.graph, query,
                             resources.contraction_hierarchy(), stats,
                             deadline)
    else:
        results = gsp_osr(engine.graph, query, stats, deadline)
    stats.total_time = clock.now() - t_start
    metrics = _METRICS
    if metrics is not None and metrics.enabled:
        # Post-hoc, outside the search loop: answers and QueryStats stay
        # bit-identical whether this branch runs or not.
        metrics.counter("repro_queries_total", method=method).inc()
        metrics.histogram("repro_query_latency_seconds",
                          method=method).observe(stats.total_time)
        metrics.counter("repro_examined_routes_total",
                        method=method).inc(stats.examined_routes)
        metrics.counter("repro_nn_queries_total",
                        method=method).inc(stats.nn_queries)
        if not stats.completed:
            metrics.counter("repro_queries_incomplete_total",
                            method=method).inc()
    if options.strict_budget and not stats.completed:
        raise BudgetExceededError(
            options.budget if options.budget is not None else -1)
    if options.restore_routes:
        engine._restore(results)
    if on_result is not None and not spec.needs_finder:
        for res in results:
            on_result(res)
    return KOSRResult(query, results, stats)
