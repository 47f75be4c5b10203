"""Plan execution: resource providers + the one plan→search seam.

Both query paths — the engine facade's per-query ``run`` and the batch
service — execute a resolved :class:`~repro.service.planner.QueryPlan`
through :func:`execute_plan`, which reads the plan's
:class:`~repro.service.planner.MethodSpec` row and calls the search
(or the GSP dynamic program) directly.  They differ only in the
resource provider handed in:

* :class:`ColdResources` builds everything fresh per query (the
  historical engine behaviour, and the reference for counter parity);
* :class:`WarmResources` resolves finders, ``dis(·, t)`` kernels, the
  CH, and SK-DB's index-file attachment from an epoch-validated
  :class:`~repro.service.cache.SessionCache`.
"""

from __future__ import annotations

from repro.api import DEFAULT_OPTIONS, QueryOptions
from repro.core.gsp import gsp_osr, gsp_osr_ch
from repro.core.query import KOSRQuery
from repro.core.runtime import QueryRuntime
from repro.core.search import sequenced_route_search
from repro.core.stats import QueryStats
from repro.exceptions import BudgetExceededError
from repro.nn.base import NearestNeighborFinder
from repro.obs import clock
from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.cache import IndexAttachment, SessionCache
from repro.service.planner import QueryPlan


class ColdResources:
    """Per-query resources built from scratch (the classic engine path)."""

    def __init__(self, engine):
        self.engine = engine

    def finder(self, nn_backend: str) -> NearestNeighborFinder:
        return self.engine._make_finder(nn_backend)

    def contraction_hierarchy(self):
        return self.engine.contraction_hierarchy()

    def index_attachment(self) -> IndexAttachment:
        """SK-DB's disk-resident index: a fresh attachment per query."""
        return IndexAttachment(self.engine)


class WarmResources:
    """Session-cached resources (epoch-validated before every query).

    Only the ``label`` NN backend is warmed: the Dijkstra comparators are
    deliberate straw men whose re-search cost *is* the measurement, so
    caching them would change what they measure — they stay cold even on
    the service path.
    """

    def __init__(self, session: SessionCache):
        self.session = session
        self.engine = session.engine

    def finder(self, nn_backend: str) -> NearestNeighborFinder:
        if nn_backend == "label":
            return self.session.finder_view()
        return self.engine._make_finder(nn_backend)

    def contraction_hierarchy(self):
        return self.session.contraction_hierarchy()

    def index_attachment(self) -> IndexAttachment:
        return self.session.disk_state()


def execute_plan(
    engine,
    plan: QueryPlan,
    query: KOSRQuery,
    options: QueryOptions = DEFAULT_OPTIONS,
    *,
    resources=None,
    on_result=None,
):
    """Execute ``plan`` over ``query``; returns a
    :class:`~repro.core.engine.KOSRResult`.

    ``options`` carries the execution knobs (budgets, strictness, route
    restoration, profiling); ``plan`` already fixes the method and NN
    backend, so ``options.method`` / ``options.nn_backend`` are not
    re-consulted here.  ``resources`` defaults to :class:`ColdResources`
    (fresh per-query state — byte-identical to the pre-service engine).
    ``on_result`` streams each route as the anytime search finalises it
    (the all-at-end GSP family has no such seam — the service layer
    replays its results through the callback after the run).
    """
    from repro.core.engine import KOSRResult

    if resources is None:
        resources = ColdResources(engine)
    stats = QueryStats(method=plan.method, profile=options.profile)
    t_start = clock.now()
    deadline = (None if options.time_budget_s is None
                else t_start + options.time_budget_s)
    spec = plan.spec
    if spec.needs_finder:
        if spec.index_file:
            # SK-DB: attach what of the saved file is not attached yet (on
            # the cold path, everything), then search with a fresh finder.
            t0 = clock.now()
            finder = resources.index_attachment().finder(engine.graph,
                                                         query.categories)
            stats.index_load_time = clock.now() - t0
        else:
            finder = resources.finder(plan.nn_backend)
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
        metrics.counter("repro_queries_total", method=plan.method).inc()
        metrics.histogram("repro_query_latency_seconds",
                          method=plan.method).observe(stats.total_time)
        metrics.counter("repro_examined_routes_total",
                        method=plan.method).inc(stats.examined_routes)
        metrics.counter("repro_nn_queries_total",
                        method=plan.method).inc(stats.nn_queries)
        if not stats.completed:
            metrics.counter("repro_queries_incomplete_total",
                            method=plan.method).inc()
    if options.strict_budget and not stats.completed:
        raise BudgetExceededError(
            options.budget if options.budget is not None else -1)
    if options.restore_routes:
        engine._restore(results)
    return KOSRResult(query, results, stats)
