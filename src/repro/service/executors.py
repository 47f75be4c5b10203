"""The paper's seven methods, registered as planner executors.

Each executor is a thin adapter from :class:`ExecutionContext` to the
underlying algorithm module — the algorithms themselves are untouched by
the service layer.  Resource acquisition (finder / CH / SK-DB's
index-file attachment) goes through ``ctx.resources``, so the same
executor serves both the cold per-query facade path and the warm batch
path.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.gsp import gsp_osr, gsp_osr_ch
from repro.core.kpne import kpne
from repro.core.pruning import pruning_kosr
from repro.core.star import star_kosr
from repro.service.execution import ExecutionContext
from repro.service.planner import register_executor


@register_executor("KPNE", needs_finder=True)
def _run_kpne(ctx: ExecutionContext):
    finder = ctx.resources.finder(ctx.plan.nn_backend)
    return kpne(ctx.query, finder, ctx.stats, ctx.budget, ctx.deadline,
                on_result=ctx.on_result)


@register_executor("PK", needs_finder=True)
def _run_pk(ctx: ExecutionContext):
    finder = ctx.resources.finder(ctx.plan.nn_backend)
    return pruning_kosr(ctx.query, finder, ctx.stats, ctx.budget, ctx.deadline,
                        on_result=ctx.on_result)


@register_executor("SK", needs_finder=True)
def _run_sk(ctx: ExecutionContext):
    finder = ctx.resources.finder(ctx.plan.nn_backend)
    return star_kosr(ctx.query, finder, ctx.stats, ctx.budget, ctx.deadline,
                     on_result=ctx.on_result)


@register_executor("SK-NODOM", needs_finder=True)
def _run_sk_nodom(ctx: ExecutionContext):
    finder = ctx.resources.finder(ctx.plan.nn_backend)
    return star_kosr(ctx.query, finder, ctx.stats, ctx.budget, ctx.deadline,
                     use_dominance=False, on_result=ctx.on_result)


@register_executor("SK-DB", needs_finder=True)
def _run_sk_db(ctx: ExecutionContext):
    # StarKOSR over the saved index file: attach what is not attached
    # yet (on the cold path, everything), then search with a fresh finder.
    t0 = perf_counter()
    finder = ctx.resources.index_attachment().finder(ctx.graph,
                                                     ctx.query.categories)
    ctx.stats.index_load_time = perf_counter() - t0
    return star_kosr(ctx.query, finder, ctx.stats, ctx.budget, ctx.deadline,
                     on_result=ctx.on_result)


@register_executor("GSP")
def _run_gsp(ctx: ExecutionContext):
    return gsp_osr(ctx.graph, ctx.query, ctx.stats)


@register_executor("GSP-CH", needs_ch=True)
def _run_gsp_ch(ctx: ExecutionContext):
    return gsp_osr_ch(ctx.graph, ctx.query,
                      ctx.resources.contraction_hierarchy(), ctx.stats)
