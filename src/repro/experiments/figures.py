"""Per-figure / per-table experiment definitions (Sec. V-B).

Each function regenerates the data series behind one figure or table of the
paper, at the scaled settings of :mod:`repro.experiments.datasets`.  All
return ``(rows, columns)`` ready for
:func:`repro.experiments.reporting.format_table`.

Absolute numbers differ from the paper (pure-Python engine, scaled
analogues); the *shapes* the paper argues from — who wins, by what order,
where INF appears — are the reproduction targets recorded in
``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import QueryOptions
from repro.core.engine import KOSREngine
from repro.experiments import datasets as ds
from repro.experiments.runner import (
    DEFAULT_EXAMINED_BUDGET,
    DEFAULT_TIME_BUDGET_S,
    MethodAggregate,
    run_workload,
)
from repro.experiments.workload import Workload, random_queries
from repro.graph import generators

ALL_DATASETS: Tuple[str, ...] = ("CAL", "NYC", "COL", "FLA", "G+")
FAST_METHODS: Tuple[str, ...] = ("KPNE", "PK", "SK", "SK-DB")
DIJ_METHODS: Tuple[str, ...] = ("KPNE-Dij", "PK-Dij", "SK-Dij")
ALL_METHODS: Tuple[str, ...] = DIJ_METHODS + FAST_METHODS

#: tighter wall budget for the deliberately slow *-Dij variants
DIJ_TIME_BUDGET_S = 3.0

Row = Dict[str, object]


def _workload_for(engine: KOSREngine, c_len: int, k: int,
                  num_queries: Optional[int], seed: int) -> Workload:
    n = ds.BENCH_QUERIES if num_queries is None else num_queries
    return random_queries(engine.graph, n, c_len, k, seed=seed)


def _run(engine: KOSREngine, workload: Workload, label: str,
         profile: bool = False) -> MethodAggregate:
    if label.endswith("-Dij"):
        # The restarting-Dijkstra variants are deliberately slow (that is
        # the paper's point); bound their wall time and sample fewer
        # queries so the suite stays runnable.
        workload = Workload(workload.queries[: max(2, len(workload) // 2)])
        time_budget = DIJ_TIME_BUDGET_S
    else:
        time_budget = DEFAULT_TIME_BUDGET_S
    return run_workload(engine, workload, label,
                        budget=DEFAULT_EXAMINED_BUDGET, time_budget_s=time_budget,
                        profile=profile)


def _agg_row(agg: MethodAggregate, **extra) -> Row:
    row: Row = {
        "method": agg.label,
        "time_ms": agg.mean_time_ms,
        "examined_routes": agg.mean_examined,
        "nn_queries": agg.mean_nn_queries,
        "unfinished": agg.unfinished,
    }
    row.update(extra)
    return row


# ----------------------------------------------------------------------
# Table IX — preprocessing
# ----------------------------------------------------------------------

def table9_preprocessing(
    datasets: Sequence[str] = ALL_DATASETS, scale: Optional[float] = None
) -> Tuple[List[Row], List[str]]:
    """Label + inverted-index construction statistics per graph."""
    rows: List[Row] = []
    for name in datasets:
        graph = generators.dataset_by_name(
            name, scale=ds.BENCH_SCALE if scale is None else scale
        )
        engine = KOSREngine.build(graph, name=name)
        p = engine.preprocessing
        rows.append({
            "graph": name,
            "V": p.num_vertices,
            "E": p.num_edges,
            "label_build_s": p.label_build_seconds,
            "avg_Lin": p.avg_lin,
            "avg_Lout": p.avg_lout,
            "label_MB": p.label_bytes / 1e6,
            "il_build_s": p.inverted_build_seconds,
            "avg_IL_Ci": p.avg_il_per_category,
            "avg_IL_v": p.avg_il_list_length,
            "il_MB": p.inverted_bytes / 1e6,
        })
    return rows, ["graph", "V", "E", "label_build_s", "avg_Lin", "avg_Lout",
                  "label_MB", "il_build_s", "avg_IL_Ci", "avg_IL_v", "il_MB"]


# ----------------------------------------------------------------------
# Figure 3(a-c) — overall performance on all graphs, default settings
# ----------------------------------------------------------------------

def fig3_overall(
    datasets: Sequence[str] = ALL_DATASETS,
    methods: Sequence[str] = ALL_METHODS,
    num_queries: Optional[int] = None,
    k: int = ds.DEFAULT_K,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """Run-time, examined routes, and NN queries per method per graph."""
    rows: List[Row] = []
    for name in datasets:
        engine = ds.engine_for(name)
        workload = _workload_for(engine, c_len, k, num_queries, seed=31)
        for label in methods:
            agg = _run(engine, workload, label)
            rows.append(_agg_row(agg, dataset=name))
    return rows, ["dataset", "method", "time_ms", "examined_routes",
                  "nn_queries", "unfinished"]


# ----------------------------------------------------------------------
# Figure 3(d,e) & Figure 4 — effect of k
# ----------------------------------------------------------------------

def fig3_effect_k(
    dataset: str,
    ks: Sequence[int] = ds.K_SWEEP,
    methods: Sequence[str] = FAST_METHODS,
    num_queries: Optional[int] = None,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """Fig. 3(d) with dataset="FLA", Fig. 3(e) with dataset="CAL"."""
    engine = ds.engine_for(dataset)
    rows: List[Row] = []
    for k in ks:
        workload = _workload_for(engine, c_len, k, num_queries, seed=37)
        for label in methods:
            agg = _run(engine, workload, label)
            rows.append(_agg_row(agg, dataset=dataset, k=k))
    return rows, ["dataset", "k", "method", "time_ms", "examined_routes",
                  "nn_queries", "unfinished"]


def fig4_small_k(
    datasets: Sequence[str] = ("CAL", "FLA"),
    ks: Sequence[int] = (1, 2, 3, 4, 5, 10),
    methods: Sequence[str] = FAST_METHODS,
    num_queries: Optional[int] = None,
) -> Tuple[List[Row], List[str]]:
    """Small-k behaviour on CAL and FLA analogues."""
    rows: List[Row] = []
    for name in datasets:
        engine = ds.engine_for(name)
        for k in ks:
            workload = _workload_for(engine, ds.DEFAULT_C_LEN, k, num_queries, seed=41)
            for label in methods:
                agg = _run(engine, workload, label)
                rows.append(_agg_row(agg, dataset=name, k=k))
    return rows, ["dataset", "k", "method", "time_ms", "examined_routes",
                  "nn_queries", "unfinished"]


# ----------------------------------------------------------------------
# Figure 3(f,g) — effect of |C|
# ----------------------------------------------------------------------

def fig3_effect_c(
    dataset: str,
    c_lens: Sequence[int] = ds.C_LEN_SWEEP,
    methods: Sequence[str] = FAST_METHODS,
    num_queries: Optional[int] = None,
    k: int = ds.DEFAULT_K,
) -> Tuple[List[Row], List[str]]:
    """Fig. 3(f) with dataset="FLA", Fig. 3(g) with dataset="CAL"."""
    engine = ds.engine_for(dataset)
    rows: List[Row] = []
    for c_len in c_lens:
        workload = _workload_for(engine, c_len, k, num_queries, seed=43)
        for label in methods:
            agg = _run(engine, workload, label)
            rows.append(_agg_row(agg, dataset=dataset, c_len=c_len))
    return rows, ["dataset", "c_len", "method", "time_ms", "examined_routes",
                  "nn_queries", "unfinished"]


# ----------------------------------------------------------------------
# Figure 3(h) — effect of |Ci| (FLA, uniform categories)
# ----------------------------------------------------------------------

def fig3_effect_ci(
    fractions: Sequence[float] = ds.CAT_FRACTION_SWEEP,
    methods: Sequence[str] = FAST_METHODS,
    num_queries: Optional[int] = None,
    k: int = ds.DEFAULT_K,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """Category-size sweep mirroring |Ci| ∈ {5k, 10k, 15k, 20k} on FLA."""
    rows: List[Row] = []
    for frac in fractions:
        engine = ds.fla_engine_with_categories(category_fraction=frac)
        workload = _workload_for(engine, c_len, k, num_queries, seed=47)
        ci = max(2, int(frac * engine.graph.num_vertices))
        for label in methods:
            agg = _run(engine, workload, label)
            rows.append(_agg_row(agg, dataset="FLA", category_size=ci))
    return rows, ["dataset", "category_size", "method", "time_ms",
                  "examined_routes", "nn_queries", "unfinished"]


# ----------------------------------------------------------------------
# Figure 5 — SK searching space per category position
# ----------------------------------------------------------------------

def fig5_search_space(
    datasets: Sequence[str] = ALL_DATASETS,
    num_queries: Optional[int] = None,
    k: int = ds.DEFAULT_K,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """Examined routes of SK at each category level (rise-then-shrink shape)."""
    rows: List[Row] = []
    max_levels = 0
    for name in datasets:
        engine = ds.engine_for(name)
        workload = _workload_for(engine, c_len, k, num_queries, seed=53)
        agg = _run(engine, workload, "SK")
        row: Row = {"dataset": name}
        for level, count in enumerate(agg.per_level_examined):
            row[f"level_{level}"] = count / max(1, agg.num_queries)
        max_levels = max(max_levels, len(agg.per_level_examined))
        rows.append(row)
    columns = ["dataset"] + [f"level_{i}" for i in range(max_levels)]
    return rows, columns


# ----------------------------------------------------------------------
# Figure 6 — zipfian category skew on FLA
# ----------------------------------------------------------------------

def fig6_zipfian(
    factors: Sequence[float] = ds.ZIPF_SWEEP,
    methods: Sequence[str] = ("KPNE", "PK", "SK"),
    num_queries: Optional[int] = None,
    k: int = ds.DEFAULT_K,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """Query time under zipfian category sizes (larger f = less skew)."""
    rows: List[Row] = []
    for f in factors:
        engine = ds.fla_engine_with_categories(zipf_factor=f)
        workload = _workload_for(engine, c_len, k, num_queries, seed=59)
        for label in methods:
            agg = _run(engine, workload, label)
            rows.append(_agg_row(agg, dataset="FLA", zipf_factor=f))
    return rows, ["dataset", "zipf_factor", "method", "time_ms",
                  "examined_routes", "nn_queries", "unfinished"]


# ----------------------------------------------------------------------
# Figure 7 — OSR queries (k = 1) against GSP
# ----------------------------------------------------------------------

def fig7_osr(
    datasets: Sequence[str] = ALL_DATASETS,
    methods: Sequence[str] = ALL_METHODS + ("GSP", "GSP-CH"),
    num_queries: Optional[int] = None,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """k = 1 comparison including the GSP state of the art."""
    rows: List[Row] = []
    for name in datasets:
        engine = ds.engine_for(name)
        workload = _workload_for(engine, c_len, 1, num_queries, seed=61)
        for label in methods:
            agg = _run(engine, workload, label)
            rows.append(_agg_row(agg, dataset=name))
    return rows, ["dataset", "method", "time_ms", "examined_routes",
                  "nn_queries", "unfinished"]


# ----------------------------------------------------------------------
# Table X — run-time distribution on FLA
# ----------------------------------------------------------------------

def table10_breakdown(
    methods: Sequence[str] = ("PK", "SK"),
    num_queries: Optional[int] = None,
    k: int = ds.DEFAULT_K,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """NN / queue / estimation / other time split per method on FLA."""
    engine = ds.engine_for("FLA")
    workload = _workload_for(engine, c_len, k, num_queries, seed=67)
    rows: List[Row] = []
    for label in methods:
        # The breakdown is the one figure that needs the per-operation
        # timers, so it opts into profile mode explicitly.
        agg = _run(engine, workload, label, profile=True)
        n = max(1, agg.num_queries)
        overall = 1000.0 * agg.total_time_s / n
        nn = 1000.0 * agg.nn_time_s / n
        queue = 1000.0 * agg.queue_time_s / n
        est = 1000.0 * agg.estimation_time_s / n
        load = 1000.0 * agg.index_load_time_s / n
        rows.append({
            "method": label,
            "overall_ms": overall,
            "nn_query_ms": nn,
            "queue_ms": queue,
            "estimation_ms": est,
            "other_ms": max(0.0, overall - nn - queue - est - load),
        })
    return rows, ["method", "overall_ms", "nn_query_ms", "queue_ms",
                  "estimation_ms", "other_ms"]


# ----------------------------------------------------------------------
# Ablation — the design choices DESIGN.md calls out
# ----------------------------------------------------------------------

def ablation_design_choices(
    num_queries: Optional[int] = None,
    k: int = ds.DEFAULT_K,
    c_len: int = ds.DEFAULT_C_LEN,
) -> Tuple[List[Row], List[str]]:
    """Isolate each ingredient on the FLA analogue.

    Rows: dominance only (PK), heuristic only (SK-NODOM), both (SK),
    neither (KPNE); plus PK across NN backends (inverted-label FindNN vs
    resumable vs restarting Dijkstra).
    """
    engine = ds.engine_for("FLA")
    workload = _workload_for(engine, c_len, k, num_queries, seed=71)
    combos = [
        ("neither (KPNE)", "KPNE", "label"),
        ("dominance only (PK)", "PK", "label"),
        ("heuristic only (SK-NODOM)", "SK-NODOM", "label"),
        ("both (SK)", "SK", "label"),
        ("PK + FindNN", "PK", "label"),
        ("PK + resumable Dijkstra", "PK", "dij-resume"),
        ("PK + restarting Dijkstra", "PK", "dij-restart"),
    ]
    rows: List[Row] = []
    for label, method, nn_backend in combos:
        agg = MethodAggregate(label=label)
        options = QueryOptions(method=method, nn_backend=nn_backend,
                               budget=DEFAULT_EXAMINED_BUDGET,
                               time_budget_s=DEFAULT_TIME_BUDGET_S)
        for query in workload:
            result = engine.run(query, options)
            agg.add(result.stats)
        rows.append(_agg_row(agg, variant=label))
    return rows, ["variant", "time_ms", "examined_routes", "nn_queries", "unfinished"]
