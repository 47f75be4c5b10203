"""The paper's evaluation (Sec. V-B) as one table.

Each :class:`Figure` row of :data:`FIGURES` is one figure or table of the
paper: its workload (datasets × sweep × methods, seeded), its columns, the
shape the paper argues from it (``claim``) and that shape as checks
(``expect``).  :func:`run_figure` regenerates one row's data,
:func:`record` runs all of them once and renders ``EXPERIMENTS.md``.

Absolute numbers differ from the paper (pure-Python engine, scaled
analogues); the *shapes* — who wins, by what order, where INF appears —
are the reproduction targets.  CI gates the checks over deterministic
counters (``examined_routes``, ``nn_queries``, ``unfinished``) against the
committed record; a check over a wall-clock column is only reported.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, replace
from itertools import takewhile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import KOSREngine
from repro.experiments import datasets as ds
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    DEFAULT_TIME_BUDGET_S,
    MethodAggregate,
    run_workload,
)
from repro.experiments.workload import random_queries
from repro.graph import generators

ALL_DATASETS: Tuple[str, ...] = ("CAL", "NYC", "COL", "FLA", "G+")
FAST_METHODS: Tuple[str, ...] = ("KPNE", "PK", "SK", "SK-DB")
DIJ_METHODS: Tuple[str, ...] = ("KPNE-Dij", "PK-Dij", "SK-Dij")
ALL_METHODS: Tuple[str, ...] = DIJ_METHODS + FAST_METHODS

#: tighter wall budget for the deliberately slow *-Dij variants
DIJ_TIME_BUDGET_S = 3.0

Row = Dict[str, object]
Check = tuple  #: (sentence, predicate over the rows[, why it differs at CI scale])

_EXAMINED, _NN, _TIME = "examined_routes", "nn_queries", "time_ms"
_SWEEP_COLUMNS = ("method", _TIME, _EXAMINED, _NN, "unfinished")


@dataclass(frozen=True)
class Figure:
    """One figure/table of the paper: workload, projection, claim, checks."""

    name: str
    title: str
    claim: str
    seed: int = 0
    datasets: Tuple[str, ...] = ALL_DATASETS
    #: legend labels of :data:`runner.METHOD_LEGEND`; none = Table IX
    methods: Tuple[str, ...] = FAST_METHODS
    #: ``(axis, values)``; the axis is ``k``, ``c_len``, ``category_size``
    #: (fractions of |V|), ``zipf_factor`` or ``V`` (dataset scales)
    sweep: Optional[Tuple[str, Tuple]] = None
    k: int = ds.DEFAULT_K
    c_len: int = ds.DEFAULT_C_LEN
    profile: bool = False
    #: the figure whose rows these are; :func:`record` runs them once
    inferred_from: Optional[str] = None
    #: extra columns read off each method's aggregate
    view: Optional[Callable[[MethodAggregate], Row]] = None
    #: default: dataset, sweep axis, method, metrics; ``x*`` = keys prefixed ``x``
    columns: Optional[Tuple[str, ...]] = None
    expect: Tuple[Check, ...] = ()


# ---- Checks: a sentence and the predicate it states, from the same arguments

def _check(col: str, sentence: str, pred: Callable[[List[Row]], bool]) -> Check:
    pred.timing = col.endswith(("_ms", "_s"))
    return sentence, pred


def _pairs(rows: List[Row], a: str, b: str) -> List[Tuple[Row, Row]]:
    """Rows of methods ``a`` and ``b`` per setting where both finished."""
    settings: Dict[tuple, Dict[str, Row]] = {}
    for row in rows:
        # a row's setting is what _sweep wrote before its "method"
        key = tuple(row[c] for c in takewhile("method".__ne__, row))
        settings.setdefault(key, {})[row["method"]] = row
    return [(m[a], m[b]) for m in settings.values() if a in m and b in m
            and not (m[a]["unfinished"] or m[b]["unfinished"])]


def _series(rows: List[Row], a: str, b: str) -> List[List[Tuple[Row, Row]]]:
    """:func:`_pairs` in sweep order, one series of ≥ 2 points per dataset."""
    series: Dict[object, list] = {}
    for pair in _pairs(rows, a, b):
        series.setdefault(pair[0]["dataset"], []).append(pair)
    return [s for s in series.values() if len(s) > 1]


def _growth(series: List[Tuple[Row, Row]], side: int, col: str) -> float:
    return series[-1][side][col] / max(series[0][side][col], 1e-9)


def finishes(*methods: str) -> Check:
    return _check("unfinished", f"{', '.join(methods)} finish at every setting",
                  lambda rows: not any(r["unfinished"] for r in rows
                                       if r["method"] in methods))


def at_most(col: str, a: str, b: str, slack: float = 1.0) -> Check:
    bound = b if slack == 1.0 else f"{slack} × {b}"
    return _check(col, f"{a} ≤ {bound} in {col} wherever both finish",
                  lambda rows: all(ra[col] <= rb[col] * slack
                                   for ra, rb in _pairs(rows, a, b)))


def same(col: str, a: str, b: str) -> Check:
    return _check(col, f"{a} = {b} in {col} wherever both finish",
                  lambda rows: all(ra[col] == rb[col]
                                   for ra, rb in _pairs(rows, a, b)))


def grows(col: str, m: str) -> Check:
    return _check(col, f"{m}'s {col} grows over the sweep",
                  lambda rows: all(_growth(s, 0, col) > 1.0
                                   for s in _series(rows, m, m)))


def flatter(col: str, a: str, b: str) -> Check:
    return _check(col, f"{a}'s {col} grows by a smaller factor than {b}'s",
                  lambda rows: all(_growth(s, 0, col) < _growth(s, 1, col)
                                   for s in _series(rows, a, b)))


def sublinear(col: str, m: str, axis: str) -> Check:
    return _check(col, f"{m}'s {col} grows by a smaller factor than {axis}",
                  lambda rows: all(_growth(s, 0, col) < _growth(s, 0, axis)
                                   for s in _series(rows, m, m)))


def _twins(col: str) -> Tuple[Check, ...]:
    """Same algorithm, other oracle: a *-Dij bar repeats its twin's count."""
    return tuple(same(col, f"{m}-Dij", m) for m in ("KPNE", "PK", "SK"))


def _ordered_by_size(col: str, value: Callable[[Row], float]) -> Check:
    def pred(rows: List[Row]) -> bool:
        values = [value(r) for r in sorted(rows, key=lambda r: r["V"])]
        return values == sorted(values)
    return _check(col, f"{col} grows with |V|", pred)


def _levels_of(row: Row) -> List[float]:
    return [v for c, v in row.items() if c.startswith("level_")]


# ---- Views: extra columns off a method's aggregate

def _levels(agg: MethodAggregate) -> Row:
    """Fig. 5: mean examined routes per category level."""
    return {f"level_{i}": count / max(1, agg.num_queries)
            for i, count in enumerate(agg.per_level_examined)}


def _breakdown(agg: MethodAggregate) -> Row:
    """Table X: NN / queue / estimation / other split, ms per query."""
    per_query = 1000.0 / max(1, agg.num_queries)
    overall = per_query * agg.total_time_s
    nn = per_query * agg.nn_time_s
    queue = per_query * agg.queue_time_s
    est = per_query * agg.estimation_time_s
    load = per_query * agg.index_load_time_s
    return {"overall_ms": overall, "nn_query_ms": nn, "queue_ms": queue,
            "estimation_ms": est,
            "other_ms": max(0.0, overall - nn - queue - est - load)}


_BREAKDOWN_PARTS = ("nn_query_ms", "queue_ms", "estimation_ms", "other_ms")


# ---- The table

_SK_FINISHES = finishes("SK", "SK-DB")
_SK_LE_PK = at_most(_EXAMINED, "SK", "PK", 1.05)
_K_SHAPE = (_SK_FINISHES, _SK_LE_PK, grows(_EXAMINED, "SK"),
            sublinear(_EXAMINED, "SK", "k"), sublinear(_EXAMINED, "PK", "k"))

_FIG3A = Figure(
    name="fig3a", title="Figure 3(a) — query run-time (ms)", seed=31,
    claim="SK fastest everywhere; PK beats KPNE; every *-Dij variant is orders "
          "of magnitude slower than its FindNN twin (or INF); KPNE is INF on the "
          "larger graphs; SK-DB trails SK but beats PK.",
    methods=ALL_METHODS, columns=("dataset", "method", _TIME, "unfinished"),
    expect=(
        finishes("PK", "SK", "SK-DB"),
        at_most(_TIME, "SK", "PK") + (
            "where the heuristic prunes little (fig3b: SK examines 0.8× PK's "
            "routes on NYC and G+, against 0.26× on FLA) SK's extra dis(·, t) "
            "evaluations (fig3c) cost what the pruning saves: the two run "
            "within ±25 % and the order flips between runs",),
        at_most(_TIME, "PK", "KPNE"),
        *(at_most(_TIME, m, f"{m}-Dij") for m in ("KPNE", "PK", "SK")),
    ),
)

_EFFECT_K = Figure(
    name="fig3d", title="Figure 3(d) — effect of k, FLA", seed=37,
    claim="All methods scale gently in k (top-k routes share most of the "
          "top-1 searching space); SK and SK-DB dominate.",
    datasets=("FLA",), sweep=("k", ds.K_SWEEP),
    expect=_K_SHAPE,
)

_EFFECT_C = Figure(
    name="fig3f", title="Figure 3(f) — effect of |C|, FLA", seed=43,
    claim="KPNE's space explodes exponentially in |C| (INF beyond small |C|); "
          "PK and SK grow polynomially, with SK growing the slowest.",
    datasets=("FLA",), sweep=("c_len", ds.C_LEN_SWEEP),
    expect=(
        _SK_FINISHES, _SK_LE_PK, grows(_EXAMINED, "SK"),
        flatter(_EXAMINED, "PK", "KPNE"),
        flatter(_EXAMINED, "SK", "PK") + (
            "SK starts at its floor (FLA: 79 routes for k = 30 at |C| = 2, 78 at "
            "scale 1.0, PK 515; CAL 40 vs 66), so equal growth is a larger "
            "factor; it stays below PK at every |C|. Its margin does narrow (FLA "
            "6.5× → 1.9×, at scale 1.0 24.6× → 11.5×): each added category "
            "loosens dis(v, t) (FLA: best cost / dis(s, t) 1.5 → 3.3)",),
    ),
)

FIGURES: Dict[str, Figure] = {fig.name: fig for fig in (
    Figure(
        name="table9", title="Table IX — preprocessing (scaled analogues)",
        claim="Label build time and average label size grow with graph size; "
              "the inverted index is much cheaper to build than the labels.",
        methods=(),
        columns=("graph", "V", "E", "label_build_s", "avg_Lin", "avg_Lout",
                 "label_MB", "il_build_s", "avg_IL_Ci", "avg_IL_v", "il_MB"),
        expect=(
            _ordered_by_size("avg_Lin + avg_Lout",
                             lambda r: r["avg_Lin"] + r["avg_Lout"]),
            _ordered_by_size("label_build_s", lambda r: r["label_build_s"]),
            _check("il_build_s", "il_build_s < label_build_s on every graph",
                   lambda rows: all(r["il_build_s"] < r["label_build_s"]
                                    for r in rows)),
        ),
    ),
    _FIG3A,
    replace(
        _FIG3A, name="fig3b", title="Figure 3(b) — examined routes",
        inferred_from="fig3a",
        claim="SK examines (far) fewer routes than PK, which examines fewer than "
              "KPNE; the index or oracle behind a method does not change the count.",
        columns=("dataset", "method", _EXAMINED, "unfinished"),
        expect=(_SK_LE_PK, at_most(_EXAMINED, "PK", "KPNE"),
                same(_EXAMINED, "SK-DB", "SK"), *_twins(_EXAMINED)),
    ),
    replace(
        _FIG3A, name="fig3c", title="Figure 3(c) — NN queries",
        inferred_from="fig3a",
        claim="SK issues fewer NN queries than PK despite several plain-NN fetches "
              "per estimated neighbour; *-Dij counts equal their FindNN twins.",
        columns=("dataset", "method", _NN, "unfinished"),
        expect=(at_most(_NN, "SK", "PK") + (
                    "categories hold 3-25 members at this scale, so both "
                    "methods drain nearly every (member, next category) stream "
                    "(plain-NN fetches on CAL: PK 194.0, SK 194.3) and SK adds "
                    "its dis(·, t) evaluations, which the counter includes (44 "
                    "vs 5); on FLA SK saves 140 fetches and the check holds",),
                same(_NN, "SK-DB", "SK"), *_twins(_NN)),
    ),
    _EFFECT_K,
    replace(_EFFECT_K, name="fig3e", title="Figure 3(e) — effect of k, CAL",
            datasets=("CAL",)),
    _EFFECT_C,
    replace(_EFFECT_C, name="fig3g", title="Figure 3(g) — effect of |C|, CAL",
            datasets=("CAL",)),
    Figure(
        name="fig3h", title="Figure 3(h) — effect of |Ci|, FLA", seed=47,
        claim="PK and SK degrade as |Ci| grows (Lemma 3's M and N grow); SK "
              "degrades more slowly, so its advantage widens.",
        datasets=("FLA",), sweep=("category_size", ds.CAT_FRACTION_SWEEP),
            expect=(_SK_FINISHES, _SK_LE_PK, grows(_EXAMINED, "PK"),
                flatter(_EXAMINED, "SK", "PK")),
    ),
    Figure(
        name="fig4", title="Figure 4 — small k, CAL + FLA", seed=41,
        claim="Query time changes only slightly as k grows — finding the "
              "next-best routes reuses the first route's searching space.",
        datasets=("CAL", "FLA"), sweep=("k", (1, 2, 3, 4, 5, 10)),
        expect=_K_SHAPE,
    ),
    Figure(
        name="fig5", title="Figure 5 — SK examined routes per category level",
        seed=53,
        claim="Examined routes rise over the first levels (loose estimates), then "
              "shrink as estimates tighten; the final level examines ~k routes.",
        methods=("SK",), view=_levels, columns=("dataset", "level_*"),
        expect=(
            finishes("SK"),
            _check("level", "the peak lies strictly inside the sequence",
                   lambda rows: all(
                       0 < _levels_of(r).index(max(_levels_of(r)))
                       < len(_levels_of(r)) - 1 for r in rows)),
            _check("level", "the last level examines exactly k routes per query",
                   lambda rows: all(_levels_of(r)[-1] == ds.DEFAULT_K
                                    for r in rows if not r["unfinished"])),
        ),
    ),
    Figure(
        name="fig6", title="Figure 6 — zipfian skew, FLA", seed=59,
        claim="PK slows down as f grows (less skew: consecutive categories are "
              "both big); SK filters far more and stays flat-ish; KPNE is INF.",
        datasets=("FLA",), methods=("KPNE", "PK", "SK"),
        sweep=("zipf_factor", ds.ZIPF_SWEEP),
            expect=(finishes("PK", "SK"), _SK_LE_PK, grows(_EXAMINED, "PK"),
                flatter(_EXAMINED, "SK", "PK")),
    ),
    Figure(
        name="fig7", title="Figure 7 — OSR (k = 1) incl. GSP", seed=61, k=1,
        claim="GSP beats KPNE and the *-Dij variants; PK beats GSP on small-"
              "category graphs (CAL/NYC) only; SK (and SK-DB) beat GSP everywhere.",
        methods=ALL_METHODS + ("GSP", "GSP-CH"),
        expect=(
            finishes("SK", "GSP"), same(_EXAMINED, "GSP-CH", "GSP"),
            *_twins(_EXAMINED),
            at_most(_TIME, "SK", "GSP") + (
                "differs on COL and FLA (18-25 members per category): SK's "
                "1300-1500 NN queries, each a label merge in pure Python, cost "
                "what GSP's six Dijkstra passes over ≤ 1024 vertices do. Both "
                "grow linearly in |V| at |C| = 6 (FLA 400 → 4225 vertices: SK "
                "4.2 → 68.5 ms, GSP 4.9 → 53.1 ms), so a larger analogue does "
                "not flip it; at |C| = 4 SK wins at every size (`scaling`)",),
            *(at_most(_TIME, "GSP", m) for m in DIJ_METHODS),
            at_most(_TIME, "GSP-CH", "GSP") + (
                "the pure-Python CH many-to-many reads 0.3-10 s/query against "
                "GSP's 4-20 ms, and neither honours `time_budget_s` (a GSP-CH "
                "query on G+ runs 8-13 s under the 5 s budget and reports "
                "finished); recorded, not fixed here (`core/gsp.py`)",),
        ),
    ),
    Figure(
        name="table10", title="Table X — run-time distribution on FLA (ms/query)",
        seed=67,
        claim="NN-query time dominates both methods; PK spends more on the "
              "priority queue than SK; only SK pays (small) estimation time.",
        datasets=("FLA",), methods=("PK", "SK"), profile=True, view=_breakdown,
        columns=("method", "overall_ms") + _BREAKDOWN_PARTS,
        expect=(
            _check("estimation_ms", "PK's estimation_ms is 0.0 exactly, SK's is not",
                   lambda rows: [r["estimation_ms"] > 0.0 for r in rows]
                   == [False, True]),
            _check("nn_query_ms", "nn_query_ms is the largest part for both methods",
                   lambda rows: all(r["nn_query_ms"] == max(
                       r[c] for c in _BREAKDOWN_PARTS) for r in rows)),
            at_most("queue_ms", "SK", "PK"),
        ),
    ),
    Figure(
        name="ablation", title="Ablation — dominance, heuristic, NN oracle (FLA)",
        seed=71,
        claim="Dominance (PK) and the heuristic (SK-NODOM) each help alone, SK "
              "examines the fewest routes; FindNN beats the resumable Dijkstra "
              "cursor, which beats the paper's restarting Dijkstra.",
        datasets=("FLA",),
        methods=("KPNE", "PK", "SK-NODOM", "SK", "PK-DijResume", "PK-Dij"),
        columns=_SWEEP_COLUMNS,
        expect=(
            _SK_LE_PK, at_most(_EXAMINED, "PK", "KPNE"),
            at_most(_EXAMINED, "SK-NODOM", "KPNE"),
            at_most(_EXAMINED, "SK", "SK-NODOM"),
            same(_EXAMINED, "PK-DijResume", "PK"), same(_EXAMINED, "PK-Dij", "PK"),
            at_most(_TIME, "PK", "PK-DijResume"),
            at_most(_TIME, "PK-DijResume", "PK-Dij"),
        ),
    ),
    Figure(
        name="scaling", title="Graph size — SK vs GSP (k = 1, fixed |Ci|/|V|)",
        seed=83, k=1, c_len=4,
        claim="GSP's run-time depends on the graph size, SK's does not (Fig. 7's "
              "discussion): GSP settles the whole graph per transition.",
        datasets=("FLA",), methods=("SK", "GSP"), sweep=("V", (0.1, 0.2, 0.35)),
        columns=("V", "method", _TIME, _EXAMINED),
        expect=(grows(_EXAMINED, "GSP"), flatter(_EXAMINED, "SK", "GSP"),
                flatter(_TIME, "SK", "GSP")),
    ),
)}


# ---- The runner

def _preprocessing(fig: Figure, scale: float) -> List[Row]:
    """Table IX: label + inverted-index construction statistics per graph."""
    rows: List[Row] = []
    for name in fig.datasets:
        graph = generators.dataset_by_name(name, scale=scale)
        p = KOSREngine.build(graph, name=name).preprocessing
        rows.append({
            "graph": name, "V": p.num_vertices, "E": p.num_edges,
            "label_build_s": p.label_build_seconds,
            "avg_Lin": p.avg_lin, "avg_Lout": p.avg_lout,
            "label_MB": p.label_bytes / 1e6,
            "il_build_s": p.inverted_build_seconds,
            "avg_IL_Ci": p.avg_il_per_category,
            "avg_IL_v": p.avg_il_list_length,
            "il_MB": p.inverted_bytes / 1e6,
        })
    return rows


def _sweep(fig: Figure, scale: float, queries: int) -> List[Row]:
    """Run dataset × sweep value × method, every method of a setting on the
    same workload: the slow ``*-Dij`` oracles are bounded by their time
    budget and the runner's stop at the first unfinished query."""
    axis, values = fig.sweep or (None, (None,))
    rows: List[Row] = []
    for name in fig.datasets:
        for value in values:
            setting = {"k": fig.k, "c_len": fig.c_len}
            if axis:
                setting[axis] = value
            if axis == "category_size":
                engine = ds.fla_engine_with_categories(scale, category_fraction=value)
                setting[axis] = max(2, int(value * engine.graph.num_vertices))
            elif axis == "zipf_factor":
                engine = ds.fla_engine_with_categories(scale, zipf_factor=value)
            elif axis == "V":
                engine = ds.engine_for(name, value)
                setting[axis] = engine.graph.num_vertices
            else:
                engine = ds.engine_for(name, scale)
            workload = random_queries(engine.graph, queries, setting["c_len"],
                                      setting["k"], seed=fig.seed)
            for label in fig.methods:
                agg = run_workload(
                    engine, workload, label, profile=fig.profile,
                    time_budget_s=(DIJ_TIME_BUDGET_S if label.endswith("-Dij")
                                   else DEFAULT_TIME_BUDGET_S))
                rows.append({
                    "dataset": name, **({axis: setting[axis]} if axis else {}),
                    "method": label, _TIME: agg.mean_time_ms,
                    _EXAMINED: agg.mean_examined, _NN: agg.mean_nn_queries,
                    "unfinished": agg.unfinished,
                    **(fig.view(agg) if fig.view else {})})
    return rows


def _columns(fig: Figure, rows: List[Row]) -> List[str]:
    keys = list(dict.fromkeys(key for row in rows for key in row))
    columns = fig.columns or ("dataset", *(fig.sweep or ())[:1], *_SWEEP_COLUMNS)
    return [key for col in columns for key in (
        [k for k in keys if k.startswith(col[:-1])] if col.endswith("*") else [col])]


def run_figure(name: str, *, scale: Optional[float] = None,
               queries: Optional[int] = None,
               **overrides) -> Tuple[List[Row], List[str]]:
    """Regenerate one figure's ``(rows, columns)``; ``scale`` / ``queries``
    default to ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_QUERIES`` and
    ``overrides`` replace :class:`Figure` fields (``datasets=("CAL",)``)."""
    fig = replace(FIGURES[name], **overrides)
    scale = ds.BENCH_SCALE if scale is None else scale
    queries = ds.BENCH_QUERIES if queries is None else queries
    rows = _sweep(fig, scale, queries) if fig.methods else _preprocessing(fig, scale)
    return rows, _columns(fig, rows)


def verdicts(fig: Figure, rows: List[Row]) -> List[str]:
    """``- <name>: <sentence> — holds|DIFFERS`` per check, ``why`` under a DIFFERS."""
    lines = []
    for sentence, pred, *why in fig.expect:
        name = f"{fig.name} [timing]" if pred.timing else fig.name
        holds = pred(rows)
        lines.append(f"- {name}: {sentence} — {'holds' if holds else 'DIFFERS'}")
        if why and not holds:
            lines.append(f"  - why: {why[0]}")
    return lines


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def record(names: Optional[Sequence[str]] = None, *, scale: Optional[float] = None,
           queries: Optional[int] = None) -> str:
    """Run every figure once and render the ``EXPERIMENTS.md`` text."""
    scale = ds.BENCH_SCALE if scale is None else scale
    queries = ds.BENCH_QUERIES if queries is None else queries
    out = [
        "# EXPERIMENTS — the paper's evaluation, regenerated", "",
        f"Generated by `python -m repro.cli figure --name all --scale {scale} "
        f"--queries {queries}` at commit `{_commit()}`; do not edit.  Per "
        "figure: the paper's claim, one verdict line per check (`[timing]` "
        "checks read a wall clock and are not gated by CI), the table.", "",
    ]
    swept: Dict[str, List[Row]] = {}
    for name in names or FIGURES:
        fig = FIGURES[name]
        source = fig.inferred_from or name
        if source not in swept:
            swept[source], _ = run_figure(source, scale=scale, queries=queries)
        rows = swept[source]
        out += [f"## {fig.title}", "", f"Paper: {fig.claim}", "", *verdicts(fig, rows),
                "", "```", format_table(rows, _columns(fig, rows)), "```", ""]
    return "\n".join(out)
