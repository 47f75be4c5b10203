"""Command-line interface for the KOSR reproduction.

Subcommands::

    python -m repro.cli generate    --dataset FLA --scale 0.2 --out graph.json
    python -m repro.cli info        --graph graph.json
    python -m repro.cli index build --graph graph.json --out index.rpli
    python -m repro.cli query       --graph graph.json --source 0 --target 99 \
                                    --categories cat0,cat3 --k 5 --method SK
    python -m repro.cli batch       --graph graph.json --workload wl.json
    python -m repro.cli async-batch --graph graph.json --workload wl.json
    python -m repro.cli serve       --graph graph.json --port 8765
    python -m repro.cli metrics     --port 8765
    python -m repro.cli figure      --name fig3a [--scale 0.2] [--queries 3]

``generate`` writes a dataset analogue; ``query`` answers a KOSR query
(``--repeat N`` re-runs it through the warm session cache and reports
cold- vs warm-cache latency); ``batch``
executes a JSON workload through the query service's grouped batch path;
``async-batch`` drives the same workload through the asyncio front door
(coalescing + backpressure); ``serve`` runs the JSON-lines TCP server
(``--metrics`` turns on the observability registry — see
``docs/observability.md``); ``metrics`` probes a running server with
``{"metrics": true}`` and pretty-prints the fleet-merged snapshot;
``figure`` regenerates one of the paper's tables/figures.

``batch``, ``async-batch``, and ``serve`` all accept ``--shards N`` to
execute over N category-partitioned worker processes (see
:mod:`repro.shard`) — answers stay bit-identical to the in-process
engine while the search itself runs on separate cores.

``index build`` writes the single-file packed index (labels + inverted
lists, RPLI format); ``query``/``batch``/``async-batch``/``serve``
accept ``--mmap-index FILE`` to attach to it read-only via ``mmap``
instead of building — every process that attaches shares one physical
copy of the index through the OS page cache.  That file is the one
persisted index: ``--method SK-DB`` reads it per query, so SK-DB needs
``--mmap-index`` (with or without ``--shards``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.api import QueryOptions, QueryRequest
from repro.core.engine import KOSREngine, METHODS, NN_BACKENDS
from repro.experiments import figures as figure_defs
from repro.experiments.reporting import format_table
from repro.graph import generators
from repro.graph.io import load_json, save_json
from repro.service import QueryService
from repro.service.cache import CACHE_KINDS

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Top-k optimal sequenced routes (ICDE 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a dataset analogue as JSON")
    gen.add_argument("--dataset", required=True,
                     choices=list(generators.DATASET_NAMES))
    gen.add_argument("--scale", type=float, default=0.35)
    gen.add_argument("--out", required=True)

    info = sub.add_parser("info", help="summarise a graph file")
    info.add_argument("--graph", required=True)

    idx = sub.add_parser(
        "index", help="single-file packed index (mmap-shareable)")
    idx_sub = idx.add_subparsers(dest="index_command", required=True)
    idx_build = idx_sub.add_parser(
        "build", help="build the labels once and write one .rpli file "
                      "that any number of processes can mmap-attach")
    idx_build.add_argument("--graph", required=True)
    idx_build.add_argument("--out", required=True, help="index file (.rpli)")
    idx_build.add_argument("--no-inverted", action="store_true",
                           help="write only the vertex labels; attached "
                                "engines rebuild inverted lists per category")

    qry = sub.add_parser("query", help="answer a KOSR query")
    qry.add_argument("--graph", required=True)
    qry.add_argument("--mmap-index", metavar="FILE",
                     help="attach read-only to an `index build` file "
                          "instead of building (zero-copy, page-cache "
                          "shared across processes)")
    qry.add_argument("--source", type=int, required=True)
    qry.add_argument("--target", type=int, required=True)
    qry.add_argument("--categories", required=True,
                     help="comma-separated names or ids, in visit order")
    qry.add_argument("--k", type=int, default=1)
    qry.add_argument("--method", default="SK", choices=list(METHODS))
    qry.add_argument("--nn-backend", default="label", choices=list(NN_BACKENDS))
    qry.add_argument("--overlay-ratio", type=float, default=None,
                     help="fraction of live inverted entries the delta "
                          "overlay may reach before a category's decoded "
                          "runs are compacted")
    qry.add_argument("--budget", type=int, default=None,
                     help="examined-route cap (reports INF when hit)")
    qry.add_argument("--routes", action="store_true",
                     help="restore actual routes, not just witnesses")
    qry.add_argument("--profile", action="store_true",
                     help="collect and print the Table X time breakdown")
    qry.add_argument("--repeat", type=int, default=1, metavar="N",
                     help="run the query N times through the warm session "
                          "cache and report cold- vs warm-cache latency")

    def add_workload_args(p) -> None:
        """Arguments shared by the `batch` and `async-batch` commands."""
        p.add_argument("--graph", required=True)
        p.add_argument("--mmap-index", metavar="FILE",
                       help="attach read-only to an `index build` file "
                            "(workers mmap-share one physical copy)")
        p.add_argument("--workload", required=True,
                       help="JSON workload file, or '-' for stdin: a list of "
                            '{"source", "target", "categories", "k"?, '
                            '"method"?} records (or {"queries": [...]})')
        p.add_argument("--method", default="SK", choices=list(METHODS),
                       help="default method for records that do not name one")
        p.add_argument("--nn-backend", default="label",
                       choices=list(NN_BACKENDS))
        p.add_argument("--overlay-ratio", type=float, default=None)
        p.add_argument("--budget", type=int, default=None,
                       help="per-query examined-route cap")
        p.add_argument("--time-budget", type=float, default=None,
                       help="per-query wall-time cap in seconds")
        p.add_argument("--max-dest-kernels", type=int, default=None,
                       help="LRU cap on warm per-target dis(.,t) kernels")
        p.add_argument("--max-finders", type=int, default=None,
                       help="LRU cap on warm FindNN cursors per session")
        p.add_argument("--shards", type=int, default=None, metavar="N",
                       help="partition categories across N worker processes "
                            "(true multi-core parallelism; answers stay "
                            "bit-identical to an unsharded engine)")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="emit per-query stats as JSON instead of text")

    bat = sub.add_parser(
        "batch", help="answer a JSON workload through the batch service")
    add_workload_args(bat)
    bat.add_argument("--cache-stats", action="store_true",
                     help="report session-cache hit/miss/eviction rates")

    abat = sub.add_parser(
        "async-batch",
        help="drive a JSON workload through the asyncio serving front door "
             "(request coalescing + bounded admission)")
    add_workload_args(abat)
    abat.add_argument("--max-inflight", type=int, default=4,
                      help="concurrently executing requests (thread pool)")
    abat.add_argument("--max-queue", type=int, default=None,
                      help="admission bound; overflowing requests are "
                           "rejected (default: unbounded)")
    abat.add_argument("--max-groups", type=int, default=None,
                      help="soft cap on live group workers (idle groups "
                           "are retired first)")
    abat.add_argument("--no-coalesce", action="store_true",
                      help="disable coalescing of identical requests")

    srv = sub.add_parser(
        "serve", help="run the JSON-lines TCP query server")
    srv.add_argument("--graph", required=True)
    srv.add_argument("--mmap-index", metavar="FILE",
                     help="attach read-only to an `index build` file "
                          "(workers mmap-share one physical copy)")
    srv.add_argument("--method", default="SK", choices=list(METHODS),
                     help="default method for requests that do not name one")
    srv.add_argument("--nn-backend", default="label", choices=list(NN_BACKENDS))
    srv.add_argument("--overlay-ratio", type=float, default=None)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8765)
    srv.add_argument("--max-inflight", type=int, default=4)
    srv.add_argument("--max-queue", type=int, default=256,
                     help="admission bound; overflowing requests receive an "
                          "overload response")
    srv.add_argument("--max-groups", type=int, default=512,
                     help="soft cap on live group workers (idle groups "
                          "are retired first)")
    srv.add_argument("--shards", type=int, default=None, metavar="N",
                     help="serve from N category-partitioned worker "
                          "processes instead of the in-process engine")
    srv.add_argument("--metrics", action="store_true",
                     help="enable the observability registry (counters, "
                          "gauges, latency histograms) in this process and "
                          "every shard worker; probe with `cli metrics` or "
                          'a {"metrics": true} request')

    met = sub.add_parser(
        "metrics", help="probe a running server's metrics snapshot")
    met.add_argument("--host", default="127.0.0.1")
    met.add_argument("--port", type=int, default=8765)
    met.add_argument("--json", action="store_true", dest="as_json",
                     help="print the raw snapshot JSON instead of text")
    met.add_argument("--stats", action="store_true",
                     help='probe {"stats": true} instead: serving/cache '
                          "counters plus the index epoch and per-category "
                          "version counters (works without --metrics)")

    fig = sub.add_parser("figure", help="regenerate a paper table/figure")
    fig.add_argument("--name", required=True,
                     choices=sorted(figure_defs.FIGURES) + ["all"],
                     help="one figure, or 'all': every figure once, as the "
                          "EXPERIMENTS.md record")
    fig.add_argument("--scale", type=float, default=None)
    fig.add_argument("--queries", type=int, default=None)
    fig.add_argument("--chart", action="store_true",
                     help="render an ASCII chart in the paper's style")
    return parser


def _load_graph(path: str):
    graph = load_json(path)
    if graph.num_vertices == 0:
        raise SystemExit(f"{path}: empty graph")
    return graph


def cmd_generate(args) -> int:
    graph = generators.dataset_by_name(args.dataset, scale=args.scale)
    save_json(graph, args.out)
    print(f"wrote {args.dataset} analogue (|V|={graph.num_vertices}, "
          f"|E|={graph.num_edges}, {graph.num_categories} categories) "
          f"to {args.out}")
    return 0


def cmd_info(args) -> int:
    graph = _load_graph(args.graph)
    print(f"graph: {args.graph}")
    print(f"  vertices:   {graph.num_vertices}")
    print(f"  edges:      {graph.num_edges}")
    print(f"  categories: {graph.num_categories}")
    sizes = sorted(
        (graph.category_size(c), graph.category_name(c))
        for c in range(graph.num_categories)
    )
    if sizes:
        small, large = sizes[0], sizes[-1]
        print(f"  smallest category: {small[1]} ({small[0]} members)")
        print(f"  largest category:  {large[1]} ({large[0]} members)")
    return 0


def cmd_index(args) -> int:
    """Build the labels once and write the single-file packed index."""
    graph = _load_graph(args.graph)
    t0 = time.perf_counter()
    engine = KOSREngine.build(graph, name=Path(args.graph).stem)
    build_s = time.perf_counter() - t0
    p = engine.preprocessing
    print(f"labels built in {build_s:.2f}s: avg |Lin| = {p.avg_lin:.1f}, "
          f"avg |Lout| = {p.avg_lout:.1f}, {p.label_entries} entries")
    if args.no_inverted:
        written = engine.labels.save(args.out)
    else:
        written = engine.save_index(args.out)
    what = "labels only" if args.no_inverted else \
        f"labels + {graph.num_categories} inverted categories"
    print(f"index ({what}): {written / 1e6:.2f} MB -> {args.out}")
    print("attach with --mmap-index (query/batch/async-batch/serve); "
          "attaching processes share one physical copy via the page cache")
    return 0


def _require_index_file(args, methods) -> None:
    """Fail fast when SK-DB is asked for without the file it reads."""
    if "SK-DB" in methods and not args.mmap_index:
        raise SystemExit("SK-DB reads the saved index file: pass "
                         "--mmap-index FILE (run `index build` first)")


def _make_engine(args, needs_labels: Optional[bool] = None):
    graph = _load_graph(args.graph)
    overlay_ratio = getattr(args, "overlay_ratio", None)
    mmap_index = getattr(args, "mmap_index", None)
    if mmap_index:
        return KOSREngine.from_index_file(graph, mmap_index,
                                          name=Path(args.graph).stem,
                                          overlay_ratio=overlay_ratio)
    if needs_labels is None:
        needs_labels = (args.nn_backend == "label"
                        and args.method not in ("GSP", "GSP-CH"))
    if needs_labels:
        return KOSREngine.build(graph, overlay_ratio=overlay_ratio)
    return KOSREngine(graph)


def _sharding_requested(args) -> bool:
    """Any explicit ``--shards N`` engages the worker fleet.

    ``--shards 1`` is meaningful (a single worker process — the
    benchmark baseline, and isolation from the serving process), so only
    the absence of the flag selects the in-process engine; non-positive
    values are rejected in :func:`_make_sharded`.
    """
    return getattr(args, "shards", None) is not None


def _make_sharded(args, build_labels: bool = True):
    """Build the sharded service for ``--shards N`` commands.

    Loads the graph, attaches the ``--mmap-index`` file when given
    (building the labels once here otherwise), and spawns the worker
    fleet — the parent never materialises inverted indexes.
    ``build_labels=False`` skips the label build entirely (topology-only
    fleet) — the same startup-cost skip the unsharded path applies to
    workloads that never touch the label indexes.
    """
    from repro.shard import ShardedQueryService

    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    graph = _load_graph(args.graph)
    return ShardedQueryService(
        graph, args.shards,
        overlay_ratio=getattr(args, "overlay_ratio", None),
        max_dest_kernels=getattr(args, "max_dest_kernels", None),
        max_finders=getattr(args, "max_finders", None),
        build_labels=build_labels,
        index_path=getattr(args, "mmap_index", None),
    )


def _query_options(args) -> QueryOptions:
    """The typed options shared by the CLI's query-running commands."""
    return QueryOptions(
        method=args.method, nn_backend=args.nn_backend, budget=args.budget,
        time_budget_s=getattr(args, "time_budget", None),
        restore_routes=getattr(args, "routes", False),
        profile=getattr(args, "profile", False),
    )


def cmd_query(args) -> int:
    _require_index_file(args, {args.method})
    engine = _make_engine(args)
    categories: List = []
    for token in args.categories.split(","):
        token = token.strip()
        categories.append(int(token) if token.isdigit() else token)
    t0 = time.perf_counter()
    result = engine.query(args.source, args.target, categories, k=args.k,
                          options=_query_options(args))
    elapsed = time.perf_counter() - t0
    stats = result.stats
    if not stats.completed:
        print("INF (budget exhausted before the top-k set completed)")
    for rank, item in enumerate(result.results, 1):
        print(f"#{rank}  cost {item.cost:g}  witness "
              f"{' -> '.join(map(str, item.witness.vertices))}")
        if args.routes and item.route is not None:
            print(f"     route {' -> '.join(map(str, item.route.vertices))}")
    if not result.results:
        print("no feasible route")
    print(f"[{args.method}/{args.nn_backend}] {stats.examined_routes} examined, "
          f"{stats.nn_queries} NN queries, {elapsed * 1000:.2f} ms")
    if args.profile:
        print(f"  breakdown: nn {stats.nn_time * 1000:.2f} ms, "
              f"queue {stats.queue_time * 1000:.2f} ms, "
              f"estimation {stats.estimation_time * 1000:.2f} ms, "
              f"other {stats.other_time * 1000:.2f} ms")
    if args.repeat > 1:
        _report_repeats(engine, args, categories, result, elapsed)
    return 0 if stats.completed else 2


def _report_repeats(engine, args, categories, cold_result, cold_elapsed) -> None:
    """Re-run the query through the warm session cache (``--repeat N``).

    The first run above was cold (fresh finder + memos); the repeats go
    through ``engine.service``, so the second and later runs hit the
    session's warm FindNN streams and the per-target ``dis(·, t)``
    kernel.  Results and counters are asserted identical — only latency
    may change.
    """
    q = engine.make_query(args.source, args.target, categories, k=args.k)
    options = _query_options(args)
    service = engine.service
    warm_ms: List[float] = []
    for _ in range(args.repeat - 1):
        t0 = time.perf_counter()
        repeat = service.run(q, options)
        warm_ms.append((time.perf_counter() - t0) * 1000.0)
        if (repeat.witnesses != cold_result.witnesses
                or repeat.stats.nn_queries != cold_result.stats.nn_queries):
            raise SystemExit("warm-cache repeat diverged from the cold run")
    best = min(warm_ms)
    mean = sum(warm_ms) / len(warm_ms)
    cold_ms = cold_elapsed * 1000.0
    speedup = cold_ms / mean if mean > 0 else float("inf")
    print(f"repeat x{args.repeat}: cold {cold_ms:.2f} ms, "
          f"warm mean {mean:.2f} ms (best {best:.2f} ms), "
          f"speedup {speedup:.2f}x")
    cache = service.session.stats
    print(f"  session cache: {cache.finder_hits} finder hits, "
          f"{cache.dest_kernel_hits} dest-kernel hits")


def _load_workload_records(spec: str) -> List[dict]:
    """Parse the ``batch`` workload: a JSON list (or ``{"queries": [...]}``)."""
    raw = sys.stdin.read() if spec == "-" else Path(spec).read_text()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"workload is not valid JSON: {exc}")
    if isinstance(payload, dict):
        payload = payload.get("queries")
    if not isinstance(payload, list) or not payload:
        raise SystemExit("workload must be a non-empty JSON list of queries "
                         '(or {"queries": [...]})')
    for i, record in enumerate(payload):
        if not isinstance(record, dict) or not {"source", "target",
                                                "categories"} <= set(record):
            raise SystemExit(f"workload record {i} needs source/target/categories")
    return payload


def _prepare_workload(args):
    """Shared `batch`/`async-batch` setup: runner + per-record queries.

    Returns ``(runner, items)`` where ``runner`` is either an engine
    (in-process serving) or a :class:`~repro.shard.ShardedQueryService`
    (``--shards N``), and ``items`` is a list of
    ``(index, method, query)`` aligned with the workload records.  Fails
    fast — before any query runs — on unknown methods/backends and on
    SK-DB without an index file.
    """
    records = _load_workload_records(args.workload)
    methods = {record.get("method", args.method) for record in records}
    from repro.exceptions import QueryError
    from repro.service import resolve_plan

    _require_index_file(args, methods)
    sharded = _sharding_requested(args)
    # Label indexes are the dominant startup cost; skip the build when no
    # record's method will touch them (all-GSP workloads, Dijkstra
    # oracles) — on the sharded path the whole fleet skips it.
    needs_labels = (args.nn_backend == "label"
                    and any(m not in ("GSP", "GSP-CH") for m in methods))
    if sharded:
        runner = _make_sharded(args, build_labels=needs_labels)
    else:
        runner = _make_engine(args, needs_labels=needs_labels)
    for method in sorted(methods):
        try:
            resolve_plan(method, args.nn_backend)
        except QueryError as exc:
            raise SystemExit(str(exc))
    items = []
    for i, record in enumerate(records):
        cats = [int(c) if isinstance(c, str) and c.isdigit() else c
                for c in record["categories"]]
        q = runner.make_query(record["source"], record["target"], cats,
                               k=int(record.get("k", 1)))
        items.append((i, record.get("method", args.method), q))
    return runner, items


def _result_row(method: str, result) -> dict:
    s = result.stats
    return {
        "method": method,
        "costs": result.costs,
        "witnesses": [list(w) for w in result.witnesses],
        "examined_routes": s.examined_routes,
        "nn_queries": s.nn_queries,
        "completed": s.completed,
        "time_ms": s.total_time * 1000.0,
    }


def _print_rows(rows) -> None:
    for i, row in enumerate(rows):
        status = "ok" if row["completed"] else "INF"
        best = f"{row['costs'][0]:g}" if row["costs"] else "-"
        print(f"#{i} [{row['method']}] best {best} "
              f"({len(row['costs'])} results), "
              f"{row['examined_routes']} examined, "
              f"{row['nn_queries']} NN, {row['time_ms']:.2f} ms {status}")


def _print_cache_rates(cache_totals: dict) -> None:
    """Hit/miss/eviction observability (`batch --cache-stats`)."""
    for kind in CACHE_KINDS:
        hits = cache_totals.get(f"{kind}_hits", 0)
        misses = cache_totals.get(f"{kind}_misses", 0)
        total = hits + misses
        if not total:
            continue
        print(f"  {kind}: {hits}/{total} hits ({100.0 * hits / total:.1f}%)")
    evicted = (cache_totals.get("dest_kernel_evictions", 0),
               cache_totals.get("cursor_evictions", 0))
    print(f"  evictions: {evicted[0]} dest kernels, {evicted[1]} cursors; "
          f"{cache_totals.get('invalidations', 0)} epoch invalidations")


def cmd_batch(args) -> int:
    """Run a JSON workload through ``QueryService.run_batch``.

    With ``--shards N`` the same workload flows through a
    :class:`~repro.shard.ShardedQueryService` instead — category
    partitions in worker processes, identical answers.
    """
    runner, items = _prepare_workload(args)
    options = _query_options(args)
    # Records may override the method; group by it so each homogeneous
    # sub-batch flows through one run_batch call (grouping by
    # (target, categories) happens inside the service).
    by_method: dict = {}
    for i, method, q in items:
        by_method.setdefault(method, []).append((i, q))
    rows = [None] * len(items)
    if _sharding_requested(args):
        service = runner
    else:
        service = QueryService(runner, max_dest_kernels=args.max_dest_kernels,
                               max_finders=args.max_finders)
    wall = 0.0
    groups = 0
    cache_totals: dict = {}
    try:
        for method, method_items in by_method.items():
            batch = service.run_batch(
                [q for _, q in method_items], options.replace(method=method))
            wall += batch.wall_time_s
            groups += batch.num_groups
            for name, value in batch.cache_stats.items():
                cache_totals[name] = cache_totals.get(name, 0) + value
            for (i, _), result in zip(method_items, batch):
                rows[i] = _result_row(method, result)
    finally:
        if _sharding_requested(args):
            service.close()
    unfinished = sum(1 for r in rows if not r["completed"])
    if args.as_json:
        print(json.dumps({
            "queries": rows,
            "wall_time_s": wall,
            "queries_per_second": len(rows) / wall if wall else float("inf"),
            "num_groups": groups,
            "unfinished": unfinished,
            "cache_stats": cache_totals,
        }, indent=2))
    else:
        _print_rows(rows)
        qps = len(rows) / wall if wall else float("inf")
        print(f"batch: {len(rows)} queries in {wall * 1000:.1f} ms "
              f"({qps:.1f} q/s), {groups} groups, {unfinished} unfinished")
        if args.cache_stats:
            _print_cache_rates(cache_totals)
    return 0 if unfinished == 0 else 2


def cmd_async_batch(args) -> int:
    """Drive a workload through the asyncio front door (`async-batch`).

    ``--shards N`` swaps the in-process thread-pool executor for the
    sharded worker fleet; coalescing and backpressure are unchanged.
    """
    import asyncio

    from repro.server import AsyncQueryService

    runner, items = _prepare_workload(args)
    base = _query_options(args)
    requests = [QueryRequest(q, base.replace(method=method))
                for _, method, q in items]
    if _sharding_requested(args):
        service = runner
    else:
        service = QueryService(runner, max_dest_kernels=args.max_dest_kernels,
                               max_finders=args.max_finders)

    async def drive():
        async with AsyncQueryService(
                service, max_inflight=args.max_inflight,
                max_queue=args.max_queue, max_groups=args.max_groups,
                coalesce=not args.no_coalesce) as front:
            t0 = time.perf_counter()
            # Per-request settlement: an overload rejection (or query
            # error) becomes an error row, not a command crash.
            results = await asyncio.gather(
                *(front.submit(r) for r in requests),
                return_exceptions=True)
            return results, time.perf_counter() - t0, front.stats.as_dict()

    try:
        results, wall, serving = asyncio.run(drive())
    finally:
        if _sharding_requested(args):
            service.close()
    rows = []
    for (_, method, _), result in zip(items, results):
        if isinstance(result, BaseException):
            rows.append({"method": method, "error": str(result),
                         "kind": type(result).__name__, "completed": False,
                         "costs": [], "witnesses": [],
                         "examined_routes": 0, "nn_queries": 0,
                         "time_ms": 0.0})
        else:
            rows.append(_result_row(method, result))
    unfinished = sum(1 for r in rows if not r["completed"])
    if args.as_json:
        print(json.dumps({
            "queries": rows,
            "wall_time_s": wall,
            "queries_per_second": len(rows) / wall if wall else float("inf"),
            "unfinished": unfinished,
            "serving_stats": serving,
        }, indent=2))
    else:
        for i, row in enumerate(rows):
            if "error" in row:
                print(f"#{i} [{row['method']}] {row['kind']}: {row['error']}")
            else:
                status = "ok" if row["completed"] else "INF"
                best = f"{row['costs'][0]:g}" if row["costs"] else "-"
                print(f"#{i} [{row['method']}] best {best} "
                      f"({len(row['costs'])} results), "
                      f"{row['examined_routes']} examined, "
                      f"{row['nn_queries']} NN, {row['time_ms']:.2f} ms "
                      f"{status}")
        qps = len(rows) / wall if wall else float("inf")
        print(f"async-batch: {len(rows)} requests in {wall * 1000:.1f} ms "
              f"({qps:.1f} q/s), {serving['executed']} executed, "
              f"{serving['coalesced']} coalesced, "
              f"{serving['rejected']} rejected")
    return 0 if unfinished == 0 else 2


def _index_note(served, t0: float) -> str:
    """What start-up cost, for the `serve` banner: the wall time since
    ``t0`` (graph load + index build, + fleet spawn) and the label
    entries it produced when the labels were built here.

    A function of its own so that no reference to the labels stays in
    ``cmd_serve``'s frame for the life of the server: with one there,
    `light_overhead` measured 8-14 % more CPU per request (PR 18).
    """
    labels = served.labels
    if labels is None:
        return "none"
    if labels.shared:
        return "mmap"
    return (f"built {time.perf_counter() - t0:.2f}s/"
            f"{labels.size_entries()} entries")


def cmd_serve(args) -> int:
    """Run the JSON-lines TCP server until interrupted (`serve`)."""
    import asyncio
    import errno

    from repro.server.tcp import serve as tcp_serve

    if args.metrics:
        # Enable before building anything so the sharded fleet spawns
        # its workers with metrics on (the flag travels to each worker).
        from repro.obs.metrics import REGISTRY

        REGISTRY.enable()
    _require_index_file(args, {args.method})
    t0 = time.perf_counter()
    if _sharding_requested(args):
        sharded = _make_sharded(args)
        engine = None
    else:
        sharded = None
        engine = _make_engine(args)
    index_note = _index_note(engine if sharded is None else sharded, t0)
    defaults = QueryOptions(method=args.method, nn_backend=args.nn_backend)

    async def main_loop():
        server = await tcp_serve(
            engine, args.host, args.port, defaults=defaults,
            max_inflight=args.max_inflight, max_queue=args.max_queue,
            max_groups=args.max_groups, service=sharded)
        addr = server.sockets[0].getsockname()
        shards_note = (f"shards={args.shards}" if sharded is not None
                       else "shards=off")
        mmap_note = "on" if getattr(args, "mmap_index", None) else "off"
        metrics_note = "on" if args.metrics else "off"
        # benchmarks/kosr/deploy.py waits for this as the first stdout
        # line and parses its prefix: print nothing before it.
        print(f"serving KOSR queries on {addr[0]}:{addr[1]} "
              f"({shards_note}, mmap={mmap_note}, index={index_note}, "
              f"metrics={metrics_note}, method={args.method}, "
              f"max_inflight={args.max_inflight}, "
              f"max_queue={args.max_queue})")
        try:
            async with server:
                await server.serve_forever()
        finally:
            await server.query_service.close()

    # SIGTERM (docker stop, service managers) gets the same graceful
    # shutdown as Ctrl-C: close the front door and the worker fleet
    # instead of dying mid-cleanup.
    import signal

    def _sigterm(_signo, _frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # not the main thread (tests drive cmd_serve directly)
        previous = None
    try:
        asyncio.run(main_loop())
    except KeyboardInterrupt:
        print("interrupted, shutting down")
    except OSError as exc:
        # Most commonly EADDRINUSE from asyncio.start_server: turn the
        # bare traceback into an actionable message + nonzero exit.
        print(f"error: cannot listen on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        if exc.errno == errno.EADDRINUSE:
            print(f"hint: port {args.port} is already in use — stop the "
                  f"other process or pick a different --port "
                  f"(0 auto-assigns a free one)", file=sys.stderr)
        return 1
    finally:
        if sharded is not None:
            sharded.close()
        # Hand SIGTERM back: a process that goes on after serving (tests,
        # embedding callers) must not fork children that inherit a
        # handler turning their own termination into an exception.
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 0


def _format_metric_line(metric: dict) -> str:
    """One human-readable line per instrument (``cli metrics``)."""
    labels = metric.get("labels") or {}
    label_str = ("{" + ", ".join(f"{k}={v}" for k, v
                                 in sorted(labels.items())) + "}"
                 if labels else "")
    name = f"{metric['name']}{label_str}"
    if metric["type"] == "histogram":
        from repro.obs.metrics import quantile_from_buckets

        count = metric["count"]
        mean = metric["sum"] / count if count else 0.0
        p50 = quantile_from_buckets(metric["bounds"], metric["counts"], 0.5)
        p99 = quantile_from_buckets(metric["bounds"], metric["counts"], 0.99)

        def fmt(v: float) -> str:
            return "inf" if v == float("inf") else f"{v * 1000:.2f}ms"

        return (f"{name}  count={count} mean={fmt(mean)} "
                f"p50<={fmt(p50)} p99<={fmt(p99)}")
    return f"{name}  {metric['value']:g}"


def _format_epochs(epochs: dict) -> str:
    """Human-readable lines for the stats probe's epochs section."""
    lines = []
    if "router_epoch" in epochs:  # sharded fleet
        lines.append(f"router_epoch  {epochs['router_epoch']}")
        for shard in epochs.get("shards", ()):
            versions = ", ".join(
                f"{cid}:{version}" for cid, version
                in sorted(shard.get("category_versions", {}).items(),
                          key=lambda kv: int(kv[0])))
            lines.append(
                f"shard {shard.get('shard')}  "
                f"alive={shard.get('alive')} epoch={shard.get('epoch')} "
                f"base={shard.get('epoch_base')} versions=[{versions}]")
    else:
        versions = ", ".join(
            f"{cid}:{version}" for cid, version
            in sorted(epochs.get("category_versions", {}).items(),
                      key=lambda kv: int(kv[0])))
        lines.append(f"index_epoch  {epochs.get('index_epoch')} "
                     f"(base {epochs.get('epoch_base')}) "
                     f"versions=[{versions}]")
    return "\n".join(lines)


def cmd_metrics(args) -> int:
    """Probe a running server's metrics (or, with ``--stats``, stats)."""
    import socket

    probe = b'{"stats": true}\n' if args.stats else b'{"metrics": true}\n'
    try:
        with socket.create_connection((args.host, args.port),
                                      timeout=10.0) as sock:
            sock.sendall(probe)
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    payload = json.loads(reply)
    if args.stats:
        stats = payload.get("stats")
        if stats is None:
            print(f"error: unexpected reply: {payload}", file=sys.stderr)
            return 1
        if args.as_json:
            print(json.dumps(stats, indent=2))
            return 0
        for section in ("serving", "cache"):
            for name, value in sorted(stats.get(section, {}).items()):
                print(f"{section}.{name}  {value}")
        for name, value in sorted(stats.get("hit_rates", {}).items()):
            print(f"hit_rate.{name}  {value:.3f}")
        if "epochs" in stats:
            print(_format_epochs(stats["epochs"]))
        return 0
    snapshot = payload.get("metrics")
    if snapshot is None:
        print(f"error: unexpected reply: {payload}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(snapshot, indent=2))
        return 0
    if not snapshot.get("enabled"):
        print("metrics registry is disabled on the server "
              "(start it with `serve --metrics`)")
        return 2
    for metric in snapshot.get("metrics", ()):
        print(_format_metric_line(metric))
    return 0


def cmd_figure(args) -> int:
    if args.name == "all":
        print(figure_defs.record(scale=args.scale, queries=args.queries))
        return 0
    rows, cols = figure_defs.run_figure(args.name, scale=args.scale,
                                        queries=args.queries)
    print(format_table(rows, cols, title=args.name))
    if args.chart:
        from repro.experiments.charts import bar_chart, level_series

        print()
        if args.name == "fig5":
            print(level_series(rows, title=f"{args.name} (sparklines)"))
        else:
            value_key = "time_ms" if "time_ms" in cols else cols[-1]
            label_keys = [c for c in cols
                          if c not in (value_key, "unfinished",
                                       "examined_routes", "nn_queries")]
            print(bar_chart(rows, label_keys, value_key,
                            title=f"{args.name} ({value_key}, log scale)"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "info": cmd_info,
        "index": cmd_index,
        "query": cmd_query,
        "batch": cmd_batch,
        "async-batch": cmd_async_batch,
        "serve": cmd_serve,
        "metrics": cmd_metrics,
        "figure": cmd_figure,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
