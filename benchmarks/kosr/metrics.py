"""Metrics of one repetition, by the names ``BENCHMARK.json`` lists.

End-to-end metrics are what a client or an operator of the deployment
sees.  Per-layer metrics here are the (R) kind: fields of the replies
and the counters read once after the timed window.  The traced (T) and
micro-operation (M) kinds come from :mod:`trace` and :mod:`microops`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.service.cache import hit_rates_from

from benchmarks.kosr import hostspeed
from benchmarks.kosr import workload as workloads
from benchmarks.kosr.harness import Repetition
from benchmarks.kosr.summary import median, percentile
from benchmarks.kosr.workload import is_update

#: an open-loop repetition whose generator ran later than this at the
#: 99th percentile is host noise, not the program: discarded and re-run
MAX_LATE_P99_MS = 5.0


def answered_queries(rep: Repetition) -> List:
    return [s for s in rep.timed
            if not is_update(s.op) and s.reply is not None
            and "error" not in s.reply]


def late_p99_ms(rep: Repetition) -> float:
    return percentile([s.late_ms for s in rep.timed], 99.0)


def setup_s(rep: Repetition) -> float:
    """Launch to first correct reply, at the reference host speed."""
    return rep.setup_s / rep.setup_slowdown


def end_to_end(rep: Repetition, failed_ids: Set[int],
               open_loop: bool = False) -> Dict[str, float]:
    """The end-to-end metrics of one repetition.

    Latency percentiles, throughput and CPU per request are computed per
    segment of the timed list (see ``harness.SEGMENTS``), brought to the
    reference host speed with the segment's slices of fixed work (see
    :mod:`hostspeed`), and reported as the median over the segments.
    An open loop's ``qps`` is its schedule's, which the host's speed
    does not move, so it stays as measured.  ``failed_ids`` are the
    timed operations that were wrong, missing, refused or errored: they
    count against ``fail_share`` and never towards ``qps``.
    """
    segments: Dict[str, List[float]] = {
        "p50_ms": [], "p95_ms": [], "qps": [], "cpu_ms_per_req": [],
        "host.slowdown": []}
    updates: List[float] = []
    for seg in rep.segments:
        slowdown = seg.slice_ms / hostspeed.REFERENCE_MS
        part = rep.timed[seg.lo:seg.hi]
        good = [s for s in part if s.op["id"] not in failed_ids]
        queries = [s.latency_ms for s in good if not is_update(s.op)]
        updates += [s.latency_ms / slowdown for s in good if is_update(s.op)]
        segments["p50_ms"].append(percentile(queries, 50.0) / slowdown)
        segments["p95_ms"].append(percentile(queries, 95.0) / slowdown)
        segments["qps"].append(len(good) / seg.wall_s
                               * (1.0 if open_loop else slowdown))
        segments["cpu_ms_per_req"].append(
            seg.cpu_s * 1000.0 / len(part) / slowdown)
        segments["host.slowdown"].append(slowdown)
    metrics = {name: median(values) for name, values in segments.items()}
    metrics.update({
        "p99_ms": percentile(
            [s.latency_ms for s in answered_queries(rep)], 99.0),
        "fail_share": len(failed_ids) / len(rep.timed),
        "setup_s": setup_s(rep),
        "rss_mb": rep.pss_mb,
    })
    if updates:
        metrics["update_p50_ms"] = median(updates)
    return metrics


def from_replies(rep: Repetition, config: dict) -> Dict[str, float]:
    """The (R) per-layer metrics.  Layers a deployment does not have
    (no front door in the fleet, no shards behind a plain server) are
    simply absent."""
    queries = answered_queries(rep)
    replies = [s.reply for s in queries]
    exec_ms = [r["time_ms"] for r in replies]
    examined = sum(r["examined_routes"] for r in replies)
    metrics: Dict[str, float] = {
        "core.exec_ms": median(exec_ms),
        "core.exec_share": sum(exec_ms) / sum(s.latency_ms for s in queries),
        "core.examined_per_req": examined / len(replies),
        "core.nn_queries_per_req":
            sum(r["nn_queries"] for r in replies) / len(replies),
        "core.incomplete": sum(1 for r in replies if not r["completed"]),
        "core.us_per_examined": sum(exec_ms) * 1000.0 / examined,
    }
    cache = rep.cache
    rates = hit_rates_from(cache)
    metrics.update({
        "service.finder_hit_rate": rates["finder"],
        "service.dest_kernel_hit_rate": rates["dest_kernel"],
        "service.cursor_evictions": cache["cursor_evictions"],
        "service.partial_invalidations": cache["partial_invalidations"],
        "service.cursors_invalidated": cache["cursors_invalidated"],
    })
    deployment = config["deployment"]
    if deployment["kind"] == "tcp":
        serving = rep.serving
        metrics.update({
            "tcp.requests": len(rep.samples),
            "tcp.errors": sum(1 for s in rep.samples
                              if s.reply is not None and "error" in s.reply),
            "tcp.reply_bytes_per_req":
                sum(s.reply_bytes for s in queries) / len(queries),
            "tcp.p99_ms": percentile([s.latency_ms for s in queries], 99.0),
            "async.executed": serving["executed"],
            "async.coalesced": serving["coalesced"],
            "async.rejected": serving["rejected"],
            "async.groups_retired": serving["groups_retired"],
            "async.coalesce_ratio":
                serving["coalesced"] / serving["submitted"],
        })
        if config["loop"]["kind"] == "open":
            metrics["loadgen.late_p99_ms"] = late_p99_ms(rep)
    if deployment["shards"]:
        fanout = workloads.fanout(config, [s.op for s in rep.timed])
        metrics["shard.fanout_per_req"] = fanout["fanout_per_req"]
        metrics["shard.spanning_share"] = fanout["spanning_share"]
    if deployment["kind"] == "fleet":
        metrics["shard.respawns"] = rep.respawns
    return metrics


def from_trace(report: dict, traced_p50_ms: float,
               untraced_p50_ms: float) -> Dict[str, float]:
    """The (T) per-layer metrics, from a :func:`trace.layer_report` and
    the p50 of the traced pass against an untraced pass of the same
    shape."""
    metrics: Dict[str, float] = {
        f"{layer}.self_ms": entry["self_p50_ms"]
        for layer, entry in report["layers"].items()}
    optional: Dict[str, Optional[float]] = {
        "async.wait_ms": report["async_wait_p50_ms"],
        "shard.update_broadcast_ms": report["update_broadcast_p50_ms"],
    }
    metrics.update({k: v for k, v in optional.items() if v is not None})
    if "service" in report["layers"]:
        metrics["service.cache_build_ms"] = report["cache_build_mean_ms"]
    metrics["trace.overhead_share"] = traced_p50_ms / untraced_p50_ms - 1.0
    return metrics
