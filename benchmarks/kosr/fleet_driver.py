"""The in-process fleet's host: a caller application and its workers.

    python -m benchmarks.kosr.fleet_driver --graph G --index I --shards N
        --method SK --ops OPS.json --out RESULT.json [--spans-out FILE]

Builds ``ShardedQueryService(graph, N, index_path=I)`` and drives it
through its Python API — closed loop, one caller — with the operation
lists in ``OPS.json`` (``{"warmup": [...], "timed": [...], "segments":
[[lo, hi], ...], "slice_s": ...}``: the timed list is measured segment
by segment, with a slice of :mod:`hostspeed` work on either side).
Updates do not exist on the TCP face, so this is the only way to
measure them.

It runs as a child of the benchmark for the same reasons ``cli serve``
does: ``setup_s`` then covers process launch → first reply like every
other workload, and CPU and memory are those of this tree alone.
Progress goes to stdout as JSON lines — ``{"ready": true, "reply":
...}`` after the first warm-up operation, ``{"done": true}`` once
``RESULT.json`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter
from typing import List, Tuple

from repro.api import QueryOptions
from repro.exceptions import ReproError
from repro.graph.io import load_json
from repro.shard import ShardedQueryService

from benchmarks.kosr import hostspeed, procstat
from benchmarks.kosr.oracle import encode_result
from benchmarks.kosr.trace import SpanRecorder, install_fleet_wrappers
from benchmarks.kosr.workload import is_update


def execute(fleet, options: QueryOptions, op: dict) -> Tuple[object, float]:
    """Run one operation; returns its raw outcome and latency in ms."""
    start = perf_counter()
    try:
        if is_update(op):
            update = (fleet.add_vertex_to_category if op["update"] == "add"
                      else fleet.remove_vertex_from_category)
            update(op["vertex"], op["category"])
            outcome = None
        else:
            outcome = fleet.run(
                fleet.make_query(op["source"], op["target"],
                                 op["categories"], k=op["k"]), options)
    except ReproError as exc:
        outcome = exc
    return outcome, (perf_counter() - start) * 1000.0


def reply_of(op: dict, outcome) -> dict:
    if isinstance(outcome, Exception):
        return {"id": op["id"], "error": str(outcome),
                "kind": type(outcome).__name__}
    if outcome is None:
        return {"id": op["id"], "ok": True}
    return encode_result(outcome, op["id"])


def emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    for flag in ("--graph", "--index", "--method", "--ops", "--out"):
        parser.add_argument(flag, required=True)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    with open(args.ops) as fh:
        ops = json.load(fh)
    recorder = None
    if args.spans_out:
        recorder = SpanRecorder()
        install_fleet_wrappers(recorder)
    options = QueryOptions(method=args.method)
    fleet = ShardedQueryService(load_json(args.graph), args.shards,
                                index_path=args.index)
    try:
        executed = []

        def host_slice() -> float:
            return hostspeed.measure(ops["slice_s"])

        for i, op in enumerate(ops["warmup"]):
            executed.append((op, *execute(fleet, options, op)))
            if i == 0:
                emit({"ready": True, "reply": reply_of(op, executed[0][1])})
                setup_slice_ms = host_slice()

        # Slices of fixed work bracket every segment, outside its edges
        # (this process is the root of the measured tree).
        pids = procstat.tree_pids(os.getpid())
        slices, segments = [], []
        for lo, hi in ops["segments"]:
            slices.append(host_slice())
            t0, cpu0 = perf_counter(), procstat.cpu_seconds(pids)
            for op in ops["timed"][lo:hi]:
                executed.append((op, *execute(fleet, options, op)))
            segments.append({"lo": lo, "hi": hi,
                             "wall_s": perf_counter() - t0,
                             "cpu_s": procstat.cpu_seconds(pids) - cpu0})
        slices.append(host_slice())
        for i, segment in enumerate(segments):
            segment["slice_ms"] = (slices[i] + slices[i + 1]) / 2.0
        pss_mb = procstat.pss_mb(pids)

        samples = [{"reply": reply_of(op, outcome), "latency_ms": latency}
                   for op, outcome, latency in executed]
        warmup_n = len(ops["warmup"])
        result = {"warmup": samples[:warmup_n], "timed": samples[warmup_n:],
                  "segments": segments, "setup_slice_ms": setup_slice_ms,
                  "pss_mb": pss_mb,
                  "cache": fleet.cache_stats(), "respawns": fleet.respawns}
    finally:
        fleet.close()
        if recorder is not None:
            recorder.dump(args.spans_out)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    emit({"done": True})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
