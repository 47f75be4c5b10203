"""The KOSR serving-stack benchmark: one command, every metric by name.

    PYTHONPATH=src python -m benchmarks.kosr.run --seed 1 [--trace]
    python3 benchmarks/kosr/run.py --reps 1 --workload hot_groups \\
        --seed 7 --seconds 10 --trace 0        # what BENCHMARK.json runs

Builds the dataset and its index once, then runs every selected
workload for ``--reps`` repetitions — a fresh deployment per repetition,
workloads interleaved — checks every answer, and prints each metric
with its unit as the median over the repetitions next to min, max and
sample counts.  ``--trace`` adds, per workload, a serial untraced and a
serial traced pass (per-layer self times, tracing overhead) and the
micro-operations.  Exits non-zero on a wrong, missing or refused answer.

When one workload is selected the last stdout line is the result object
``BENCHMARK.json``'s contract asks for: the end-to-end metrics without
``--trace``, the per-layer metrics with it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Set

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro not found: the benchmark measures the "
             f"program in this checkout and there is none")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.core.engine import KOSREngine  # noqa: E402

from benchmarks.kosr import (deploy, harness, metrics, microops,  # noqa: E402
                             trace)
from benchmarks.kosr import workload as workloads  # noqa: E402
from benchmarks.kosr.oracle import Oracle  # noqa: E402
from benchmarks.kosr.summary import over_repetitions, percentile  # noqa: E402

SCHEMA_VERSION = 1
#: set-ups measured per workload and invocation, whatever ``--reps`` is
#: — an attach takes a fifth of a second; a build takes five, and gets
#: the smaller number so that the driver's runs fit their time limit
SETUPS, DEAR_SETUPS, DEAR_SETUP_S = 3, 2, 2.0
#: re-runs allowed for a repetition whose load generator ran late
LATE_RETRIES = 1


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class WorkloadRun:
    """Everything measured for one workload in this invocation."""

    def __init__(self, config: dict, dataset: harness.Dataset,
                 env: Dict[str, str], seed: int, seconds: float):
        self.config = config
        self.dataset = dataset
        self.env = env
        self.seed = seed
        self.workload = workloads.generate(config, dataset.graph, seed,
                                           seconds)
        self.end_to_end: List[Dict[str, float]] = []
        self.per_layer: List[Dict[str, float]] = []
        self.setups: List[float] = []
        self.traced: Dict[str, float] = {}
        self.layer_report: Optional[dict] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.discarded = 0

    def oracle(self) -> Oracle:
        """A fresh comparison engine: the mirror of a workload with
        updates must start from the index as built."""
        return Oracle(KOSREngine.from_index_file(
            self.dataset.graph.copy(), self.dataset.index_path),
            self.config["method"])

    def _run(self, workload: workloads.Workload, **kwargs
             ) -> harness.Repetition:
        return harness.run_repetition(workload, self.dataset, self.oracle(),
                                      self.env, **kwargs)

    def _failures(self, rep: harness.Repetition) -> Set[int]:
        """Check every reply of ``rep``; returns the ids of the timed
        operations that failed."""
        ops = [s.op for s in rep.samples]
        problems = self.oracle().failures(
            ops, [s.reply for s in rep.samples], self.seed)
        self.attempted += len(ops)
        self.failed += len(problems)
        self.problems += [f"op {op_id}: {why}" for op_id, why in problems]
        return {op_id for op_id, _ in problems} \
            & {s.op["id"] for s in rep.timed}

    def repetition(self) -> None:
        rep = self._run(self.workload)
        for _ in range(LATE_RETRIES):
            if self.config["loop"]["kind"] != "open" or \
                    metrics.late_p99_ms(rep) <= metrics.MAX_LATE_P99_MS:
                break
            self.discarded += 1
            rep = self._run(self.workload)
        failed = self._failures(rep)
        self.setups.append(metrics.setup_s(rep))
        self.end_to_end.append(metrics.end_to_end(
            rep, failed, self.config["loop"]["kind"] == "open"))
        self.per_layer.append(metrics.from_replies(rep, self.config))

    def extra_setups(self) -> None:
        """Launch → first correct reply → stop, until this invocation
        has enough set-up times for the workload."""
        only_first = workloads.Workload(self.config,
                                        self.workload.warmup[:1], [])
        while len(self.setups) < (DEAR_SETUPS if min(self.setups)
                                  > DEAR_SETUP_S else SETUPS):
            self.setups.append(metrics.setup_s(self._run(only_first)))

    def traced_passes(self, spans_dir: Path) -> None:
        """A serial untraced and a serial traced pass over the same
        share of the timed list; their p50s give the tracing overhead."""
        share = self.config["traced_share"]
        timed = self.workload.timed[:max(1, int(len(self.workload.timed)
                                                * share))]
        subset = workloads.Workload(self.config, self.workload.warmup, timed)
        spans_path = str(spans_dir / f"{self.config['name']}.json")
        serial = dict(serial=True, slice_s=0.0)
        plain = self._run(subset, **serial)
        traced = self._run(subset, spans_out=spans_path, **serial)
        for rep in (plain, traced):
            self._failures(rep)
        queries = [s for s in traced.samples
                   if not workloads.is_update(s.op)]
        warm_queries = sum(1 for s in traced.warmup
                           if not workloads.is_update(s.op))
        fleet = self.config["deployment"]["kind"] == "fleet"
        self.layer_report = trace.layer_report(
            trace.load_spans(spans_path), [s.latency_ms for s in queries],
            skip=warm_queries, outer="shard" if fleet else "tcp")
        self.layer_report["spans_file"] = os.path.relpath(spans_path, ROOT)
        self.traced = metrics.from_trace(
            self.layer_report,
            percentile([s.latency_ms
                        for s in metrics.answered_queries(traced)], 50.0),
            percentile([s.latency_ms
                        for s in metrics.answered_queries(plain)], 50.0))

    # ------------------------------------------------------------------
    def check_counts_repeat(self) -> None:
        """Same seed, same list: the search counters of the repetitions
        must agree exactly, or the program is not deterministic."""
        for name in ("core.nn_queries_per_req", "core.examined_per_req"):
            values = {rep[name] for rep in self.per_layer}
            if len(values) > 1:
                self.problems.append(
                    f"{name} differs between repetitions: {sorted(values)}")

    def summary(self) -> dict:
        names = list(self.end_to_end[0])
        end_to_end = {name: over_repetitions(
            self.setups if name == "setup_s"
            else [rep[name] for rep in self.end_to_end]) for name in names}
        per_layer = {name: over_repetitions(
            [rep[name] for rep in self.per_layer])
            for name in self.per_layer[0]}
        return {
            "end_to_end": end_to_end, "per_layer": per_layer,
            "traced": self.traced, "layer_report": self.layer_report,
            "requests": {"attempted": self.attempted,
                         "failed": self.failed,
                         "succeeded": self.attempted - self.failed},
            "timed_per_repetition": len(self.workload.timed),
            "discarded_late_repetitions": self.discarded,
        }


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def print_report(name: str, summary: dict, units: Dict[str, str]) -> None:
    requests = summary["requests"]
    print(f"\n== {name}: {summary['timed_per_repetition']} timed operations "
          f"per repetition; sent {requests['attempted']}, succeeded "
          f"{requests['succeeded']}, failed {requests['failed']}"
          + (f"; {summary['discarded_late_repetitions']} late repetitions "
             f"discarded" if summary["discarded_late_repetitions"] else ""))
    for section in ("end_to_end", "per_layer"):
        print(f"  {section.replace('_', ' ')} (median  [min .. max]  "
              f"over n repetitions)")
        for metric, stats in summary[section].items():
            print(f"    {metric:<30} {stats['median']:>12.4f} "
                  f"{units.get(metric, ''):<6} [{stats['min']:.4f} .. "
                  f"{stats['max']:.4f}]  n={len(stats['repetitions'])}")
    report = summary["layer_report"]
    if report:
        print(f"  traced pass ({report['requests']} serial requests; "
              f"spans in {report['spans_file']})")
        for layer, entry in report["layers"].items():
            print(f"    {layer:<10} self p50 {entry['self_p50_ms']:>9.4f} ms"
                  f"   share {entry['share']:.4f}")
        print(f"    {'sum':<10} {'':>22}   share "
              f"{sum(e['share'] for e in report['layers'].values()):.4f}")
        for metric, value in summary["traced"].items():
            print(f"    {metric:<30} {value:>12.4f} "
                  f"{units.get(metric, '')}")


def result_line(summary: dict, contract: dict, traced: bool,
                micro: Dict[str, float], correct: bool) -> str:
    """The driver's result object.  A per-layer metric of a layer this
    workload's deployment does not have is reported as 0."""
    if traced:
        values = {name: stats["median"]
                  for name, stats in summary["per_layer"].items()}
        values.update(summary["traced"])
        values.update(micro)
        for name in ("fail_share", "update_p50_ms", "host.slowdown"):
            if name in summary["end_to_end"]:
                values[name] = summary["end_to_end"][name]["median"]
        listed = contract["per_layer"]
    else:
        values = {name: stats["median"]
                  for name, stats in summary["end_to_end"].items()}
        listed = contract["end_to_end"]
    return json.dumps({
        "correct": correct,
        "attempted": summary["requests"]["attempted"],
        "failed": summary["requests"]["failed"],
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in listed}})


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the timed window the request "
                             "counts are sized for")
    parser.add_argument("--workload", choices=names,
                        help="run only this workload")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full results as JSON")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    selected = [args.workload] if args.workload else names
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    units["p99_ms"] = "ms"  # printed for information, not in the contract

    # The deployments run in their own process groups; make sure a
    # SIGTERM to the benchmark still unwinds the finally blocks that
    # stop them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run_dir = harness.make_run_dir()
    try:
        env = harness.child_env(run_dir)
        runs: Dict[str, WorkloadRun] = {}
        datasets: Dict[str, harness.Dataset] = {}
        for name in selected:
            config = workloads.load_config(name)
            key = json.dumps(config["dataset"], sort_keys=True)
            if key not in datasets:
                datasets[key] = harness.prepare_dataset(config["dataset"],
                                                        env)
            runs[name] = WorkloadRun(config, datasets[key], env, args.seed,
                                     args.seconds)
        # Interleaved: slow drift of the host spreads over all workloads.
        for _ in range(args.reps):
            for run in runs.values():
                run.repetition()
        micro: Dict[str, float] = {}
        for run in runs.values():
            run.extra_setups()
            run.check_counts_repeat()
            if args.trace:
                run.traced_passes(harness.spans_dir())
        if args.trace:
            dataset = next(iter(datasets.values()))
            micro = microops.run(dataset.graph_path, dataset.index_path,
                                 args.seed)

        summaries = {name: run.summary() for name, run in runs.items()}
        for name, summary in summaries.items():
            print_report(name, summary, units)
        if micro:
            print("\n== micro-operations")
            for metric, value in micro.items():
                print(f"    {metric:<34} {value:>12.4f} "
                      f"{units.get(metric, '')}")
        problems = [f"{name}: {p}" for name, run in runs.items()
                    for p in run.problems]
        for problem in problems[:20]:
            print(f"FAILED {problem}", file=sys.stderr)
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({
                    "schema_version": SCHEMA_VERSION,
                    "cpu_count": os.cpu_count(),
                    "python": platform.python_version(),
                    "git_sha": git_sha(), "seed": args.seed,
                    "seconds": args.seconds, "repetitions": args.reps,
                    "workloads": summaries, "micro": micro}, fh, indent=1)
                fh.write("\n")
        if args.workload:
            print(result_line(summaries[args.workload], contract,
                              bool(args.trace), micro, not problems))
        return 1 if problems else 0
    finally:
        log = run_dir / deploy.LOG_NAME
        if sys.exc_info()[0] is not None and log.exists():
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        harness.remove_run_dir(run_dir)


if __name__ == "__main__":
    sys.exit(main())
