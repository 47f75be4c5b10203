"""Running one repetition of a workload against a fresh deployment.

A repetition launches the deployment the workload's config names, waits
for its first correct reply (that instant closes ``setup_s``), sends
the rest of the warm-up prefix untimed, drives the timed list segment
by segment — the clock and the tree's CPU read at both edges of each,
a slice of fixed work (:mod:`hostspeed`) timed between them — reads
the counters, and stops the deployment.  A fresh deployment per
repetition matters: re-sending one list to a live sharded server
tripled its throughput, because the workers' sessions were already
warm.

Nothing here branches on a workload's name — only on the deployment
kind: a TCP server driven by the load generator, or the in-process
fleet's host driven by an operations file.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.io import load_json, save_json

from benchmarks.kosr import deploy, hostspeed, loadgen, procstat
from benchmarks.kosr.loadgen import Sample
from benchmarks.kosr.oracle import Oracle, structural_error
from benchmarks.kosr.summary import segment_spans
from benchmarks.kosr.workload import Workload

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: everything the benchmark writes lives here, inside the checkout
WORK_DIR = ROOT / ".kosr_bench"

#: a repetition that has not finished by then is killed and fails the run
DRIVE_TIMEOUT_S = 150.0


def child_env(tmp_dir: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT}{os.pathsep}{SRC}"
    env["TMPDIR"] = str(tmp_dir)
    return env


@dataclass
class Dataset:
    graph_path: str
    index_path: str
    graph: Graph


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prepare_dataset(spec: dict, env: Dict[str, str]) -> Dataset:
    """Write the graph JSON and build its index file with ``cli index
    build`` — once per checkout and source state: the files are keyed by
    a digest of ``src/repro``, so any source change rebuilds them."""
    home = WORK_DIR / "cache" / \
        f"{spec['name']}-{spec['scale']}-{_source_digest()}"
    graph_path, index_path = home / "graph.json", home / "index.rpli"
    if not index_path.exists():
        home.mkdir(parents=True, exist_ok=True)
        save_json(generators.dataset_by_name(spec["name"],
                                             scale=spec["scale"]),
                  graph_path)
        partial = home / f"index.{os.getpid()}.partial"
        subprocess.run([sys.executable, "-m", "repro.cli", "index", "build",
                        "--graph", str(graph_path), "--out", str(partial)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        os.replace(partial, index_path)
    return Dataset(str(graph_path), str(index_path), load_json(graph_path))


#: the timed list is measured as this many consecutive segments and
#: each end-to-end metric is the median over them, so a burst of host
#: noise spoils one segment instead of the run's tail percentile
SEGMENTS = 8
#: length of the slice of fixed work (:mod:`hostspeed`) timed before
#: and after every segment and every set-up
SLICE_S = 0.25


@dataclass
class Segment:
    """Timed operations ``lo:hi`` as the outside saw them."""

    lo: int
    hi: int
    wall_s: float
    #: user + system CPU of the deployment's process tree
    cpu_s: float
    #: the fixed work's time, mean of the slices on either side
    slice_ms: float


@dataclass
class Repetition:
    """What one repetition observed, before any metric is derived."""

    setup_s: float
    #: ``hostspeed.setup_slowdown`` over the set-up
    setup_slowdown: float
    warmup: List[Sample]
    timed: List[Sample]
    segments: List[Segment]
    pss_mb: float
    #: ``serving`` and ``cache`` counters read after the window
    serving: Dict[str, int] = field(default_factory=dict)
    cache: Dict[str, int] = field(default_factory=dict)
    respawns: int = 0

    @property
    def samples(self) -> List[Sample]:
        return self.warmup + self.timed


class SegmentClock:
    """Collects the edges of the segments of one repetition: a slice of
    fixed work before each segment and after the last, and the clock
    and the tree's CPU at both edges of each — the slices fall outside
    the edges, so neither their time nor their CPU is the segment's."""

    def __init__(self, cpu_seconds: Callable[[], float],
                 host_slice: Callable[[], float]):
        self._cpu_seconds = cpu_seconds
        self._host_slice = host_slice
        self._slices: List[float] = []
        self._edges: List[Tuple[int, float, float]] = []

    def before(self, lo: int) -> None:
        self._slices.append(self._host_slice())
        self._edges.append((lo, perf_counter(), self._cpu_seconds()))

    def after(self, hi: int) -> None:
        self._edges.append((hi, perf_counter(), self._cpu_seconds()))

    def segments(self) -> List[Segment]:
        """Closes the last segment with its trailing slice."""
        if not self._edges:
            return []
        self._slices.append(self._host_slice())
        starts, ends = self._edges[0::2], self._edges[1::2]
        return [Segment(lo, hi, t1 - t0, cpu1 - cpu0,
                        (self._slices[i] + self._slices[i + 1]) / 2.0)
                for i, ((lo, t0, cpu0), (hi, t1, cpu1))
                in enumerate(zip(starts, ends))]


def _check_first_reply(sample: Sample, oracle: Oracle) -> None:
    problem = (structural_error(sample.op, sample.reply)
               or oracle.mismatch(sample.op, sample.reply))
    if problem is not None:
        raise RuntimeError(f"first reply is wrong: {problem}")


def _tcp_repetition(workload: Workload, dataset: Dataset, oracle: Oracle,
                    env: Dict[str, str], serial: bool,
                    spans_out: Optional[str], slice_s: float
                    ) -> Repetition:
    config = workload.config
    loop = config["loop"]
    # Beside an open loop the fixed work is paced like the arrivals
    # (see hostspeed); a set-up is busy work, so its slices never are.
    period_s = 1.0 / config["requests_per_run_second"] \
        if loop["kind"] == "open" and not serial else None
    pids: List[int] = []
    clock = SegmentClock(lambda: procstat.cpu_seconds(pids),
                         lambda: hostspeed.measure(slice_s, period_s))
    probe = hostspeed.Probe()
    slice_before = hostspeed.measure(slice_s)
    server = deploy.TcpServer(
        deploy.serve_argv(config, dataset.graph_path, dataset.index_path,
                          spans_out), env, probe.call if slice_s else None)
    try:
        waited_s = perf_counter() - server.launched_at
        setups: List[Tuple[float, float]] = []

        def on_first_reply(sample: Sample) -> None:
            setups.append((
                perf_counter() - server.launched_at,
                hostspeed.setup_slowdown(slice_s, slice_before, probe,
                                         waited_s,
                                         hostspeed.measure(slice_s))))
            _check_first_reply(sample, oracle)

        def before_segment(lo: int) -> None:
            if not pids:  # after warm-up, so every worker is up
                pids.extend(server.pids())
            clock.before(lo)

        drive = asyncio.run(asyncio.wait_for(loadgen.drive(
            server.host, server.port, workload.warmup, workload.timed,
            loop_kind="closed" if serial else loop["kind"],
            connections=1 if serial else loop["connections"],
            rate_per_s=config["requests_per_run_second"],
            segments=segment_spans(len(workload.timed), SEGMENTS),
            on_first_reply=on_first_reply, before_segment=before_segment,
            after_segment=clock.after), DRIVE_TIMEOUT_S))
        measured = clock.segments()
        pss_mb = procstat.pss_mb(pids or server.pids())
    finally:
        server.stop()
    return Repetition(
        setup_s=setups[0][0], setup_slowdown=setups[0][1],
        warmup=drive.warmup, timed=drive.timed, segments=measured,
        pss_mb=pss_mb, serving=drive.probe.get("serving", {}),
        cache=drive.probe.get("cache", {}))


def _fleet_repetition(workload: Workload, dataset: Dataset, oracle: Oracle,
                      env: Dict[str, str], spans_out: Optional[str],
                      slice_s: float) -> Repetition:
    tmp = Path(env["TMPDIR"])
    ops_path, out_path = tmp / "fleet_ops.json", tmp / "fleet_result.json"
    with open(ops_path, "w") as fh:
        json.dump({"warmup": workload.warmup, "timed": workload.timed,
                   "segments": segment_spans(len(workload.timed), SEGMENTS),
                   "slice_s": slice_s}, fh)
    probe = hostspeed.Probe()
    slice_before = hostspeed.measure(slice_s)
    host = deploy.FleetHost(
        deploy.fleet_argv(workload.config, dataset.graph_path,
                          dataset.index_path, str(ops_path), str(out_path),
                          spans_out), env)
    try:
        ready = host.read_message(DRIVE_TIMEOUT_S,
                                  probe.call if slice_s else None)
        setup_s = perf_counter() - host.launched_at
        _check_first_reply(Sample(workload.warmup[0], ready.get("reply")),
                           oracle)
        if not host.read_message(DRIVE_TIMEOUT_S).get("done"):
            raise RuntimeError("fleet host did not finish")
    finally:
        host.stop()
    with open(out_path) as fh:
        result = json.load(fh)

    def samples(ops: List[dict], raw: List[dict]) -> List[Sample]:
        return [Sample(op, item["reply"], item["latency_ms"])
                for op, item in zip(ops, raw)]

    return Repetition(
        setup_s=setup_s,
        setup_slowdown=hostspeed.setup_slowdown(
            slice_s, slice_before, probe, setup_s, result["setup_slice_ms"]),
        warmup=samples(workload.warmup, result["warmup"]),
        timed=samples(workload.timed, result["timed"]),
        segments=[Segment(**segment) for segment in result["segments"]],
        pss_mb=result["pss_mb"], cache=result["cache"],
        respawns=result["respawns"])


def run_repetition(workload: Workload, dataset: Dataset, oracle: Oracle,
                   env: Dict[str, str], *, serial: bool = False,
                   spans_out: Optional[str] = None,
                   slice_s: float = SLICE_S) -> Repetition:
    """One repetition on a fresh deployment.  ``serial`` forces one
    request at a time (one connection, closed loop) whatever the config
    says — the shape a traced pass needs; ``spans_out`` makes it traced;
    ``slice_s`` 0 leaves the fixed work out, and every timing as
    measured.

    An unsharded deployment shares one CPU with the load generator for
    the repetition.  A single-process server and its client take turns
    anyway, and on this virtual machine their
    cross-CPU wake-ups cost more, and vary far more from minute to
    minute, than the work being measured: pinned, identical runs of the
    three unsharded workloads spread 0.06-0.17 of their median instead
    of 0.13-0.29.  Deployments with worker processes use every CPU.
    """
    deployment = workload.config["deployment"]
    allowed = os.sched_getaffinity(0)
    if not deployment["shards"]:
        os.sched_setaffinity(0, {min(allowed)})  # inherited by the tree
    try:
        if deployment["kind"] == "fleet":
            return _fleet_repetition(workload, dataset, oracle, env,
                                     spans_out, slice_s)
        return _tcp_repetition(workload, dataset, oracle, env, serial,
                               spans_out, slice_s)
    finally:
        os.sched_setaffinity(0, allowed)


def spans_dir() -> Path:
    """Where traced passes leave their span files (kept after the run)."""
    path = WORK_DIR / "spans"
    path.mkdir(parents=True, exist_ok=True)
    return path


def make_run_dir() -> Path:
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    return run_dir


def remove_run_dir(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
