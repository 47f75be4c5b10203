"""Zero-copy fleet spawn: build the index once, mmap-attach every worker.

The PR's acceptance scenario.  A packed CAL index is built once and
saved as a single RPLI file; worker fleets then come up in two modes:

* **private** — the pre-mmap lifecycle: the parent builds (or pickles)
  the indexes and every worker materialises its own copy.
* **shared** — workers attach read-only to the saved file via ``mmap``;
  the OS page cache holds ONE physical copy of the flat buffers no
  matter how many processes map them.

Measured and persisted to ``benchmarks/results/bench_mmap_spawn.json``:

* fleet spawn latency (1 and 4 shards, shared vs private) — the shared
  fleet must come up >= 10x faster than a build-from-scratch fleet.
  That gate runs on its own graph (CAL at ``SPAWN_GATE_SCALE``), large
  enough that a label build cannot be mistaken for process start-up;
  the spawn times of the ``REPRO_BENCH_SCALE`` fleets are recorded only;
* per-worker resident index bytes and fleet-wide unique memory — on the
  shared 4-shard fleet the summed resident index footprint must stay
  under 1.5x the index file size (the CI memory-regression gate; a
  private fleet holds ~4 full copies);
* per-worker RSS/USS deltas against a topology-only fleet (recorded,
  plus a directional shared-vs-private assertion when the kernel
  exposes ``smaps_rollup``, made on the spawn gate's graph, where one
  private index copy is several MB and not allocator noise);
* query throughput on both fleets, with every answer asserted
  bit-identical (witnesses, costs, NN/examined counters) to a fresh
  unsharded cold engine.
"""

import os
import random
import tempfile
import time

import pytest

from benchmarks._shared import emit_json
from repro import QueryOptions, ShardedQueryService, make_query
from repro.experiments import datasets as ds

NUM_QUERIES = 24
C_LEN = 3
K = 4
FLEET_SHARDS = 4

OPTIONS = QueryOptions(method="SK")

#: scale of the spawn-latency gate's graph, whatever REPRO_BENCH_SCALE
#: is.  An attach that silently rebuilds costs a label build, so the gate
#: needs a graph whose build (about 1 s here: 1600 vertices) dwarfs what
#: both fleets pay alike, fork + handshake (about 30 ms).  At the CI
#: scale of 0.25 the build itself is 60 ms since the columnar PLL, and a
#: 10x bar there would measure process start-up.
SPAWN_GATE_SCALE = 1.0


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _queries(g):
    """The benchmark's seeded query list over graph ``g``."""
    rng = random.Random(83)
    queries = []
    for _ in range(NUM_QUERIES):
        s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
        cats = rng.sample(range(g.num_categories), C_LEN)
        queries.append(make_query(g, s, t, cats, k=K))
    return queries


@pytest.fixture(scope="module")
def setting():
    engine = ds.engine_for("CAL")
    queries = _queries(engine.graph)
    fd, path = tempfile.mkstemp(prefix="bench-mmap-", suffix=".rpli")
    os.close(fd)
    index_bytes = engine.save_index(path)
    yield engine, queries, path, index_bytes
    os.unlink(path)


def _spawn(graph, num_shards, index_path=None):
    """Construct a fleet, returning (service, spawn_seconds)."""
    t0 = time.perf_counter()
    service = ShardedQueryService(graph, num_shards, index_path=index_path)
    return service, time.perf_counter() - t0


def _spawn_gate():
    """Spawn seconds and the USS probe, shared vs private, on the gate's
    own graph and index file."""
    engine = ds.engine_for("CAL", scale=SPAWN_GATE_SCALE)
    fd, path = tempfile.mkstemp(prefix="bench-mmap-gate-", suffix=".rpli")
    os.close(fd)
    try:
        engine.save_index(path)
        seconds = {}
        for shards in (1, FLEET_SHARDS):
            for mode, index_path in (("private", None), ("shared", path)):
                service, seconds[f"{mode}_{shards}"] = _spawn(
                    engine.graph, shards, index_path)
                service.close()
        uss = _uss_probe(engine.graph, path, _queries(engine.graph))
    finally:
        os.unlink(path)
    return seconds, uss


def _fleet_report(service, engine, queries):
    """index_memory + throughput + cold-engine parity for one fleet."""
    service.run_batch(queries[:4], OPTIONS)  # warm workers
    t0 = time.perf_counter()
    batch = service.run_batch(queries, OPTIONS)
    elapsed = time.perf_counter() - t0
    for q, got in zip(queries, batch):
        cold = engine.run(q, OPTIONS)
        assert got.witnesses == cold.witnesses
        assert got.costs == cold.costs
        assert got.stats.nn_queries == cold.stats.nn_queries
        assert got.stats.examined_routes == cold.stats.examined_routes
    memory = service.index_memory()
    return {
        "num_shards": memory["num_shards"],
        "shared": memory["shared"],
        "unique_index_resident_bytes": memory["total_resident"],
        "serialized_bytes": memory["total_serialized"],
        "worker_resident_bytes": [s["total_resident"]
                                  for s in memory["shards"]],
        "worker_rss_bytes": [s["rss_bytes"] for s in memory["shards"]],
        "worker_uss_bytes": [s["uss_bytes"] for s in memory["shards"]],
        "queries_per_second": len(queries) / elapsed,
    }


def _uss_probe(graph, path, queries):
    """Shared-vs-private USS with the ``spawn`` start method.

    Under the default ``fork`` start the private fleet inherits the
    parent's freshly built index copy-on-write, so its pages are still
    *shared* (they only go private as refcount writes dirty them) and a
    USS comparison says nothing.  ``spawn`` workers unpickle their own
    copy — private means private — while mmap attachment stays shared
    file cache either way.
    """
    probe = {}
    for mode, index_path in (("private", None), ("shared", path)):
        service = ShardedQueryService(graph, FLEET_SHARDS,
                                      index_path=index_path,
                                      start_method="spawn")
        try:
            service.run_batch(queries[:4], OPTIONS)
            memory = service.index_memory()
            probe[mode] = [s["uss_bytes"] for s in memory["shards"]]
        finally:
            service.close()
    return probe


def _baseline_uss(graph, num_shards):
    """Per-worker USS of a topology-only fleet (no label indexes at all):
    the interpreter + graph floor to subtract from index-carrying
    fleets."""
    service = ShardedQueryService(graph, num_shards, build_labels=False)
    try:
        memory = service.index_memory()
        return [s["uss_bytes"] for s in memory["shards"]]
    finally:
        service.close()


def test_spawn_latency_and_fleet_memory(setting):
    engine, queries, path, index_bytes = setting
    g = engine.graph

    fleets = {}
    spawn_s = {}
    for shards in (1, FLEET_SHARDS):
        for mode, index_path in (("private", None), ("shared", path)):
            service, seconds = _spawn(g, shards, index_path)
            try:
                fleets[f"{mode}_{shards}"] = _fleet_report(
                    service, engine, queries)
            finally:
                service.close()
            spawn_s[f"{mode}_{shards}"] = seconds

    baseline_uss = _baseline_uss(g, FLEET_SHARDS)

    shared4 = fleets[f"shared_{FLEET_SHARDS}"]
    private4 = fleets[f"private_{FLEET_SHARDS}"]
    resident_ratio = shared4["unique_index_resident_bytes"] / index_bytes
    gate_s, uss_probe = _spawn_gate()
    speedup_1 = gate_s["private_1"] / gate_s["shared_1"]
    speedup_4 = gate_s[f"private_{FLEET_SHARDS}"] \
        / gate_s[f"shared_{FLEET_SHARDS}"]

    payload = {
        "workload": {
            "dataset": "CAL",
            "scale": ds.BENCH_SCALE,
            "num_queries": NUM_QUERIES,
            "c_len": C_LEN,
            "k": K,
            "method": "SK",
        },
        "runner": {"cpu_count": _cpu_count()},
        "index_file_bytes": index_bytes,
        "spawn_seconds": spawn_s,
        "spawn_gate": {"dataset": "CAL", "scale": SPAWN_GATE_SCALE,
                       "spawn_seconds": gate_s,
                       "spawn_start_uss_bytes": uss_probe},
        "spawn_speedup_1_shard": speedup_1,
        "spawn_speedup_4_shards": speedup_4,
        "fleets": fleets,
        "baseline_uss_bytes": baseline_uss,
        "memory_gate": {
            "shared_fleet_resident_bytes":
                shared4["unique_index_resident_bytes"],
            "resident_to_index_file": resident_ratio,
            "limit_bytes": 1.5 * index_bytes,
            "private_fleet_resident_bytes":
                private4["unique_index_resident_bytes"],
        },
        "parity": "bit-identical witnesses, costs, nn_queries, and "
                  "examined_routes vs a fresh unsharded cold engine for "
                  "every query on every fleet",
    }
    emit_json("bench_mmap_spawn", payload)
    print(f"\nmmap fleet spawn (CAL {SPAWN_GATE_SCALE}): shared "
          f"x{FLEET_SHARDS} {gate_s[f'shared_{FLEET_SHARDS}']:.3f}s vs "
          f"private {gate_s[f'private_{FLEET_SHARDS}']:.3f}s "
          f"({speedup_4:.1f}x); shared fleet holds "
          f"{shared4['unique_index_resident_bytes'] / 1e6:.2f} MB resident "
          f"vs {index_bytes / 1e6:.2f} MB index file "
          f"({resident_ratio:.2f}x; private: "
          f"{private4['unique_index_resident_bytes'] / 1e6:.2f} MB)")

    # --- CI memory-regression gate (deterministic, no RSS noise): the
    # whole shared fleet's resident index bytes stay under 1.5x the
    # index file — N workers, one physical copy plus each worker's run
    # directories (one dict entry per hub run it has read).
    assert shared4["shared"] is True
    assert shared4["unique_index_resident_bytes"] <= 1.5 * index_bytes
    # The private fleet pays the boxed-object copy in EVERY worker.
    assert private4["unique_index_resident_bytes"] > \
        shared4["unique_index_resident_bytes"]

    # --- Spawn latency: attach must beat build-from-scratch by >= 10x
    # on the gate's graph, where a build is long enough to tell.
    assert speedup_4 >= 10.0
    assert speedup_1 >= 10.0

    # --- OS-level accounting (directional only: RSS/USS include
    # allocator slack, so the hard gate above stays on the deterministic
    # byte counts).  USS charges private pages only — mmap-shared file
    # pages are excluded — so under the `spawn` start method, where a
    # private worker genuinely unpickles its own copy, the shared
    # workers must sit strictly below the private ones.  Probed on the
    # gate's graph: there one private copy is several MB per worker, far
    # above the allocator's noise.
    shared_uss = sum(uss_probe["shared"])
    private_uss = sum(uss_probe["private"])
    if shared_uss > 0 and private_uss > 0:
        assert shared_uss < private_uss
