"""Zero-downtime mutation: query latency while an edge update rebuilds.

``ShardedQueryService.update_edge`` does its dominant work — the full
label rebuild — in the parent, off the shard locks, and only then, under
the shard locks, starts replacement workers from the post-update state
and swaps them in.  The serving claim is that queries keep flowing off
the *old* workers for essentially the whole update: the observable
stall is the replacements' start-up window, not the rebuild.

This benchmark drives a steady query loop against a 2-shard fleet while
a background thread applies ``update_edge``, and compares the latency
distribution against the same loop on a quiesced fleet:

- ``quiesced_p50_ms`` / ``during_update_p50_ms`` — the typical query
  must not degrade to anything near the rebuild time.
- ``update_wall_ms`` vs ``during_update_max_ms`` — the worst stall a
  query saw must be a small fraction of the update's total wall time
  (a blocking design would pin a query for the whole rebuild).

Post-update answers are asserted bit-identical to a fresh unsharded
engine over the updated graph, and the distributions persist to
``benchmarks/results/bench_update_latency.json``.
"""

import random
import statistics
import threading
import time

from benchmarks._shared import emit_json
from repro import KOSREngine, QueryOptions, ShardedQueryService, make_query
from repro.graph.builders import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.updates import apply_edge_mutation

N_VERTICES = 600
N_CATEGORIES = 8
CATEGORY_SIZE = 40
NUM_SHARDS = 2
OPTIONS = QueryOptions(method="SK")


def _setting():
    g = random_graph(N_VERTICES, avg_out_degree=3.0,
                     rng=random.Random(401))
    assign_uniform_categories(g, N_CATEGORIES, CATEGORY_SIZE,
                              random.Random(402))
    rng = random.Random(403)
    queries = [make_query(g, rng.randrange(N_VERTICES),
                          rng.randrange(N_VERTICES),
                          rng.sample(range(N_CATEGORIES), 2), k=4)
               for _ in range(32)]
    return g, queries


def _query_loop(sharded, queries, stop, latencies_ms):
    i = 0
    while not stop.is_set():
        q = queries[i % len(queries)]
        t0 = time.perf_counter()
        sharded.run(q, OPTIONS)
        latencies_ms.append((time.perf_counter() - t0) * 1e3)
        i += 1


def test_update_latency_overlap():
    g, queries = _setting()
    sharded = ShardedQueryService(g.copy(), NUM_SHARDS)
    try:
        for q in queries[:8]:  # warm workers + session caches
            sharded.run(q, OPTIONS)

        # Baseline: the same loop, nothing mutating.
        quiesced = []
        t_end = time.perf_counter() + 0.75
        i = 0
        while time.perf_counter() < t_end:
            q = queries[i % len(queries)]
            t0 = time.perf_counter()
            sharded.run(q, OPTIONS)
            quiesced.append((time.perf_counter() - t0) * 1e3)
            i += 1

        # Overlap: queries flow while update_edge rebuilds + replaces.
        during = []
        stop = threading.Event()
        loop = threading.Thread(
            target=_query_loop, args=(sharded, queries, stop, during))
        loop.start()
        time.sleep(0.05)  # let the loop reach steady state first
        t0 = time.perf_counter()
        sharded.update_edge(0, 1, 0.5)
        update_wall_ms = (time.perf_counter() - t0) * 1e3
        stop.set()
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert during, "no query completed during the update window"

        # Parity: the fleet now answers like a fresh engine over the
        # updated graph — the rebuild really did land everywhere.
        expected = g.copy()
        apply_edge_mutation(expected, 0, 1, 0.5)
        fresh = KOSREngine.build(expected)
        for q in queries[:4]:
            got = sharded.run(q, OPTIONS)
            cold = fresh.run(q, options=OPTIONS)
            assert got.witnesses == cold.witnesses
            assert got.costs == cold.costs
            assert got.stats.nn_queries == cold.stats.nn_queries
            assert got.stats.examined_routes == cold.stats.examined_routes

        payload = {
            "num_shards": NUM_SHARDS,
            "num_vertices": N_VERTICES,
            "update_wall_ms": update_wall_ms,
            "quiesced_queries": len(quiesced),
            "quiesced_p50_ms": statistics.median(quiesced),
            "during_update_queries": len(during),
            "during_update_p50_ms": statistics.median(during),
            "during_update_max_ms": max(during),
        }
        emit_json("bench_update_latency", payload)

        # The fleet kept serving: the worst stall any query saw is far
        # below the update's wall time (a blocking update would pin at
        # least one query for ~the whole rebuild).
        assert payload["during_update_max_ms"] < update_wall_ms
        # And typical latency stayed in the quiesced ballpark (generous
        # bound: CI boxes are noisy; the failure mode this guards
        # against is p50 jumping to ~update_wall_ms).
        assert payload["during_update_p50_ms"] < max(
            20.0 * payload["quiesced_p50_ms"], update_wall_ms / 4)
    finally:
        sharded.close()
