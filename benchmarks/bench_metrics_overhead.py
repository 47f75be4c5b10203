"""Metrics-instrumentation overhead: the disabled registry must be free.

Every serving layer guards its metric work with ``if REGISTRY.enabled:``
so that a server run without ``--metrics`` pays one global load, one
attribute read, and one branch per query — nothing else.  This benchmark
pins that claim with a gate:

* **bare** — the pre-instrumentation baseline: the execution layer's
  ``_METRICS`` module global is nulled out, so its guard short-circuits
  at the first pointer comparison (within one comparison of the code
  before this subsystem existed; the service layer books nothing per
  query);
* **disabled** — the shipped default: the real registry, ``enabled``
  False;
* **enabled** — full instrumentation (informational; per-method
  counters and the latency histogram per query — session-cache counters
  are sampled only when a snapshot is taken, which this loop never
  does).

The gate asserts ``disabled <= bare * 1.02`` on best-of-N round times —
min-of-rounds is the noise-robust statistic for an overhead claim, and
the modes are interleaved round-robin so drift (thermal, page cache)
hits all three equally.  On a noisy shared host a lucky dip in one
series can still push the min-ratio past 2%, so the gate is adaptive:
a failing ratio earns more interleaved rounds (up to ``MAX_ROUNDS``)
before judgment — a genuine regression keeps failing with more
samples, a noise artifact converges away.  Results persist to
``benchmarks/results/bench_metrics_overhead.json``.
"""

import time

from benchmarks._shared import emit_json
from repro import QueryOptions
from repro.experiments import datasets as ds
from repro.experiments.workload import random_queries
from repro.obs.metrics import REGISTRY
import repro.service.execution as execution

NUM_QUERIES = 128
C_LEN = 2
K = 4
ROUNDS = 9
MAX_ROUNDS = 33
EXTRA_ROUNDS = 6
GATE_RATIO = 1.02

OPTIONS = QueryOptions(method="SK")


def _time_round(service, queries) -> float:
    t0 = time.perf_counter()
    for q in queries:
        service.run(q, OPTIONS)
    return time.perf_counter() - t0


def test_metrics_disabled_overhead_gate():
    engine = ds.engine_for("CAL")
    workload = random_queries(engine.graph, NUM_QUERIES, C_LEN, K, seed=83)
    queries = workload.queries
    service = engine.service
    service.run_batch(queries[:4], OPTIONS)  # warm the session + allocator

    saved = execution._METRICS
    times = {"bare": [], "disabled": [], "enabled": []}

    def _interleaved_rounds(n):
        for _ in range(n):
            # bare: guards short-circuit on `is not None`
            execution._METRICS = None
            times["bare"].append(_time_round(service, queries))
            # disabled: the shipped default
            execution._METRICS = REGISTRY
            REGISTRY.disable()
            times["disabled"].append(_time_round(service, queries))
            # enabled: full instrumentation
            REGISTRY.enable()
            times["enabled"].append(_time_round(service, queries))

    try:
        _interleaved_rounds(ROUNDS)
        while (min(times["disabled"]) > min(times["bare"]) * GATE_RATIO
               and len(times["bare"]) < MAX_ROUNDS):
            _interleaved_rounds(EXTRA_ROUNDS)
    finally:
        execution._METRICS = saved
        REGISTRY.disable()
        REGISTRY.reset()

    rounds_run = len(times["bare"])
    best = {mode: min(series) for mode, series in times.items()}
    disabled_ratio = best["disabled"] / best["bare"]
    enabled_ratio = best["enabled"] / best["bare"]
    payload = {
        "workload": {
            "dataset": "CAL",
            "scale": ds.BENCH_SCALE,
            "num_queries": NUM_QUERIES,
            "c_len": C_LEN,
            "k": K,
            "method": "SK",
            "rounds": rounds_run,
        },
        "best_round_seconds": best,
        "all_round_seconds": times,
        "disabled_over_bare": disabled_ratio,
        "enabled_over_bare": enabled_ratio,
        "gate": {
            "max_disabled_over_bare": GATE_RATIO,
            "passed": disabled_ratio <= GATE_RATIO,
        },
    }
    emit_json("bench_metrics_overhead", payload)
    print(f"\nmetrics overhead (best of {rounds_run}): "
          f"bare {best['bare'] * 1000:.1f} ms, "
          f"disabled {best['disabled'] * 1000:.1f} ms "
          f"({(disabled_ratio - 1) * 100:+.2f}%), "
          f"enabled {best['enabled'] * 1000:.1f} ms "
          f"({(enabled_ratio - 1) * 100:+.2f}%)")
    assert disabled_ratio <= GATE_RATIO, (
        f"metrics-disabled overhead {disabled_ratio:.4f}x exceeds the "
        f"{GATE_RATIO}x gate over the bare baseline")
