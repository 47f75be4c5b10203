"""Figure 3(a): query run-time of all seven methods on all five graphs.

Paper shape: SK fastest everywhere; PK beats KPNE; every *-Dij variant is
orders of magnitude slower than its FindNN twin (or INF); KPNE is INF on
the larger uniform-category graphs (COL/FLA/G+); SK-DB trails SK but beats
PK.
"""

import math

from repro import QueryOptions

from benchmarks._shared import emit, overall_sweep, representative_query


def test_fig3a_overall_time(benchmark):
    rows, cols = overall_sweep()
    emit("fig3a_overall_time", rows,
         ["dataset", "method", "time_ms", "unfinished"],
         "Figure 3(a) — query run-time (ms)")
    by = {(r["dataset"], r["method"]): r["time_ms"] for r in rows}
    # SK must finish everywhere and never lose to PK by more than noise.
    for dataset in ("CAL", "NYC", "COL", "FLA", "G+"):
        assert not math.isinf(by[(dataset, "SK")])
    engine, query = representative_query("FLA")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
