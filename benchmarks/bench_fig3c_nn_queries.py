"""Figure 3(c): number of executed NN queries per method per graph.

Paper shape: SK issues fewer total NN queries than PK despite needing
several plain-NN fetches per estimated neighbor; *-Dij counts equal their
FindNN twins (the algorithm is unchanged, only the oracle differs).
"""

from repro import QueryOptions

from benchmarks._shared import emit, overall_sweep, representative_query


def test_fig3c_nn_queries(benchmark):
    rows, cols = overall_sweep()
    emit("fig3c_nn_queries", rows,
         ["dataset", "method", "nn_queries", "unfinished"],
         "Figure 3(c) — NN queries")
    by = {(r["dataset"], r["method"]): r for r in rows}
    for dataset in ("CAL", "FLA"):
        sk = by[(dataset, "SK")]
        assert sk["nn_queries"] > 0
    engine, query = representative_query("CAL")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
