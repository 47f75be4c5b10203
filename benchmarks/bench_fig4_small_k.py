"""Figure 4: small k ∈ {1..5, 10} on CAL and FLA analogues.

Paper shape: query time changes only slightly as k grows — finding the
next-best routes reuses the first route's searching space.
"""

from repro import QueryOptions
from repro.experiments import figures

from benchmarks._shared import emit, representative_query


def test_fig4_small_k(benchmark):
    rows, cols = figures.fig4_small_k()
    emit("fig4_small_k", rows, cols, "Figure 4 — small k, CAL + FLA")
    sk = [r for r in rows if r["method"] == "SK" and r["dataset"] == "CAL"]
    assert [r["k"] for r in sk] == [1, 2, 3, 4, 5, 10]
    engine, query = representative_query("CAL", k=1)
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
