"""Figure 3(f): effect of |C| on the FLA analogue.

Paper shape: KPNE's space explodes exponentially in |C| (INF beyond small
|C|); PK and SK grow polynomially, with SK growing the slowest.
"""

from repro import QueryOptions
from repro.experiments import figures

from benchmarks._shared import emit, representative_query


def test_fig3f_effect_c_fla(benchmark):
    rows, cols = figures.fig3_effect_c("FLA")
    emit("fig3f_effect_c_fla", rows, cols, "Figure 3(f) — effect of |C|, FLA")
    sk = [r for r in rows if r["method"] == "SK"]
    assert [r["c_len"] for r in sk] == [2, 4, 6, 8, 10]
    engine, query = representative_query("FLA", c_len=10)
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
