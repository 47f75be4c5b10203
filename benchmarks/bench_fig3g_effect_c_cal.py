"""Figure 3(g): effect of |C| on the CAL analogue."""

from repro import QueryOptions
from repro.experiments import figures

from benchmarks._shared import emit, representative_query


def test_fig3g_effect_c_cal(benchmark):
    rows, cols = figures.fig3_effect_c("CAL")
    emit("fig3g_effect_c_cal", rows, cols, "Figure 3(g) — effect of |C|, CAL")
    sk = [r for r in rows if r["method"] == "SK"]
    assert all(not r["unfinished"] for r in sk)
    engine, query = representative_query("CAL", c_len=10)
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
