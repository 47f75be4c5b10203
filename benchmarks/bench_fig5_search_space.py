"""Figure 5: SK's searching space at each category position.

Paper shape: examined routes rise over the first levels (loose estimates
admit more candidates), then shrink as estimates tighten towards the real
optimal cost; the final level examines ~k routes.
"""

from repro import QueryOptions
from repro.experiments import datasets as ds
from repro.experiments import figures

from benchmarks._shared import emit, representative_query


def test_fig5_search_space(benchmark):
    rows, cols = figures.fig5_search_space()
    emit("fig5_search_space", rows, cols,
         "Figure 5 — SK examined routes per category level")
    for row in rows:
        levels = [v for k, v in row.items() if k.startswith("level_")]
        assert levels[0] <= max(levels), "space should rise from the source"
    engine, query = representative_query("COL")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK")))
