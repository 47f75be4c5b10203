"""Ablation: isolate the dominance tables, the A* heuristic, and the NN
oracle (DESIGN.md design-choice index).

Expected shape: each ingredient helps on its own; the combination (SK)
examines the fewest routes; FindNN over the inverted label index beats the
resumable Dijkstra cursor, which beats the paper's restarting Dijkstra.
"""

from repro import QueryOptions
from repro.experiments import figures

from benchmarks._shared import emit, representative_query


def test_ablation_design_choices(benchmark):
    rows, cols = figures.ablation_design_choices()
    emit("ablation", rows, cols, "Ablation — FLA analogue")
    by = {r["variant"]: r for r in rows}
    assert by["both (SK)"]["examined_routes"] <= (
        by["dominance only (PK)"]["examined_routes"] * 1.05
    )
    engine, query = representative_query("FLA")
    benchmark(lambda: engine.run(query, QueryOptions(method="SK-NODOM")))
