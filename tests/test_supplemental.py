"""Supplemental coverage: branches not exercised by the per-module suites."""

import math
import random

import pytest

from repro import KOSREngine, QueryOptions
from repro.exceptions import IndexBuildError
from repro.experiments import datasets as ds
from repro.experiments import figures
from repro.experiments.charts import bar_chart
from repro.experiments.runner import run_workload
from repro.experiments.workload import Workload, random_queries
from repro.graph import from_edge_list, random_graph
from repro.graph.categories import assign_uniform_categories
from repro.graph.categories import zipfian_sizes
from repro.graph.generators import social_network
from repro.labeling import build_labels_auto
from repro.paths.dijkstra import dijkstra_distance


@pytest.fixture(scope="module", autouse=True)
def tiny_scale():
    old_scale, old_q = ds.BENCH_SCALE, ds.BENCH_QUERIES
    ds.BENCH_SCALE, ds.BENCH_QUERIES = 0.05, 2
    ds.clear_caches()
    yield
    ds.BENCH_SCALE, ds.BENCH_QUERIES = old_scale, old_q
    ds.clear_caches()


class TestFiguresDijPath:
    def test_dij_methods_run_the_full_workload(self):
        """Same algorithm, other oracle, same queries: identical counts
        (the *-Dij bars used to be means over a truncated workload)."""
        rows, _ = figures.run_figure("fig3a", datasets=("CAL",))
        by = {r["method"]: r for r in rows}
        for twin in ("KPNE", "PK", "SK"):
            assert not by[f"{twin}-Dij"]["unfinished"]
            assert (by[f"{twin}-Dij"]["examined_routes"]
                    == by[twin]["examined_routes"] > 0)
        assert all(pred(rows) for _, pred in figures.FIGURES["fig3b"].expect[-3:])

    def test_fig7_gsp_ch_runs(self):
        rows, _ = figures.run_figure("fig7", datasets=("CAL",),
                                     methods=("GSP", "GSP-CH"))
        by = {r["method"]: r for r in rows}
        assert not math.isinf(by["GSP-CH"]["time_ms"])
        assert by["GSP-CH"]["examined_routes"] == by["GSP"]["examined_routes"]


class TestRunnerSkDb:
    def test_run_workload_sk_db_attaches_store(self):
        engine = ds.engine_for("CAL")
        workload = random_queries(engine.graph, 1, 2, 2, seed=3)
        agg = run_workload(engine, workload, "SK-DB")
        assert agg.totals.index_load_time > 0
        # second run reuses the already-attached store
        agg2 = run_workload(engine, workload, "SK-DB")
        assert agg2.num_queries == 1


class TestPackedErrorBranch:
    def test_find_parent_missing_hub_raises(self):
        g = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
        packed = build_labels_auto(g)
        with pytest.raises(IndexBuildError):
            packed._find_parent(packed._lout, 0, hub_rank=999)


class TestChartEdges:
    def test_equal_values_full_bar(self):
        rows = [{"m": "a", "v": 2.0}, {"m": "b", "v": 2.0}]
        text = bar_chart(rows, ["m"], "v", log=False)
        assert text.count("#") > 0

    def test_all_inf(self):
        rows = [{"m": "a", "v": math.inf}]
        text = bar_chart(rows, ["m"], "v")
        assert "INF" in text


class TestGeneratorsDetails:
    def test_zipfian_sizes_total_close_to_target(self):
        sizes = zipfian_sizes(20, 5000, 1.6)
        assert abs(sum(sizes) - 5000) < 5000 * 0.15

    def test_social_network_degree_skew(self):
        g = social_network(200, attach=5, seed=1)
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        # preferential attachment: the top vertex is well above the median
        assert degrees[0] > 3 * degrees[len(degrees) // 2]

    def test_reversed_graph_swaps_distances(self):
        g = random_graph(25, 2.5, rng=random.Random(55))
        rev = g.reversed()
        rng = random.Random(56)
        for _ in range(10):
            s, t = rng.randrange(25), rng.randrange(25)
            assert dijkstra_distance(rev, t, s) == pytest.approx(
                dijkstra_distance(g, s, t)
            )


class TestEngineGspChParity:
    def test_gsp_ch_through_engine_on_dataset(self):
        engine = ds.engine_for("COL")
        workload = random_queries(engine.graph, 2, 2, 1, seed=7)
        for q in workload:
            a = engine.run(q, QueryOptions(method="GSP")).costs
            b = engine.run(q, QueryOptions(method="GSP-CH")).costs
            assert b == pytest.approx(a)


class TestWorkloadContainer:
    def test_len_and_iter(self):
        g = random_graph(10, 2.0, rng=random.Random(1))
        assign_uniform_categories(g, 1, 3, random.Random(2))
        w = random_queries(g, 4, 1, 1, seed=1)
        assert len(w) == 4
        assert len(list(w)) == 4
        assert len(Workload([])) == 0
