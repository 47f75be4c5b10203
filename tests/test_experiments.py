"""Tests for the evaluation harness (workloads, runner, figures, reporting)."""

import dataclasses
import importlib.util
import math
import random
import re
from pathlib import Path

import pytest

from repro import KOSREngine
from repro.experiments import datasets as ds
from repro.experiments import figures
from repro.experiments.reporting import format_cell, format_table
from repro.experiments.runner import (
    INF,
    METHOD_LEGEND,
    MethodAggregate,
    run_workload,
)
from repro.experiments.workload import random_queries
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories


@pytest.fixture(scope="module", autouse=True)
def tiny_scale():
    """Pin the harness to a tiny scale so tests stay fast."""
    old_scale, old_q = ds.BENCH_SCALE, ds.BENCH_QUERIES
    ds.BENCH_SCALE, ds.BENCH_QUERIES = 0.05, 2
    ds.clear_caches()
    yield
    ds.BENCH_SCALE, ds.BENCH_QUERIES = old_scale, old_q
    ds.clear_caches()


@pytest.fixture(scope="module")
def small_case():
    g = random_graph(25, 3.0, rng=random.Random(5))
    assign_uniform_categories(g, 4, 6, random.Random(6))
    return g, KOSREngine.build(g)


class TestWorkload:
    def test_deterministic_given_seed(self, small_case):
        g, _ = small_case
        a = random_queries(g, 5, 2, 3, seed=9)
        b = random_queries(g, 5, 2, 3, seed=9)
        assert a.queries == b.queries

    def test_respects_parameters(self, small_case):
        g, _ = small_case
        w = random_queries(g, 7, 3, 4, seed=1)
        assert len(w) == 7
        for q in w:
            assert len(q.categories) == 3
            assert q.k == 4

    def test_sampling_without_replacement_when_possible(self, small_case):
        g, _ = small_case
        w = random_queries(g, 5, 4, 1, seed=2)
        for q in w:
            assert len(set(q.categories)) == 4

    def test_with_replacement_when_needed(self, small_case):
        g, _ = small_case
        w = random_queries(g, 3, 10, 1, seed=3)
        assert all(len(q.categories) == 10 for q in w)

    def test_no_eligible_categories_raises(self):
        g = random_graph(10, 2.0, rng=random.Random(0))
        with pytest.raises(ValueError):
            random_queries(g, 1, 1, 1)


class TestRunner:
    def test_aggregate_means(self, small_case):
        g, engine = small_case
        w = random_queries(g, 3, 2, 2, seed=4)
        agg = run_workload(engine, w, "SK")
        assert agg.num_queries == 3
        assert agg.unfinished == 0
        assert agg.mean_time_ms > 0
        assert agg.mean_examined > 0
        assert agg.mean_nn_queries > 0

    def test_inf_on_unfinished(self, small_case):
        g, engine = small_case
        w = random_queries(g, 2, 3, 5, seed=5)
        agg = run_workload(engine, w, "KPNE", budget=2)
        assert agg.unfinished == 1  # short-circuits after the first INF
        assert math.isinf(agg.mean_time_ms)

    def test_no_short_circuit_when_disabled(self, small_case):
        g, engine = small_case
        w = random_queries(g, 2, 3, 5, seed=5)
        agg = run_workload(engine, w, "KPNE", budget=2,
                           stop_after_first_unfinished=False)
        assert agg.unfinished == 2
        assert agg.num_queries == 2

    def test_legend_covers_paper_methods(self):
        assert set(METHOD_LEGEND) >= {
            "KPNE-Dij", "PK-Dij", "SK-Dij", "KPNE", "PK", "SK", "SK-DB",
        }

    def test_gsp_label(self, small_case):
        g, engine = small_case
        w = random_queries(g, 2, 2, 1, seed=6)
        agg = run_workload(engine, w, "GSP")
        assert agg.num_queries == 2

    def test_empty_aggregate_is_inf(self):
        agg = MethodAggregate(label="x")
        assert math.isinf(agg.mean_time_ms)


TINY = dict(scale=0.05, queries=2)
#: ``scaling`` sweeps absolute dataset scales; keep those tiny too
SHRINK = {"scaling": dict(sweep=("V", (0.05, 0.1)))}


def _row(method, examined, unfinished=0, **setting):
    return {"dataset": "CAL", **setting, "method": method, "time_ms": 1.0,
            "examined_routes": examined, "unfinished": unfinished}


class TestFigureTable:
    @pytest.mark.parametrize("name", list(figures.FIGURES))
    def test_every_row_runs(self, name):
        shrink = SHRINK.get(name, {})
        fig = dataclasses.replace(figures.FIGURES[name], **shrink)
        rows, cols = figures.run_figure(name, **TINY, **shrink)
        assert rows and all(set(cols) <= set(row) for row in rows)
        for sentence, pred, *why in fig.expect:
            assert isinstance(pred(rows), bool) and isinstance(pred.timing, bool)
        if fig.methods:  # dataset × sweep value × method, nothing dropped
            values = fig.sweep[1] if fig.sweep else (None,)
            assert len(rows) == len(fig.datasets) * len(values) * len(fig.methods)
            assert {r["method"] for r in rows} == set(fig.methods)
            assert {r["dataset"] for r in rows} == set(fig.datasets)

    def test_names_the_cli_knew_plus_the_new_three(self):
        assert set(figures.FIGURES) == {
            "table9", "fig3a", "fig3d", "fig3e", "fig3f", "fig3g", "fig3h",
            "fig4", "fig5", "fig6", "fig7", "table10", "ablation",
            "fig3b", "fig3c", "scaling"}
        assert "GSP" in figures.FIGURES["fig7"].methods
        assert set(figures.FIGURES["ablation"].methods) <= set(METHOD_LEGEND)
        assert METHOD_LEGEND["PK-DijResume"] == ("PK", "dij-resume")

    def test_overrides_select_datasets_and_methods(self):
        rows, cols = figures.run_figure("fig3a", datasets=("CAL",),
                                        methods=("PK", "SK"), **TINY)
        assert [(r["dataset"], r["method"]) for r in rows] == [
            ("CAL", "PK"), ("CAL", "SK")]
        assert cols == ["dataset", "method", "time_ms", "unfinished"]

    @pytest.mark.parametrize("name, sweep, expected", [
        ("fig3e", ("k", (1, 2)), [1, 2]),
        ("fig3g", ("c_len", (2, 3)), [2, 3]),
        ("fig3h", ("category_size", (0.02, 0.04)), [3, 7]),  # of 196 vertices
        ("fig6", ("zipf_factor", (1.2,)), [1.2]),
    ])
    def test_sweep_values_label_the_rows(self, name, sweep, expected):
        rows, cols = figures.run_figure(name, sweep=sweep, methods=("SK",), **TINY)
        assert [r[sweep[0]] for r in rows] == expected and sweep[0] in cols

    def test_views_and_table9_fields(self):
        rows, cols = figures.run_figure("fig5", datasets=("CAL",), **TINY)
        assert cols[:3] == ["dataset", "level_0", "level_1"]
        assert rows[0]["level_0"] == 1.0  # the source, once per query
        rows, cols = figures.run_figure("table10", **TINY)
        assert cols == ["method", "overall_ms", "nn_query_ms", "queue_ms",
                        "estimation_ms", "other_ms"]
        assert all(r["overall_ms"] >= r["nn_query_ms"] > 0 for r in rows)
        assert rows[0]["estimation_ms"] == 0.0 < rows[1]["estimation_ms"]  # PK, SK
        rows, cols = figures.run_figure("table9", datasets=("CAL",), **TINY)
        assert rows[0]["graph"] == "CAL" and rows[0]["label_build_s"] > 0


class TestRecord:
    def test_inferred_figures_share_one_sweep(self, monkeypatch):
        calls = []
        sweep = figures._sweep
        monkeypatch.setattr(figures, "_sweep", lambda fig, *a: (
            calls.append(fig.name), sweep(fig, *a))[1])
        text = figures.record(("fig3a", "fig3b", "fig3c"), **TINY)
        assert calls == ["fig3a"]
        assert "--scale 0.05 --queries 2" in text.splitlines()[2]
        for name in ("fig3a", "fig3b", "fig3c"):
            fig = figures.FIGURES[name]
            assert f"## {fig.title}" in text and f"Paper: {fig.claim}" in text
            verdict = rf"^- {name}( \[timing\])?: .* — (holds|DIFFERS)$"
            assert len(re.findall(verdict, text, re.M)) == len(fig.expect)

    def test_why_under_a_differs_only_and_timing_tag(self):
        fig = dataclasses.replace(figures.FIGURES["fig3b"], expect=(
            figures.at_most("examined_routes", "SK", "PK") + ("because",),
            figures.at_most("examined_routes", "PK", "SK") + ("unused",),
            figures.same("time_ms", "SK", "PK")))
        assert figures.verdicts(fig, [_row("SK", 5), _row("PK", 3)]) == [
            "- fig3b: SK ≤ PK in examined_routes wherever both finish — DIFFERS",
            "  - why: because",
            "- fig3b: PK ≤ SK in examined_routes wherever both finish — holds",
            "- fig3b [timing]: SK = PK in time_ms wherever both finish — holds"]


class TestCheckHelpers:
    SWEEP = [_row("SK", 10, k=1), _row("PK", 10, k=1),
             _row("SK", 30, k=2), _row("PK", 20, k=2)]

    @pytest.mark.parametrize("check, rows", [
        (figures.finishes("SK"), [_row("SK", 1, unfinished=1)]),
        (figures.at_most("examined_routes", "SK", "PK"), [_row("SK", 5), _row("PK", 3)]),
        (figures.same("examined_routes", "SK", "PK"), [_row("SK", 5), _row("PK", 3)]),
        (figures.grows("examined_routes", "SK"), [_row("SK", 5, k=1), _row("SK", 5, k=2)]),
        (figures.flatter("examined_routes", "SK", "PK"), SWEEP),
        (figures.sublinear("examined_routes", "SK", "k"), SWEEP),
    ])
    def test_false_case_and_unfinished_pair_skipped(self, check, rows):
        sentence, pred = check
        assert pred(rows) is False, sentence
        if "finish at every" not in sentence:
            assert pred([dict(r, unfinished=r["method"] == "SK") for r in rows]) is True

    def test_true_cases_and_pairing_within_a_setting(self):
        for check in (figures.finishes("SK", "PK"),
                      figures.at_most("examined_routes", "PK", "SK"),
                      figures.at_most("examined_routes", "SK", "PK", 1.5),
                      figures.grows("examined_routes", "PK"),
                      figures.flatter("examined_routes", "PK", "SK"),
                      figures.sublinear("examined_routes", "PK", "k")):
            assert check[1](self.SWEEP[:2] + [_row("SK", 30, k=4), _row("PK", 20, k=4)])
        # k=1's SK is not compared with k=2's PK
        assert figures.at_most("examined_routes", "SK", "PK")[1](
            [_row("SK", 9, k=1), _row("PK", 1, k=2)])


class TestVerdictGate:
    """tools/check_experiments.py: gated lines decide, timing lines do not."""

    @pytest.fixture(scope="class")
    def gate(self):
        path = Path(__file__).resolve().parent.parent / "tools" / "check_experiments.py"
        spec = importlib.util.spec_from_file_location("check_experiments", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_flipped_gated_line_fails(self, gate, tmp_path, capsys):
        committed = gate.COMMITTED.read_text()
        line = next(l for l in gate.gated_verdicts(committed) if l.endswith("holds"))
        flipped = line.replace(" — holds", " — DIFFERS")
        (tmp_path / "fresh.md").write_text(committed.replace(line, flipped))
        assert gate.main([str(tmp_path / "fresh.md")]) == 1
        assert flipped in capsys.readouterr().out

    def test_flipped_timing_line_and_numbers_are_ignored(self, gate, tmp_path):
        committed = gate.COMMITTED.read_text()
        timing = next(l for l in committed.splitlines()
                      if l.startswith("- ") and "[timing]" in l and l.endswith("holds"))
        (tmp_path / "fresh.md").write_text(
            committed.replace(timing, timing.replace("holds", "DIFFERS"))
            .replace(" | ", " |  "))
        assert gate.main([str(tmp_path / "fresh.md")]) == 0


class TestDatasetsCache:
    def test_engine_cached(self):
        a = ds.engine_for("CAL")
        b = ds.engine_for("CAL")
        assert a is b

    def test_fla_custom_reuses_labels(self):
        base = ds.engine_for("FLA")
        custom = ds.fla_engine_with_categories(category_fraction=0.05)
        assert custom.labels is base.labels
        assert custom is not base

    def test_clear_caches(self):
        a = ds.engine_for("CAL")
        ds.clear_caches()
        assert ds.engine_for("CAL") is not a


class TestReporting:
    def test_format_cell_inf(self):
        assert format_cell(INF) == "INF"

    def test_format_cell_thousands(self):
        assert format_cell(12345.6) == "12,346"

    def test_format_table_renders(self):
        rows = [{"a": 1, "b": INF}, {"a": 2, "b": 0.5}]
        text = format_table(rows, ["a", "b"], title="T")
        assert "T" in text and "INF" in text
        assert len(text.splitlines()) == 5
