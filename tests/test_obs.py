"""The observability subsystem: registry semantics and answer parity.

Pins the PR 7 contracts of :mod:`repro.obs`:

* instrument semantics — counters are monotonic, gauges move both ways,
  histograms bucket correctly and estimate quantiles;
* registry identity — ``(name, type, labels)`` keys a single instrument
  regardless of label keyword order;
* snapshots are plain JSON-able data and :func:`merge_snapshots` folds
  router + worker snapshots element-wise (with a hard error on
  histogram-bound mismatches);
* **parity under instrumentation** — enabling the registry must not
  change a single bit of any answer or ``QueryStats`` counter, across
  every method and across warm/cold paths (the suite-wide version of
  this runs the parity/fuzz files with ``REPRO_METRICS=1``);
* per-layer recording — the execution layer populates the method-labeled
  counters/histograms, the session cache publishes hit/miss deltas.
"""

import json
import math
import random

import pytest

from repro import KOSREngine, QueryOptions, make_query
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.obs.metrics import (
    LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    merge_snapshots,
    quantile_from_buckets,
)

from test_backend_parity import assert_same_outcome


class TestInstruments:
    def test_counter_is_monotonic(self):
        c = Counter("x_total", {})
        c.inc()
        c.inc(41)
        assert c.value == 42
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth", {})
        g.set(10)
        g.inc(5)
        g.dec(12)
        assert g.value == 3

    def test_histogram_buckets_observations(self):
        h = Histogram("lat", {}, bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.1, 0.5, 5.0, 50.0):
            h.observe(v)
        # bucket i counts observations <= bounds[i]; +inf bucket last
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(55.65)

    def test_histogram_quantiles(self):
        h = Histogram("lat", {}, bounds=(0.001, 0.01, 0.1))
        for _ in range(98):
            h.observe(0.005)
        h.observe(0.05)
        h.observe(5.0)
        assert h.quantile(0.5) == 0.01
        assert h.quantile(0.99) == 0.1
        assert h.quantile(1.0) == float("inf")

    def test_quantile_of_empty_histogram_is_zero(self):
        assert quantile_from_buckets((1.0,), [0, 0], 0.99) == 0.0

    def test_default_bounds_are_the_latency_ladder(self):
        h = Histogram("lat", {})
        assert h.bounds == LATENCY_BUCKETS_S
        assert len(h.counts) == len(LATENCY_BUCKETS_S) + 1


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("q_total", method="SK")
        b = reg.counter("q_total", method="SK")
        assert a is b

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("q_total", method="SK", shard="0")
        b = reg.counter("q_total", shard="0", method="SK")
        assert a is b

    def test_distinct_labels_distinct_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("q_total", method="SK") is not \
            reg.counter("q_total", method="PK")
        # and types are namespaced: a gauge never aliases a counter
        assert reg.gauge("depth") is not reg.counter("depth")

    def test_enable_disable_reset(self):
        reg = MetricsRegistry()
        assert not reg.enabled
        reg.enable()
        assert reg.enabled
        reg.counter("x_total").inc()
        reg.reset()
        assert reg.snapshot()["metrics"] == []
        reg.disable()
        assert not reg.enabled

    def test_snapshot_is_plain_json_able_data(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("q_total", method="SK").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat").observe(0.004)
        snap = reg.snapshot()
        # must survive the TCP probe's JSON round trip unchanged
        assert json.loads(json.dumps(snap)) == snap
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["q_total"]["value"] == 3
        assert by_name["q_total"]["labels"] == {"method": "SK"}
        assert by_name["depth"]["value"] == 2
        assert by_name["lat"]["count"] == 1


class TestMergeSnapshots:
    def _snap(self, counter=0, gauge=0, observations=()):
        reg = MetricsRegistry(enabled=True)
        if counter:
            reg.counter("q_total", method="SK").inc(counter)
        if gauge:
            reg.gauge("depth").set(gauge)
        for v in observations:
            reg.histogram("lat", bounds=(0.1, 1.0)).observe(v)
        return reg.snapshot()

    def test_counters_gauges_and_histograms_add(self):
        merged = merge_snapshots([
            self._snap(counter=2, gauge=1, observations=(0.05, 0.5)),
            self._snap(counter=3, gauge=4, observations=(5.0,)),
        ])
        by_name = {m["name"]: m for m in merged["metrics"]}
        assert by_name["q_total"]["value"] == 5
        assert by_name["depth"]["value"] == 5
        assert by_name["lat"]["counts"] == [1, 1, 1]
        assert by_name["lat"]["count"] == 3
        assert by_name["lat"]["sum"] == pytest.approx(5.55)

    def test_none_and_empty_snapshots_are_skipped(self):
        merged = merge_snapshots([None, {}, self._snap(counter=7)])
        (metric,) = merged["metrics"]
        assert metric["value"] == 7

    def test_merge_keeps_distinct_labels_apart(self):
        a = MetricsRegistry(enabled=True)
        a.counter("rt_total", shard="0").inc(2)
        b = MetricsRegistry(enabled=True)
        b.counter("rt_total", shard="1").inc(3)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        values = {m["labels"]["shard"]: m["value"]
                  for m in merged["metrics"]}
        assert values == {"0": 2, "1": 3}

    def test_histogram_bound_mismatch_is_an_error(self):
        a = MetricsRegistry(enabled=True)
        a.histogram("lat", bounds=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry(enabled=True)
        b.histogram("lat", bounds=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_result_is_itself_mergeable(self):
        """Fleet-of-fleets: merging is associative enough to chain."""
        first = merge_snapshots([self._snap(counter=1), self._snap(counter=2)])
        again = merge_snapshots([first, self._snap(counter=4)])
        (metric,) = [m for m in again["metrics"] if m["name"] == "q_total"]
        assert metric["value"] == 7


@pytest.fixture()
def enabled_registry():
    """The module-wide registry, enabled and clean, restored afterwards."""
    was_enabled = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enable()
    yield REGISTRY
    REGISTRY.enabled = was_enabled
    REGISTRY.reset()


def _graph(seed: int, n: int = 36, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


class TestParityUnderInstrumentation:
    """Answers and QueryStats must be bit-identical with metrics on."""

    @pytest.mark.parametrize("method", ["KPNE", "PK", "SK", "GSP"])
    def test_engine_answers_unchanged(self, method, enabled_registry):
        g = _graph(211)
        engine = KOSREngine.build(g)
        options = QueryOptions(method=method)
        k = 1 if method == "GSP" else 3  # GSP answers k = 1 (OSR) only
        queries = [make_query(g, s, 30, [0, 1], k=k) for s in (0, 1, 5)]
        instrumented = [engine.service.run(q, options) for q in queries]
        REGISTRY.disable()
        cold = KOSREngine.build(g)
        for q, got in zip(queries, instrumented):
            assert_same_outcome(got, cold.run(q, options))

    def test_streaming_answers_unchanged(self, enabled_registry):
        g = _graph(223)
        engine = KOSREngine.build(g)
        q = make_query(g, 0, 30, [0, 1], k=3)
        streamed = []
        result = engine.service.run(q, QueryOptions(),
                                    on_route=streamed.append)
        REGISTRY.disable()
        assert_same_outcome(result, KOSREngine.build(g).run(q))
        assert streamed == list(result.results)

    def test_warm_repeats_unchanged(self, enabled_registry):
        g = _graph(227)
        engine = KOSREngine.build(g)
        q = make_query(g, 1, 30, [0, 1], k=2)
        first = engine.service.run(q)
        warm = engine.service.run(q)  # second run hits the warm session
        assert_same_outcome(first, warm)


class TestLayerRecording:
    def test_execution_layer_records_method_metrics(self, enabled_registry):
        g = _graph(229)
        engine = KOSREngine.build(g)
        q = make_query(g, 0, 30, [0, 1], k=2)
        result = engine.service.run(q, QueryOptions(method="SK"))
        snap = enabled_registry.snapshot()
        by_key = {(m["name"], m["labels"].get("method")): m
                  for m in snap["metrics"]}
        assert by_key[("repro_queries_total", "SK")]["value"] == 1
        lat = by_key[("repro_query_latency_seconds", "SK")]
        assert lat["count"] == 1
        assert lat["sum"] == pytest.approx(result.stats.total_time)
        assert by_key[("repro_examined_routes_total", "SK")]["value"] == \
            result.stats.examined_routes
        assert by_key[("repro_nn_queries_total", "SK")]["value"] == \
            result.stats.nn_queries

    def test_cache_layer_publishes_deltas_not_totals(self, enabled_registry):
        g = _graph(233)
        engine = KOSREngine.build(g)
        q = make_query(g, 0, 30, [0, 1], k=2)
        engine.service.run(q)
        first = {m["name"]: m["value"]
                 for m in enabled_registry.snapshot()["metrics"]
                 if m["type"] == "counter"}
        engine.service.run(q)  # warm repeat: hits, no new misses
        second = {m["name"]: m["value"]
                  for m in enabled_registry.snapshot()["metrics"]
                  if m["type"] == "counter"}
        assert second["repro_cache_finder_hits_total"] >= \
            first.get("repro_cache_finder_hits_total", 0) + 1
        assert second["repro_cache_finder_misses_total"] == \
            first["repro_cache_finder_misses_total"]
        # FindNEN streams: marked by the first run, kept by the second,
        # read back by the third.
        assert "repro_cache_est_stream_hits_total" not in second
        assert second["repro_cache_est_stream_misses_total"] == \
            2 * first["repro_cache_est_stream_misses_total"]
        engine.service.run(q)
        third = {m["name"]: m["value"]
                 for m in enabled_registry.snapshot()["metrics"]
                 if m["type"] == "counter"}
        assert third["repro_cache_est_stream_hits_total"] == \
            first["repro_cache_est_stream_misses_total"]

    def test_disabled_registry_records_nothing(self):
        was_enabled = REGISTRY.enabled
        REGISTRY.reset()
        REGISTRY.disable()
        try:
            g = _graph(239)
            engine = KOSREngine.build(g)
            engine.service.run(make_query(g, 0, 30, [0, 1], k=2))
            assert REGISTRY.snapshot()["metrics"] == []
        finally:
            REGISTRY.enabled = was_enabled

    def test_incomplete_queries_counted(self, enabled_registry):
        g = _graph(241)
        engine = KOSREngine.build(g)
        q = make_query(g, 0, 30, [0, 1], k=3)
        result = engine.service.run(q, QueryOptions(budget=1))
        assert not result.stats.completed
        snap = {(m["name"], m["labels"].get("method")): m["value"]
                for m in enabled_registry.snapshot()["metrics"]
                if m["type"] == "counter"}
        assert snap[("repro_queries_incomplete_total", "SK")] == 1

    def test_populations_reports_warm_state_sizes(self):
        g = _graph(251)
        engine = KOSREngine.build(g)
        session = engine.service.session
        engine.service.run(make_query(g, 0, 30, [0, 1], k=2))
        pops = session.populations()
        assert set(pops) == {"dest_kernels", "finder_cursors", "est_streams"}
        assert pops["dest_kernels"] >= 1
        # One request only marks its streams; the repeat admits them.
        assert pops["est_streams"] == 0
        engine.service.run(make_query(g, 0, 30, [0, 1], k=2))
        assert session.populations()["est_streams"] >= 1
        assert all(isinstance(v, int) and not math.isnan(v)
                   for v in pops.values())
