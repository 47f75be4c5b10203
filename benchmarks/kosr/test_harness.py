"""Self-test of the benchmark harness (collected by the tier-1 command).

Checks the arithmetic and the accounting the reported numbers rest on —
on the paper's Figure-1 graph and stub servers, in a few seconds —
not the serving stack itself.
"""

from __future__ import annotations

import asyncio
import json
import re
from pathlib import Path

import pytest

from repro.core.engine import KOSREngine
from repro.graph.io import save_json
from repro.graph.paper import paper_figure1_graph
from repro.server.async_service import ServingStats
from repro.service.cache import CacheStats

from benchmarks.kosr import (hostspeed, loadgen, metrics, microops, trace,
                             workload)
from benchmarks.kosr.harness import Repetition, Segment, SegmentClock
from benchmarks.kosr.loadgen import Sample
from benchmarks.kosr.oracle import Oracle, sampled_ids
from benchmarks.kosr.summary import (median, over_repetitions, percentile,
                                     segment_spans)

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Figure 1's running example: s → t through MA, RE, CI
FIG1_OP = {"id": 0, "source": 6, "target": 7, "categories": [0, 1, 2], "k": 2}


@pytest.fixture(scope="module")
def fig1_oracle() -> Oracle:
    return Oracle(KOSREngine.build(paper_figure1_graph()), "SK")


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    values = [40.0, 10.0, 30.0, 20.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0
    assert percentile(values, 95) == pytest.approx(38.5)
    assert percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_median_of_repetitions_keeps_every_repetition():
    stats = over_repetitions([3.0, 9.0, 4.0])
    assert stats == {"median": 4.0, "min": 3.0, "max": 9.0,
                     "repetitions": [3.0, 9.0, 4.0]}
    assert median([1.0, 2.0]) == 1.5


def test_segment_spans_cover_the_list_once():
    assert segment_spans(10, 5) == [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    assert segment_spans(3, 5) == [(0, 1), (1, 2), (2, 3)]
    assert segment_spans(0, 5) == []


REF = hostspeed.REFERENCE_MS


def test_end_to_end_is_the_median_over_segments():
    # Three segments of two requests; the middle one hit a noise burst.
    latencies = [1.0, 1.0, 50.0, 70.0, 2.0, 2.0]
    rep = Repetition(
        setup_s=0.5, setup_slowdown=1.0, warmup=[], pss_mb=10.0,
        timed=[Sample({"id": i}, {"id": i}, ms)
               for i, ms in enumerate(latencies)],
        segments=[Segment(0, 2, 1.0, 0.5, REF), Segment(2, 4, 8.0, 0.1, REF),
                  Segment(4, 6, 1.0, 0.6, REF)])
    result = metrics.end_to_end(rep, failed_ids={5})
    assert result["p50_ms"] == 2.0          # of 1.0, 60.0, 2.0
    assert result["qps"] == 1.0             # of 2/1s, 2/8s, 1/1s
    assert result["cpu_ms_per_req"] == pytest.approx(250.0)
    assert result["fail_share"] == pytest.approx(1 / 6)
    assert result["host.slowdown"] == 1.0


def test_timings_are_brought_to_the_reference_host_speed():
    # The host ran at half speed (the fixed work took twice as long)
    # around the set-up and around the one segment.
    rep = Repetition(
        setup_s=3.0, setup_slowdown=2.0, warmup=[], pss_mb=10.0,
        timed=[Sample({"id": i}, {"id": i}, 8.0) for i in range(4)],
        segments=[Segment(0, 4, 2.0, 0.4, 2 * REF)])
    result = metrics.end_to_end(rep, failed_ids=set())
    assert result["host.slowdown"] == 2.0
    assert result["p50_ms"] == 4.0 and result["p95_ms"] == 4.0
    assert result["qps"] == 4.0             # 2/s measured
    assert result["cpu_ms_per_req"] == pytest.approx(50.0)
    assert result["setup_s"] == 1.5
    assert result["rss_mb"] == 10.0
    # An open loop's rate is its schedule's, whatever the host does.
    assert metrics.end_to_end(rep, set(), open_loop=True)["qps"] == 2.0


def test_slices_fall_outside_the_segments_they_bracket():
    cpu = iter([1.0, 1.5, 2.0, 4.0])
    slices = iter([3.0, 5.0, 9.0])
    clock = SegmentClock(lambda: next(cpu), lambda: next(slices))
    clock.before(0)
    clock.after(5)
    clock.before(5)
    clock.after(9)
    first, second = clock.segments()
    assert (first.lo, first.hi, second.lo, second.hi) == (0, 5, 5, 9)
    assert (first.cpu_s, second.cpu_s) == (0.5, 2.0)
    assert (first.slice_ms, second.slice_ms) == (4.0, 7.0)
    assert first.wall_s > 0 and second.wall_s > 0
    assert SegmentClock(lambda: 0.0, lambda: REF).segments() == []


def test_a_long_set_up_is_scaled_by_the_calls_made_during_it():
    probe = hostspeed.Probe()
    # Nothing was called during the wait: the two slices decide.
    assert hostspeed.setup_slowdown(0.25, 2 * REF, probe, 5.0, 4 * REF) \
        == 3.0
    probe.call()
    assert probe.calls == 1 and probe.spent_s > 0.0
    probe.spent_s = 2 * hostspeed.PROBE_REFERENCE_MS / 1000.0
    # Slices at the reference speed for half a second together, calls
    # twice as slow during a wait of a second and a half.
    assert hostspeed.setup_slowdown(0.25, REF, probe, 1.5, REF) \
        == pytest.approx((1.0 * 0.5 + 2.0 * 1.5) / 2.0)


def test_fixed_work_is_paced_or_back_to_back():
    busy = hostspeed.measure(0.03)
    paced = hostspeed.measure(0.03, period_s=0.015)   # two calls
    assert 0.1 < busy < 100.0 and 0.1 < paced < 100.0
    # No slice length, no measuring: the slice reads the reference.
    assert hostspeed.measure(0.0) == REF


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------
async def _stub_server(stall_first_s: float):
    """Echoes ``{"id": ...}``; the first request of a connection stalls."""
    async def handle(reader, writer):
        first = True
        while True:
            line = await reader.readline()
            if not line:
                break
            if first:
                await asyncio.sleep(stall_first_s)
                first = False
            record = json.loads(line)
            reply = {"stats": {}} if record.get("stats") else \
                {"id": record["id"]}
            writer.write(json.dumps(reply).encode() + b"\n")
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    ops = [{"id": i} for i in range(20)]
    marked = []

    async def scenario():
        server, port = await _stub_server(stall_first_s=0.08)
        async with server:
            return await loadgen.drive(
                "127.0.0.1", port, [], ops, loop_kind="open", connections=1,
                rate_per_s=200.0, segments=[(0, 10), (10, 20)],
                before_segment=lambda lo: marked.append(("before", lo)),
                after_segment=lambda hi: marked.append(("after", hi)))

    drive = asyncio.run(scenario())
    assert [s.reply["id"] for s in drive.timed] == list(range(20))
    # Request 1 was due 5 ms in and written on time, but its reply
    # waited behind the stalled request 0: the wait counts, from the
    # due time, while the generator itself was not late.
    assert drive.timed[1].latency_ms > 60.0
    assert drive.timed[1].late_ms < 30.0
    # The queue drains: requests due after the stall are answered fast.
    assert drive.timed[-1].latency_ms < drive.timed[1].latency_ms
    # The second segment starts on its own schedule, with nothing in
    # flight: its first request is as fast as its last.
    assert drive.timed[10].latency_ms < 30.0
    assert marked == [("before", 0), ("after", 10), ("before", 10),
                      ("after", 20)]


def test_closed_loop_waits_for_each_reply():
    ops = [{"id": i} for i in range(6)]

    async def scenario():
        server, port = await _stub_server(stall_first_s=0.05)
        async with server:
            return await loadgen.drive(
                "127.0.0.1", port, ops[:1], ops[1:], loop_kind="closed",
                connections=1)

    drive = asyncio.run(scenario())
    assert drive.warmup[0].latency_ms > 40.0     # paid the stall itself
    assert all(s.latency_ms < 40.0 for s in drive.timed)  # nobody queued
    assert all(s.reply_bytes > 0 for s in drive.timed)


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _span(span_id, name, start, end, parent=None, request=1, **extra):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "request": request, **extra}


HAND_BUILT = [
    _span(0, "async.submit", 0.0, 10.0),
    _span(1, "service.run", 2.0, 9.0, parent=0),
    _span(2, "service.cache.validate", 2.0, 3.0, parent=1),
    _span(3, "core.execute_plan", 3.0, 8.0, parent=1),
    _span(4, "service.cache.dest_kernel", 4.0, 5.5, parent=3, miss=True),
    _span(5, "service.cache.finder_view", 5.5, 6.0, parent=3, miss=False),
]


def test_self_time_subtracts_what_children_cover():
    own = trace.self_times(HAND_BUILT)
    assert own[0] == pytest.approx(3.0)    # 10 - [2, 9]
    assert own[1] == pytest.approx(1.0)    # 7 - [2, 3] - [3, 8]
    assert own[3] == pytest.approx(3.0)    # 5 - [4, 5.5] - [5.5, 6]
    assert own[4] == pytest.approx(1.5)
    # Children that overlap (a fan-out) or outlive their parent are
    # subtracted once, and only where they cover the parent.
    fan_out = [_span(0, "shard.run", 0.0, 10.0),
               _span(1, "shard.a", 1.0, 6.0, parent=0),
               _span(2, "shard.b", 4.0, 12.0, parent=0)]
    assert trace.self_times(fan_out)[0] == pytest.approx(1.0)


def test_layer_shares_of_a_request_sum_to_one():
    # seconds → the client saw 12 s = 12000 ms for the one request
    report = trace.layer_report(HAND_BUILT, [12000.0])
    layers = report["layers"]
    assert layers["tcp"]["self_p50_ms"] == pytest.approx(2000.0)
    assert layers["async"]["self_p50_ms"] == pytest.approx(3000.0)
    assert layers["service"]["self_p50_ms"] == pytest.approx(4000.0)
    assert layers["core"]["self_p50_ms"] == pytest.approx(3000.0)
    assert sum(e["share"] for e in layers.values()) == pytest.approx(1.0)
    assert report["async_wait_p50_ms"] == pytest.approx(2000.0)
    assert report["cache_build_mean_ms"] == pytest.approx(1500.0)
    with pytest.raises(ValueError):
        trace.layer_report(HAND_BUILT, [1.0, 2.0])


def test_recorder_nests_spans_and_reports_worker_time():
    recorder = trace.SpanRecorder()

    class Service:
        def run(self):
            return self.inner()

        def inner(self):
            return 7

    recorder.wrap(Service, "run", "shard.run",
                  after=lambda span, result, *args: recorder.add_child(
                      span, "core.execute_plan", 0.0))
    recorder.wrap(Service, "inner", "shard.inner")
    assert Service().run() == 7 and Service().run() == 7
    outer, inner, worker = recorder.spans[:3]
    assert (outer["parent"], inner["parent"]) == (None, outer["id"])
    assert worker["parent"] == outer["id"] and worker["synthetic"]
    assert [s["request"] for s in recorder.spans] == [1, 1, 1, 2, 2, 2]
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def test_oracle_accepts_the_engines_own_answer(fig1_oracle):
    reply = fig1_oracle.expected(FIG1_OP)
    assert reply["costs"] == [20.0, 21.0]   # Example 1 of the paper
    assert fig1_oracle.failures([FIG1_OP], [reply], seed=1) == []


@pytest.mark.parametrize("corrupt, reason", [
    (lambda r: r.update(costs=[20.0, 22.0]), "costs"),
    (lambda r: r["witnesses"][0].reverse(), "witnesses"),
    (lambda r: r.update(nn_queries=r["nn_queries"] + 1), "nn_queries"),
    (lambda r: r.update(costs=r["costs"][::-1]), "not ascending"),
    (lambda r: r.update(completed=False), "did not complete"),
    (lambda r: r.update(error="boom"), "error: boom"),
    (lambda r: r.update(error="full", overloaded=True), "refused"),
])
def test_oracle_catches_a_corrupted_reply(fig1_oracle, corrupt, reason):
    reply = fig1_oracle.expected(FIG1_OP)
    corrupt(reply)
    (op_id, why), = fig1_oracle.failures([FIG1_OP], [reply], seed=1)
    assert op_id == 0 and reason in why


def test_oracle_counts_missing_replies_and_mirrors_updates():
    oracle = Oracle(KOSREngine.build(paper_figure1_graph()), "SK")
    before = oracle.expected(FIG1_OP)
    add = {"id": 1, "update": "add", "vertex": 1, "category": 0}  # b ∈ MA
    after_op = dict(FIG1_OP, id=2)
    oracle.apply(add)
    after = oracle.expected(after_op)
    assert after["costs"] != before["costs"]
    fresh = Oracle(KOSREngine.build(paper_figure1_graph()), "SK")
    # A deployment that ignored the update still answers as before.
    stale = dict(before, id=2)
    ops = [FIG1_OP, add, after_op]
    seed = next(s for s in range(50) if sampled_ids(ops, s) == {2})
    problems = fresh.failures(ops, [before, {"id": 1, "ok": True}, stale],
                              seed)
    assert [op_id for op_id, _ in problems] == [2]
    assert fresh.failures([dict(FIG1_OP, id=3)], [None], seed=1) == \
        [(3, "missing reply")]


# ----------------------------------------------------------------------
# Workloads and the BENCHMARK.json contract
# ----------------------------------------------------------------------
def test_every_workload_has_a_config_and_generates_from_its_seed():
    listed = [w["name"] for w in CONTRACT["workloads"]]
    on_disk = sorted(p.stem for p in workload.WORKLOAD_DIR.glob("*.json"))
    assert sorted(listed) == on_disk
    graph = paper_figure1_graph()
    for name in listed:
        config = workload.load_config(name)
        # Figure 1 has three categories of two members.
        config["traffic"]["categories_per_query"] = min(
            2, config["traffic"]["categories_per_query"])
        config["traffic"]["k"] = 1
        config["traffic"]["groups"].pop("span_every", None)
        one = workload.generate(config, graph, seed=3, seconds=0.1)
        same = workload.generate(config, graph, seed=3, seconds=0.1)
        other = workload.generate(config, graph, seed=4, seconds=0.1)
        assert one == same and one.timed != other.timed
        assert len(one.warmup) == config["warmup"]
        adds = [(o["vertex"], o["category"]) for o in one.timed
                if o.get("update") == "add"]
        removes = [(o["vertex"], o["category"]) for o in one.timed
                   if o.get("update") == "remove"]
        assert sorted(adds) == sorted(removes)


def test_a_once_catalogue_asks_every_seed_the_same_groups_block_by_block():
    config = workload.load_config("cold_uniform")
    assert config["traffic"]["groups"] == {"popularity": "once"}
    config["traffic"]["categories_per_query"] = 2
    graph = paper_figure1_graph()

    def group(op):
        return op["target"], tuple(op["categories"])

    one, other = (workload.generate(config, graph, seed, seconds=0.9)
                  for seed in (3, 4))
    assert len(one.timed) == 90
    assert one.timed != other.timed
    assert ([group(op) for op in one.warmup]
            == [group(op) for op in other.warmup])
    for lo in range(0, 90, workload.ONCE_BLOCK):
        block = slice(lo, lo + workload.ONCE_BLOCK)
        assert (sorted(map(group, one.timed[block]))
                == sorted(map(group, other.timed[block])))


def _synthetic_repetition(oracle: Oracle) -> Repetition:
    ops = [dict(FIG1_OP, id=i) for i in range(4)]
    timed = [Sample(op, oracle.expected(op), 1.0 + op["id"], reply_bytes=90)
             for op in ops]
    serving = ServingStats().as_dict()
    serving["submitted"] = len(ops)
    return Repetition(setup_s=0.2, setup_slowdown=1.0, warmup=[],
                      timed=timed, pss_mb=50.0,
                      segments=[Segment(0, 4, 1.0, 0.1, REF)],
                      serving=serving, cache=CacheStats().as_dict())


def test_benchmark_json_names_match_what_the_run_reports(fig1_oracle,
                                                          tmp_path):
    legal = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[key]]
    assert all(legal.match(name) for name in names)
    assert len(names) == len(set(names))

    rep = _synthetic_repetition(fig1_oracle)
    end_to_end = metrics.end_to_end(rep, failed_ids=set())
    assert {m["name"] for m in CONTRACT["end_to_end"]} <= set(end_to_end)

    reported = {"fail_share", "update_p50_ms", "host.slowdown"}
    assert "host.slowdown" in end_to_end
    for name in ("hot_groups", "sharded_mixed", "churn_fleet"):
        reported |= set(metrics.from_replies(rep, workload.load_config(name)))
    sharded = [
        _span(0, "async.submit", 0.0, 5.0),
        _span(1, "shard.run", 1.0, 4.0, parent=0),
        _span(2, "core.execute_plan", 1.0, 3.0, parent=1, synthetic=True),
        _span(3, "shard.update", 6.0, 7.0, request=2),
    ]
    for spans in (HAND_BUILT, sharded):
        reported |= set(metrics.from_trace(
            trace.layer_report(spans, [12000.0]), 1.1, 1.0))
    graph_path, index_path = tmp_path / "fig1.json", tmp_path / "fig1.rpli"
    save_json(paper_figure1_graph(), graph_path)
    KOSREngine.build(paper_figure1_graph()).save_index(index_path)
    reported |= set(microops.run(str(graph_path), str(index_path), seed=1,
                                 count=6))
    assert {m["name"] for m in CONTRACT["per_layer"]} == reported
