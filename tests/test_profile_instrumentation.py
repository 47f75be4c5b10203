"""The one clock and the opt-in instrumentation contract.

Every time read under ``src/repro`` goes through
:func:`repro.obs.clock.now`, so patching that one name counts them all.
With ``profile=False`` (the default) and no deadline, a query reads the
clock exactly twice — the start and the end of ``stats.total_time`` in
:func:`~repro.service.execution.execute_plan` — on every method, cold or
warm, with the metrics registry off or on; the search and NN hot loops
read it never, while still populating every counter.  With
``profile=True`` the Table X breakdown fills in as it always did.
"""

import ast
import asyncio
import pathlib
import random

import pytest

from repro import (
    AsyncQueryService,
    KOSREngine,
    METHODS,
    QueryOptions,
    QueryRequest,
    QueryService,
    QueryStats,
    kosr_with_preferences,
    make_query,
)
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.obs import clock as clock_mod
from repro.obs.metrics import REGISTRY

import repro.labeling.packed_inverted as packed_inverted

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="module")
def case():
    g = random_graph(40, avg_out_degree=2.8, rng=random.Random(19))
    assign_uniform_categories(g, 3, 8, random.Random(20))
    return g, KOSREngine.build(g)


@pytest.fixture(scope="module")
def saved_case(tmp_path_factory):
    """An engine with a saved index file, so SK-DB can run."""
    g = random_graph(40, avg_out_degree=2.8, rng=random.Random(19))
    assign_uniform_categories(g, 3, 8, random.Random(20))
    engine = KOSREngine.build(g)
    engine.save_index(tmp_path_factory.mktemp("index") / "index.rpli")
    return g, engine


class _CountingClock:
    """Stand-in for ``clock.now`` that counts its invocations."""

    def __init__(self):
        self.calls = 0
        self._now = 0.0

    def __call__(self):
        self.calls += 1
        self._now += 1e-6
        return self._now


@pytest.fixture()
def clock(monkeypatch):
    counting = _CountingClock()
    monkeypatch.setattr(clock_mod, "now", counting)
    return counting


@pytest.fixture()
def registry():
    """The process registry, clean; tests switch it off and on."""
    was_enabled = REGISTRY.enabled
    REGISTRY.reset()
    yield REGISTRY
    REGISTRY.enabled = was_enabled
    REGISTRY.reset()


def _query(g, method):
    k = 1 if method.startswith("GSP") else 3
    return make_query(g, 0, g.num_vertices - 1, [0, 1, 2], k)


class TestOneClock:
    @pytest.mark.parametrize("method", ["KPNE", "PK", "SK", "SK-NODOM"])
    def test_preference_query_reads_the_clock_twice(self, case, clock,
                                                    registry, method):
        g, engine = case
        members = set(sorted(g.members(1))[:4])
        for enabled in (False, True):
            registry.enabled = enabled
            clock.calls = 0
            res = kosr_with_preferences(
                engine, 0, g.num_vertices - 1, [0, 1, 2],
                predicates={1: lambda v: v in members}, k=3, method=method)
            assert clock.calls == 2, enabled
            assert res.stats.examined_routes > 0

    def test_front_door_adds_only_the_queue_wait_stamp(self, case, clock,
                                                       registry):
        g, engine = case
        request = QueryRequest(_query(g, "SK"), QueryOptions())

        async def drive():
            async with AsyncQueryService(QueryService(engine)) as front:
                clock.calls = 0
                return await front.submit(request)

        for enabled in (False, True):
            registry.enabled = enabled
            res = asyncio.run(drive())
            assert clock.calls == (4 if enabled else 2)
            assert res.stats.examined_routes > 0

    def test_no_module_reads_time_directly(self):
        """Only ``obs/clock.py`` may name ``perf_counter`` / ``monotonic``
        of the ``time`` module, by import or by call."""
        banned = {"perf_counter", "perf_counter_ns", "monotonic",
                  "monotonic_ns"}
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            if rel == "obs/clock.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.ImportFrom) and node.module == "time"
                        and any(a.name in banned for a in node.names)):
                    offenders.append(f"{rel}:{node.lineno}")
                elif (isinstance(node, ast.Attribute) and node.attr in banned
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "time"):
                    offenders.append(f"{rel}:{node.lineno}")
        assert offenders == []


class TestZeroOverheadDefault:
    @pytest.mark.parametrize("method", METHODS)
    def test_no_timer_syscalls_in_hot_loops(self, saved_case, clock,
                                            registry, method):
        """A profile-off, deadline-free query reads the clock exactly
        twice, for ``total_time`` (SK-DB four times: ``index_load_time``
        adds two), cold and warm, with the registry off and on."""
        g, engine = saved_case
        q = _query(g, method)
        for enabled in (False, True):
            registry.enabled = enabled
            for run in (engine.run, QueryService(engine).run):
                clock.calls = 0  # building the service may read it too
                res = run(q, QueryOptions(method=method))
                assert clock.calls == (4 if method == "SK-DB" else 2), (
                    enabled, run)
                assert res.stats.examined_routes > 0
                assert res.stats.total_time > 0

    def test_timing_fields_zero_but_counters_populate(self, case):
        g, engine = case
        res = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=3, method="SK")
        stats = res.stats
        assert stats.nn_time == 0.0
        assert stats.queue_time == 0.0
        assert stats.estimation_time == 0.0
        # counters are mode-independent
        assert stats.examined_routes > 0
        assert stats.generated_routes > 0
        assert stats.nn_queries > 0
        assert stats.max_queue_size > 0
        assert stats.per_level_examined and sum(stats.per_level_examined) > 0
        dominated = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=3,
                                 method="PK").stats
        assert dominated.dominated_routes > 0
        # total wall time is still measured once per query
        assert stats.total_time > 0

    def test_deadline_still_enforced_without_profile(self, case):
        g, engine = case
        res = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=5,
                           method="KPNE", time_budget_s=0.0)
        assert not res.stats.completed

    def test_no_timer_syscalls_with_nonempty_overlay(self, clock,
                                                     monkeypatch):
        """The query path over edited runs is as instrumentation-free as
        the static one: only ``total_time``'s two reads while the edits'
        garbage still sits, uncompacted, in the private run arrays."""
        g = random_graph(40, avg_out_degree=2.8, rng=random.Random(23))
        assign_uniform_categories(g, 3, 8, random.Random(24))
        engine = KOSREngine.build(g)
        # keep the edited runs uncompacted
        monkeypatch.setattr(packed_inverted, "COMPACT_RATIO", 1e9)
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        member = sorted(g.members(1))[0]
        engine.add_vertex_to_category(outsider, 0)
        engine.remove_vertex_from_category(member, 1)
        for cid in (0, 1):
            il = engine.inverted[cid]
            assert len(il.runs()[1]) > il.total_entries
        clock.calls = 0
        res = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=3, method="SK")
        assert clock.calls == 2
        assert res.stats.examined_routes > 0


class TestProfiledMode:
    def test_breakdown_populates(self, case, clock):
        g, engine = case
        res = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=3,
                           method="SK", profile=True)
        assert clock.calls > 2
        stats = res.stats
        assert stats.queue_time > 0
        assert stats.nn_time + stats.estimation_time > 0
        assert stats.other_time >= 0

    def test_profile_flag_survives_merge_semantics(self):
        a = QueryStats(profile=True, nn_time=0.5)
        b = QueryStats(nn_time=0.25)
        a.merge(b)
        assert a.nn_time == pytest.approx(0.75)
        assert a.profile is True

    def test_default_querystats_is_unprofiled(self):
        assert QueryStats().profile is False
