"""The opt-in instrumentation contract (``QueryStats.profile``).

With ``profile=False`` (the default) the search and NN hot loops must
perform **zero** ``perf_counter`` syscalls while still populating every
counter; with ``profile=True`` the Table X breakdown fills in exactly as
it always did.  Verified by patching the ``perf_counter`` names the hot
modules call through.
"""

import random

import pytest

from repro import KOSREngine, QueryStats, make_query
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories

import repro.core.runtime as runtime_mod
import repro.core.search as search_mod
import repro.labeling.packed_inverted as packed_inverted


@pytest.fixture(scope="module")
def case():
    g = random_graph(40, avg_out_degree=2.8, rng=random.Random(19))
    assign_uniform_categories(g, 3, 8, random.Random(20))
    return g, KOSREngine.build(g)


class _CountingClock:
    """Stand-in for ``perf_counter`` that counts its invocations."""

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
    monkeypatch.setattr(search_mod, "perf_counter", counting)
    monkeypatch.setattr(runtime_mod, "perf_counter", counting)
    return counting


class TestZeroOverheadDefault:
    @pytest.mark.parametrize("method", ["KPNE", "PK", "SK", "SK-NODOM"])
    def test_no_timer_syscalls_in_hot_loops(self, case, clock, method):
        g, engine = case
        res = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=3, method=method)
        assert clock.calls == 0
        assert res.stats.examined_routes > 0

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
        the static one: zero ``perf_counter`` calls while the edits'
        garbage still sits, uncompacted, in the decoded lists."""
        g = random_graph(40, avg_out_degree=2.8, rng=random.Random(23))
        assign_uniform_categories(g, 3, 8, random.Random(24))
        engine = KOSREngine.build(g)
        # keep the edited runs uncompacted
        monkeypatch.setattr(packed_inverted, "COMPACT_RATIO", 1e9)
        for cid in (0, 1):
            engine.inverted[cid].as_lists()  # decoded, so edits leave garbage
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, 0))
        member = sorted(g.members(1))[0]
        engine.add_vertex_to_category(outsider, 0)
        engine.remove_vertex_from_category(member, 1)
        for cid in (0, 1):
            il = engine.inverted[cid]
            assert len(il.members) > il.total_entries
        res = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=3, method="SK")
        assert clock.calls == 0
        assert res.stats.examined_routes > 0


class TestProfiledMode:
    def test_breakdown_populates(self, case, clock):
        g, engine = case
        res = engine.query(0, g.num_vertices - 1, [0, 1, 2], k=3,
                           method="SK", profile=True)
        assert clock.calls > 0
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
