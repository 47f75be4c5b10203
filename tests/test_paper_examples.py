"""Assertions against every worked example of the paper on the Figure 1 graph.

* Example 1 — the KOSR answer set for k = 3;
* Example 2 / Table III — PruningKOSR's extraction trace and dominance events;
* Example 6 / Table VI — StarKOSR's extraction trace;
* the Fig. 2 narrative — SK examines no more routes than PK, PK no more
  than KPNE's generated space.
"""

import pytest

from repro import KOSREngine, QueryStats, make_query
from repro.core.runtime import QueryRuntime
from repro.core.search import sequenced_route_search
from repro.graph.paper import names, paper_figure1_graph, vertex

from reference_nn import LabelNNFinder


@pytest.fixture(scope="module")
def setup():
    graph = paper_figure1_graph()
    engine = KOSREngine.build(graph, name="fig1")
    return graph, engine


def _run_with_trace(engine, k, use_dominance, estimated):
    graph = engine.graph
    query = make_query(graph, vertex("s"), vertex("t"), ["MA", "RE", "CI"], k)
    finder = LabelNNFinder.from_index(engine.labels, engine.inverted)
    stats = QueryStats()
    runtime = QueryRuntime(query, finder, stats, estimated=estimated)
    trace = []
    results = sequenced_route_search(
        runtime, use_dominance=use_dominance, estimated=estimated, trace=trace
    )
    named = [(names(w), cost) for w, cost in trace]
    return results, stats, named


class TestExample1:
    def test_top3_answer_set(self, setup):
        """Example 1: Ψ = {⟨s,a,b,d,t⟩(20), ⟨s,a,e,d,t⟩(21), ⟨s,c,b,d,t⟩(22)}."""
        _, engine = setup
        for method in ("KPNE", "PK", "SK"):
            res = engine.query(vertex("s"), vertex("t"), ["MA", "RE", "CI"],
                               k=3, method=method)
            assert res.costs == [20.0, 21.0, 22.0]
            assert [names(w) for w in res.witnesses] == [
                ("s", "a", "b", "d", "t"),
                ("s", "a", "e", "d", "t"),
                ("s", "c", "b", "d", "t"),
            ]

    def test_no_cheaper_fourth_route(self, setup):
        _, engine = setup
        res = engine.query(vertex("s"), vertex("t"), ["MA", "RE", "CI"],
                           k=4, method="SK")
        assert res.costs[3] >= 22.0


class TestTable3PruningTrace:
    """Example 2: the PruningKOSR run for (s, t, ⟨MA,RE,CI⟩, 2)."""

    EXPECTED_POPS = [
        (("s",), 0.0),                      # step 1
        (("s", "a"), 8.0),                  # step 2
        (("s", "c"), 10.0),                 # step 3
        (("s", "a", "b"), 13.0),            # step 4
        (("s", "a", "e"), 14.0),            # step 5
        (("s", "c", "b"), 15.0),            # step 6 (dominated by ⟨s,a,b⟩)
        (("s", "a", "b", "d"), 16.0),       # step 7
        (("s", "a", "e", "d"), 17.0),       # step 8 (dominated by ⟨s,a,b,d⟩)
        (("s", "a", "b", "d", "t"), 20.0),  # step 9: 1st result
        (("s", "c", "b"), 15.0),            # step 10: reconsidered
        (("s", "a", "e", "d"), 17.0),       # step 11: reconsidered
        (("s", "c", "b", "d"), 18.0),       # step 12
        (("s", "a", "e", "d", "t"), 21.0),  # step 13: 2nd result
    ]

    def test_extraction_order_matches_table3(self, setup):
        _, engine = setup
        results, stats, trace = _run_with_trace(engine, k=2,
                                                use_dominance=True, estimated=False)
        assert trace == self.EXPECTED_POPS
        assert [r.cost for r in results] == [20.0, 21.0]

    def test_dominance_event_counts(self, setup):
        _, engine = setup
        _, stats, _ = _run_with_trace(engine, k=2, use_dominance=True,
                                      estimated=False)
        # ⟨s,c,b⟩, ⟨s,a,e,d⟩ (steps 6, 8) and ⟨s,c,b,d⟩ (step 12; absent from
        # the step-13 queue in Table III because it is parked under
        # ⟨s,a,e,d⟩'s HT≺ entry at d).
        assert stats.dominated_routes == 3
        assert stats.reconsidered_routes == 3
        assert stats.examined_routes == 13


class TestTable6StarTrace:
    """Example 6: the StarKOSR run for the same query pops only 9 routes."""

    EXPECTED_POPS = [
        (("s",), 0.0),
        (("s", "c"), 10.0),                 # est 17 beats a's 20
        (("s", "a"), 8.0),
        (("s", "a", "b"), 13.0),            # est 20
        (("s", "a", "b", "d"), 16.0),       # est 20
        (("s", "a", "b", "d", "t"), 20.0),  # 1st result
        (("s", "a", "e"), 14.0),            # est 21
        (("s", "a", "e", "d"), 17.0),       # est 21
        (("s", "a", "e", "d", "t"), 21.0),  # 2nd result
    ]

    def test_extraction_order_matches_table6(self, setup):
        _, engine = setup
        results, stats, trace = _run_with_trace(engine, k=2,
                                                use_dominance=True, estimated=True)
        assert trace == self.EXPECTED_POPS
        assert [r.cost for r in results] == [20.0, 21.0]

    def test_no_dominated_routes_in_example6(self, setup):
        _, engine = setup
        _, stats, _ = _run_with_trace(engine, k=2, use_dominance=True,
                                      estimated=True)
        assert stats.dominated_routes == 0
        assert stats.examined_routes == 9

    def test_sk_saves_four_steps_over_pk(self, setup):
        """"4 steps are reduced compared to Example 2" (13 vs 9)."""
        _, engine = setup
        _, pk_stats, _ = _run_with_trace(engine, k=2, use_dominance=True,
                                         estimated=False)
        _, sk_stats, _ = _run_with_trace(engine, k=2, use_dominance=True,
                                         estimated=True)
        assert pk_stats.examined_routes - sk_stats.examined_routes == 4


class TestFigure2SearchSpaces:
    def test_search_space_ordering(self, setup):
        """KPNE examines >= PK examines >= SK examines (Fig. 2 narrative)."""
        _, engine = setup
        counts = {}
        for method in ("KPNE", "PK", "SK"):
            res = engine.query(vertex("s"), vertex("t"), ["MA", "RE", "CI"],
                               k=2, method=method)
            counts[method] = res.stats.examined_routes
        assert counts["SK"] <= counts["PK"] <= counts["KPNE"] + 2
        assert counts["SK"] < counts["KPNE"]
