"""Property tests for the packed backend's category-update invariants.

Hypothesis drives random sequences of category inserts/removals and
explicit compactions against one fixed graph (labels are topology-only,
so they are built once and shared; each example gets a fresh graph copy
and fresh packed inverted indexes).  Invariants under test:

* a removed entry never surfaces from a FindNN cursor;
* every hub run — edited copies and untouched base runs alike — stays
  sorted by ``(dist, vertex)`` and the run directory stays consistent;
* ``compact()`` changes the physical layout only, never query results;
* the run arrays only grow between compactions, so a live cursor
  keeps reading the runs it was created over through edits and a
  compaction;
* a category's member count follows every update, and the cursors that
  stop at it answer and book like the reference FindNN, also when a
  member cannot be reached and the cursor has to drain.
"""

import random

from hypothesis import given, settings, strategies as st

from repro import KOSREngine, QueryOptions, make_query
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.pll import build_labels_auto
from repro.nn.label_nn import PackedLabelNNFinder
from repro.types import INFINITY

from reference_nn import LabelNNFinder

N_VERTICES = 18
N_CATEGORIES = 3

_BASE_GRAPH = random_graph(N_VERTICES, avg_out_degree=2.5,
                           rng=random.Random(71))
assign_uniform_categories(_BASE_GRAPH, N_CATEGORIES, 5, random.Random(72))
_LABELS = build_labels_auto(_BASE_GRAPH)

#: one op = (kind, vertex, category); "compact" ignores vertex/category
_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "compact"]),
              st.integers(0, N_VERTICES - 1),
              st.integers(0, N_CATEGORIES - 1)),
    max_size=40,
)


def _fresh_engine():
    g = _BASE_GRAPH.copy()
    return g, KOSREngine.build(g, _LABELS)


def _apply(g, engine, ops):
    for kind, v, cid in ops:
        if kind == "add":
            engine.add_vertex_to_category(v, cid)
        elif kind == "remove" and g.category_size(cid) > 1:
            engine.remove_vertex_from_category(v, cid)
        elif kind == "compact":
            engine.compact()


def _enumerate_nn(engine, source, cid):
    """Drain one (source, category) cursor: [(member, dist), ...]."""
    finder = PackedLabelNNFinder(engine.labels, engine.inverted)
    out = []
    x = 1
    while True:
        res = finder.find(source, cid, x)
        if res is None:
            return out
        out.append(res)
        x += 1


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_removed_entries_never_surface(ops):
    g, engine = _fresh_engine()
    _apply(g, engine, ops)
    labels = engine.labels
    for cid in range(N_CATEGORIES):
        members = g.members(cid)
        for source in (0, N_VERTICES // 2, N_VERTICES - 1):
            produced = _enumerate_nn(engine, source, cid)
            got = {m for m, _ in produced}
            # nothing removed (or never a member) surfaces ...
            assert got <= members
            # ... and every reachable live member does surface
            reachable = {m for m in members
                         if labels.distance(source, m) != INFINITY}
            assert got == reachable


@settings(max_examples=40, deadline=None)
@given(ops=_ops)
def test_overlay_base_merge_is_sorted(ops):
    g, engine = _fresh_engine()
    _apply(g, engine, ops)
    for il in engine.inverted.values():
        lists = il.as_lists()
        assert sum(map(len, lists.values())) == il.total_entries
        for hub, entries in lists.items():
            assert entries == sorted(entries)
            assert entries  # empty runs are dropped from the directory
        # the directory agrees with the hub lists and with the arrays
        dists, members, directory = il.runs()
        assert len(directory) == len(lists) == il.num_hubs
        assert sorted(list(zip(dists[lo:hi], members[lo:hi]))
                      for lo, hi in directory.values()) == \
            sorted(lists.values())
        for lo, hi in directory.values():
            assert 0 <= lo < hi <= len(members)


@settings(max_examples=25, deadline=None)
@given(ops=_ops, seed=st.integers(0, 2 ** 16))
def test_compact_is_noop_on_query_results(ops, seed):
    g, engine = _fresh_engine()
    _apply(g, engine, ops)
    rng = random.Random(seed)
    queries = []
    for _ in range(3):
        cats = rng.sample(range(N_CATEGORIES), 2)
        queries.append(make_query(g, rng.randrange(N_VERTICES),
                                  rng.randrange(N_VERTICES), cats, k=3))
    before = [engine.run(q, QueryOptions(method="SK")) for q in queries]
    engine.compact()
    for il in engine.inverted.values():
        assert len(il.runs()[1]) <= il.total_entries  # no edit garbage
    after = [engine.run(q, QueryOptions(method="SK")) for q in queries]
    for a, b in zip(before, after):
        assert a.witnesses == b.witnesses
        assert a.costs == b.costs
        assert a.stats.nn_queries == b.stats.nn_queries


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), compact=st.booleans())
def test_live_cursor_keeps_its_snapshot_across_edits(seed, compact):
    rng = random.Random(seed)
    g, engine = _fresh_engine()
    cid = rng.randrange(N_CATEGORIES)
    source = rng.randrange(N_VERTICES)
    before = _enumerate_nn(engine, source, cid)
    finder = PackedLabelNNFinder(engine.labels, engine.inverted)
    first = finder.find(source, cid, 1)  # advanced once, then edited under
    outsider = rng.choice([v for v in range(N_VERTICES)
                           if not g.has_category(v, cid)])
    member = rng.choice(sorted(g.members(cid)))
    engine.add_vertex_to_category(outsider, cid)
    engine.remove_vertex_from_category(member, cid)
    if compact:
        engine.compact()
    drained = [first] if first is not None else []
    x = 2
    while first is not None:
        res = finder.find(source, cid, x)
        if res is None:
            break
        drained.append(res)
        x += 1
    assert drained == before
    # A cursor opened now sees the edits, like a fresh engine over the
    # edited graph.
    fresh = KOSREngine.build(g.copy(), _LABELS)
    assert _enumerate_nn(engine, source, cid) == \
        _enumerate_nn(fresh, source, cid)


#: a directed graph whose last vertex has out-edges only: a member of
#: category 0 that no other vertex reaches
_DIRECTED_GRAPH = random_graph(N_VERTICES, avg_out_degree=2.0,
                               rng=random.Random(73))
assign_uniform_categories(_DIRECTED_GRAPH, N_CATEGORIES, 4,
                          random.Random(74))
_UNREACHED = _DIRECTED_GRAPH.add_vertex()
_DIRECTED_GRAPH.add_edge(_UNREACHED, 0, 1.5)
_DIRECTED_GRAPH.assign_category(_UNREACHED, 0)
_DIRECTED_LABELS = build_labels_auto(_DIRECTED_GRAPH)

_directed_ops = st.lists(
    st.tuples(st.sampled_from(["add", "remove", "compact"]),
              st.integers(0, _DIRECTED_GRAPH.num_vertices - 1),
              st.integers(0, N_CATEGORIES - 1)),
    max_size=30,
)


@settings(max_examples=30, deadline=None)
@given(ops=_directed_ops)
def test_member_count_and_cursors_match_reference(ops):
    g = _DIRECTED_GRAPH.copy()
    engine = KOSREngine.build(g, _DIRECTED_LABELS)
    for kind, v, cid in ops:
        if kind == "add":
            engine.add_vertex_to_category(v, cid)
        elif kind == "remove":
            engine.remove_vertex_from_category(v, cid)
        else:
            engine.compact()
        for c, il in engine.inverted.items():
            assert il.member_count == len(g.members(c))
    finder = PackedLabelNNFinder(engine.labels, engine.inverted)
    reference = LabelNNFinder.from_index(engine.labels, engine.inverted)
    for source in range(g.num_vertices):
        for cid in range(N_CATEGORIES):
            for x in range(1, len(g.members(cid)) + 3):
                assert finder.find(source, cid, x) == \
                    reference.find(source, cid, x)
                assert finder.queries == reference.queries
