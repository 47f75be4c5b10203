"""Randomized differential fuzzing of the dynamic packed indexes.

One long-lived packed engine absorbs a seeded random interleaving of
category inserts/removals, edge updates, explicit compactions, and
queries.  After **every** step its answers are checked bit-identically
(witnesses, costs, and all search counters) against a freshly built
reference engine over the same graph state, and the cost vector is
additionally checked against the exhaustive brute-force oracle.  The
overlay therefore gets exercised in every phase: fresh deltas, partially
patched runs, threshold-triggered compactions, and post-``update_edge``
rebuilds.

Across the five seeds the suite performs 5 × 44 = 220 update/query
steps (the differential check itself runs SK *and* PK on every step).
"""

import random

import pytest

from conftest import reference_engine
from repro import KOSREngine, QueryOptions, make_query
from repro.core.brute import brute_force_kosr
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.packed_inverted import PackedInvertedIndex

SEEDS = (101, 202, 303, 404, 505)
STEPS_PER_SEED = 44
N_VERTICES = 20
N_CATEGORIES = 3
CATEGORY_SIZE = 5


def _make_graph(seed: int):
    g = random_graph(N_VERTICES, avg_out_degree=2.5, rng=random.Random(seed))
    assign_uniform_categories(g, N_CATEGORIES, CATEGORY_SIZE,
                              random.Random(seed + 1))
    return g


def _differential_check(g, packed, rng):
    """One random query on the engine, the reference + the brute-force oracle."""
    s = rng.randrange(g.num_vertices)
    t = rng.randrange(g.num_vertices)
    n_cats = rng.choice((1, 2))
    cats = rng.sample(range(g.num_categories), n_cats)
    k = rng.randint(1, 3)
    q = make_query(g, s, t, cats, k=k)
    obj = reference_engine(g)
    for method in ("SK", "PK"):
        a = packed.run(q, QueryOptions(method=method))
        b = obj.run(q, QueryOptions(method=method))
        assert a.witnesses == b.witnesses
        assert a.costs == pytest.approx(b.costs)
        assert a.stats.nn_queries == b.stats.nn_queries
        assert a.stats.examined_routes == b.stats.examined_routes
        assert a.stats.generated_routes == b.stats.generated_routes
        assert a.stats.dominated_routes == b.stats.dominated_routes
        assert a.stats.reconsidered_routes == b.stats.reconsidered_routes
    oracle = brute_force_kosr(g, q)
    sk = packed.run(q, QueryOptions(method="SK"))
    assert sk.costs == pytest.approx([r.witness.cost for r in oracle])


def _random_mutation(g, packed, rng):
    """Apply one random update to the packed engine (and shared graph)."""
    op = rng.random()
    if op < 0.35:  # category insert
        cid = rng.randrange(g.num_categories)
        candidates = [v for v in range(g.num_vertices)
                      if not g.has_category(v, cid)]
        if candidates:
            packed.add_vertex_to_category(rng.choice(candidates), cid)
            return "add"
    elif op < 0.70:  # category removal (never empties a category)
        cid = rng.randrange(g.num_categories)
        members = sorted(g.members(cid))
        if len(members) > 1:
            packed.remove_vertex_from_category(rng.choice(members), cid)
            return "remove"
    elif op < 0.80:  # explicit compaction
        packed.compact()
        return "compact"
    else:  # structure update: insert / reweight / delete an edge
        kind = rng.random()
        if kind < 0.4:
            edges = list(g.edges())
            u, v, _ = rng.choice(edges)
            packed.update_edge(u, v, None)
        else:
            u = rng.randrange(g.num_vertices)
            v = rng.randrange(g.num_vertices)
            if u == v:
                v = (v + 1) % g.num_vertices
            packed.update_edge(u, v, rng.uniform(1.0, 10.0))
        return "edge"
    return "noop"


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_packed_overlay_differential(seed):
    g = _make_graph(seed)
    packed = KOSREngine.build(g)
    rng = random.Random(seed * 7 + 1)
    counts = {}
    for _ in range(STEPS_PER_SEED):
        kind = _random_mutation(g, packed, rng)
        counts[kind] = counts.get(kind, 0) + 1
        _differential_check(g, packed, rng)
    # The interleaving exercised every mutation kind at least once.
    assert counts.get("add", 0) > 0
    assert counts.get("remove", 0) > 0
    assert counts.get("edge", 0) > 0


@pytest.mark.parametrize("seed", (101, 404))
def test_fuzz_mmap_attached_engine_differential(seed, tmp_path):
    """The mmap-attached engine absorbs the same fuzz interleaving.

    The engine starts as read-only views over a saved index file;
    category updates land in private overlays on top of them, compaction
    lets go of a touched category's file sections, edge updates rebuild
    into private buffers.  Every step is still checked bit-identically
    against a fresh reference build plus the brute-force oracle, and the
    file is never written.
    """
    g = _make_graph(seed)
    builder = KOSREngine.build(g)
    path = tmp_path / "fuzz.rpli"
    builder.save_index(path)
    file_bytes = path.read_bytes()
    attached = KOSREngine.from_index_file(g, path)
    rng = random.Random(seed * 13 + 5)
    counts = {}
    for _ in range(20):
        kind = _random_mutation(g, attached, rng)
        counts[kind] = counts.get(kind, 0) + 1
        _differential_check(g, attached, rng)
    assert counts.get("add", 0) > 0 or counts.get("remove", 0) > 0
    assert path.read_bytes() == file_bytes


@pytest.mark.parametrize("seed", (202, 505))
def test_fuzz_sharded_fleet_differential(seed):
    """A 2-shard fleet absorbs the same fuzz interleaving.

    Category updates broadcast, edge updates go through the epoch-fenced
    prepare/commit path, and after every mutation a random query is
    checked bit-identically (results AND stats) against a fresh
    unsharded reference engine over the fleet's current graph.
    """
    from repro import ShardedQueryService
    from test_backend_parity import assert_same_outcome

    g = _make_graph(seed)
    sharded = ShardedQueryService(g.copy(), 2)
    rng = random.Random(seed * 11 + 3)
    counts = {}
    try:
        for _ in range(15):
            kind = _random_mutation(sharded.graph, sharded, rng)
            counts[kind] = counts.get(kind, 0) + 1
            fg = sharded.graph
            q = make_query(fg, rng.randrange(fg.num_vertices),
                           rng.randrange(fg.num_vertices),
                           rng.sample(range(fg.num_categories),
                                      rng.choice((1, 2))),
                           k=rng.randint(1, 3))
            fresh = reference_engine(fg.copy())
            for method in ("SK", "PK"):
                options = QueryOptions(method=method)
                assert_same_outcome(sharded.run(q, options),
                                    fresh.run(q, options=options))
    finally:
        sharded.close()
    assert counts.get("edge", 0) > 0  # the interleaving hit update_edge


def test_fuzz_step_budget_meets_acceptance():
    """The suite performs >= 200 randomized steps across >= 5 seeds."""
    assert len(SEEDS) >= 5
    assert len(SEEDS) * STEPS_PER_SEED >= 200


def test_fuzz_effective_lists_match_object_rebuild():
    """After a fuzz run, the packed indexes' *effective* lists (base +
    overlay, tombstones applied) equal a from-scratch object build."""
    from reference_inverted import build_inverted_index

    g = _make_graph(909)
    packed = KOSREngine.build(g)
    rng = random.Random(910)
    for _ in range(30):
        _random_mutation(g, packed, rng)
    for cid, il in packed.inverted.items():
        assert isinstance(il, PackedInvertedIndex)
        fresh = build_inverted_index(g, packed.labels, cid)
        assert il.as_lists() == fresh.lists
        assert il.total_entries == fresh.total_entries
        assert il.num_hubs == fresh.num_hubs
