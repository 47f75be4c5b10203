"""Micro-operations: single layers timed from outside.

Each operation calls one public function of a layer over a fixed,
seeded argument list — on both the built (``.packed``) and the attached
(``.mmap``) representation where the layer has both — and reports the
median over a few rounds of the mean time per call.  They tell which
kernel moved when an end-to-end number does; they claim nothing about
end-to-end time themselves.
"""

from __future__ import annotations

import os
import random
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.engine import KOSREngine
from repro.graph.io import load_json
from repro.nn.label_nn import PackedLabelNNFinder
from repro.shard import ShardedQueryService

from benchmarks.kosr.summary import median

ROUNDS = 5
PAIRS = 300


def _per_call_us(make_calls: Callable[[], Tuple[Callable, Sequence[tuple]]]
                 ) -> float:
    """``make_calls()`` returns a fresh ``(fn, argument tuples)`` per
    round, so state an operation builds up (cursors) starts empty."""
    rounds = []
    for _ in range(ROUNDS):
        fn, calls = make_calls()
        start = perf_counter()
        for args in calls:
            fn(*args)
        rounds.append((perf_counter() - start) / len(calls) * 1e6)
    return median(rounds)


def _nn_ops(engine, rng: random.Random, count: int) -> Dict[str, float]:
    graph = engine.graph
    n = graph.num_vertices
    cats = [c for c in range(graph.num_categories)
            if graph.category_size(c) >= 2]
    pairs = [(rng.randrange(n), rng.choice(cats)) for _ in range(count)]
    pairs = list(dict.fromkeys(pairs))  # one cursor per pair
    targets = [rng.randrange(n) for _ in range(count)]
    target = targets[0]

    def finder():
        return PackedLabelNNFinder(engine.labels, engine.inverted)

    def find_first():
        return finder().find, [(s, c, 1) for s, c in pairs]

    def find_next():
        live = finder()
        for s, c in pairs:
            live.find(s, c, 1)
        return live.find, [(s, c, x) for s, c in pairs for x in (2, 3, 4, 5)]

    def est_next():
        live = finder()
        estimated = live.make_estimated(live.make_dest_distance(target))
        return estimated.find, [(s, c, x) for s, c in pairs
                                for x in (1, 2, 3, 4, 5)]

    def dest_make():
        return finder().make_dest_distance, [(t,) for t in targets]

    def dest_probe():
        return (finder().make_dest_distance(target),
                [(v,) for v in targets])

    return {"nn.find_first_us": _per_call_us(find_first),
            "nn.find_next_us": _per_call_us(find_next),
            "nn.est_next_us": _per_call_us(est_next),
            "nn.dest_make_us": _per_call_us(dest_make),
            "nn.dest_probe_us": _per_call_us(dest_probe),
            "labeling.distance_us": _per_call_us(
                lambda: (engine.labels.distance,
                         list(zip(targets, reversed(targets)))))}


def _update_ops(engine, rng: random.Random, count: int) -> Dict[str, float]:
    graph = engine.graph
    free = [(v, cid) for v in range(graph.num_vertices)
            for cid in range(graph.num_categories)
            if not graph.has_category(v, cid)]
    pairs: List[Tuple[int, int]] = rng.sample(free, min(count, len(free)))
    # One round: the adds change the index, the removes restore it.
    start = perf_counter()
    for v, cid in pairs:
        engine.add_vertex_to_category(v, cid)
    middle = perf_counter()
    for v, cid in pairs:
        engine.remove_vertex_from_category(v, cid)
    end = perf_counter()
    return {"labeling.update_add_us": (middle - start) / len(pairs) * 1e6,
            "labeling.update_remove_us": (end - middle) / len(pairs) * 1e6}


def _fleet_ops(graph, index_path: str) -> Dict[str, float]:
    spawns, pings = [], []
    for _ in range(3):
        start = perf_counter()
        fleet = ShardedQueryService(graph, 2, index_path=index_path)
        spawns.append(perf_counter() - start)
        try:
            start = perf_counter()
            for _ in range(100):
                fleet.ping()
            pings.append((perf_counter() - start) / (100 * 2) * 1e6)
        finally:
            fleet.close()
    return {"shard.spawn_s": median(spawns),
            "shard.ping_roundtrip_us": median(pings)}


def run(graph_path: str, index_path: str, seed: int,
        count: int = PAIRS) -> Dict[str, float]:
    """Every micro-operation, by metric name, over ``count`` seeded
    arguments each."""
    graph = load_json(graph_path)
    metrics: Dict[str, float] = {}
    # Fleets first: they fork, and a parent that has not built an index
    # yet keeps the children's inherited pages small and comparable.
    metrics.update(_fleet_ops(graph, index_path))

    attaches = []
    for _ in range(ROUNDS):
        start = perf_counter()
        attached = KOSREngine.from_index_file(graph, index_path)
        attaches.append((perf_counter() - start) * 1000.0)
    metrics["labeling.attach_ms"] = median(attaches)
    metrics["labeling.index_file_mb"] = os.path.getsize(index_path) / 1e6

    start = perf_counter()
    built = KOSREngine.build(load_json(graph_path))
    metrics["labeling.index_build_s"] = perf_counter() - start

    for suffix, engine in (("packed", built), ("mmap", attached)):
        metrics[f"labeling.resident_mb.{suffix}"] = \
            engine.index_memory()["total_resident"] / 1e6
        for name, value in _nn_ops(
                engine, random.Random(f"micro:{seed}"), count).items():
            metrics[f"{name}.{suffix}"] = value
    new_session = attached.service.new_session
    metrics["service.session_new_us"] = _per_call_us(
        lambda: (new_session, [()] * count))
    metrics.update(_update_ops(built, random.Random(f"update:{seed}"),
                               count))
    return metrics
