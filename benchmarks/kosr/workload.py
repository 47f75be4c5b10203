"""Declarative workload configs → seeded operation lists.

One JSON file per workload under ``workloads/`` names dataset × method ×
traffic shape × deployment × loop type × counts.  :func:`generate` turns
a config plus a seed into fixed *lists* of operations (a warm-up prefix
and the timed list), so two runs with one seed do identical work.  The
program under test only ever sees these operations.

An operation is a JSON-ready dict.  Queries are exactly the TCP
request record (``id``, ``source``, ``target``, ``categories``, ``k``);
updates are ``{"id", "update": "add"|"remove", "vertex", "category"}``
and exist only for the in-process fleet, whose API has them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.shard.router import CategoryShardRouter

WORKLOAD_DIR = Path(__file__).parent / "workloads"


@dataclass
class Workload:
    config: dict
    warmup: List[dict]
    timed: List[dict]


def load_config(name: str) -> dict:
    with open(WORKLOAD_DIR / f"{name}.json") as fh:
        config = json.load(fh)
    if config["name"] != name:
        raise ValueError(f"{name}.json names itself {config['name']!r}")
    return config


def is_update(op: dict) -> bool:
    return "update" in op


def _eligible_categories(graph) -> List[int]:
    return [cid for cid in range(graph.num_categories)
            if graph.category_size(cid) >= 2]


def _make_groups(graph, traffic: dict, shards: Optional[int],
                 rng: random.Random, count: int
                 ) -> List[Tuple[int, Tuple[int, ...]]]:
    """The fixed ``(target, categories)`` groups of a grouped workload.

    Behind a shard router each group is pinned to one shard (all its
    categories share an owner) except every ``span_every``-th — counted
    from the second, so that under Zipf(1.0) popularity a
    ``1 / span_every`` share of the *requests* spans — which takes
    categories from every shard so the request fans out.
    """
    spec = traffic["groups"]
    c_len = traffic["categories_per_query"]
    eligible = _eligible_categories(graph)
    span_every = spec.get("span_every")
    router = CategoryShardRouter(shards) if shards and span_every else None
    groups = []
    for g in range(count):
        target = rng.randrange(graph.num_vertices)
        if router is None:
            cats = rng.sample(eligible, c_len)
        elif g % span_every == 1:
            by_shard = [[c for c in eligible if router.shard_of(c) == s]
                        for s in range(shards)]
            cats = [rng.choice(pool) for pool in by_shard]
            rest = [c for c in eligible if c not in cats]
            cats += rng.sample(rest, c_len - len(cats))
            rng.shuffle(cats)
        else:
            home = g % shards
            cats = rng.sample(
                [c for c in eligible if router.shard_of(c) == home], c_len)
        groups.append((target, tuple(cats)))
    return groups


def _group_weights(spec: dict) -> List[float]:
    if spec["popularity"] == "uniform":
        return [1.0] * spec["count"]
    if spec["popularity"] == "zipf":
        return [1.0 / (rank ** spec["zipf_s"])
                for rank in range(1, spec["count"] + 1)]
    raise ValueError(f"unknown group popularity {spec['popularity']!r}")


#: a ``once`` catalogue is permuted within blocks of this many entries
ONCE_BLOCK = 25


def _once_order(warmup_n: int, total: int, rng: random.Random) -> List[int]:
    """Which catalogue entry each request of a ``once`` workload uses:
    every entry exactly once, the warm-up's first, the timed ones
    permuted within consecutive blocks — so every stretch of the timed
    list carries the same mix of groups whatever the seed."""
    order = list(range(warmup_n))
    for lo in range(warmup_n, total, ONCE_BLOCK):
        block = list(range(lo, min(lo + ONCE_BLOCK, total)))
        rng.shuffle(block)
        order += block
    return order


def _update_slots(total: int, share: float, rng: random.Random) -> Set[int]:
    """Seeded positions of the update operations — an even number, so
    every add can be paired with a later remove."""
    count = int(round(total * share))
    count -= count % 2
    return set(rng.sample(range(total), count))


def generate(config: dict, graph, seed: int, seconds: float) -> Workload:
    """The warm-up and timed operation lists of one repetition.

    The seed draws every request: its group, its source, where the
    updates fall.  The catalogue of groups — which destinations are the
    popular ones — belongs to the workload and is the same for every
    seed, or two seeds would measure two different sets of queries
    (one catalogue's p95 was twice another's) instead of two samples of
    one traffic mix.  Popularity ``once`` is the workload without
    repeats: its catalogue is as long as the list, and the seed draws
    the order (see :func:`_once_order`) and the sources.  That, too, is
    for repeatability: ``(t, C)`` decides 95 % of the variance of a
    query's search work and the source the rest, so lists with freshly
    drawn groups differ by what they ask, not by how fast it is served.
    """
    rng = random.Random(f"{config['name']}:{seed}")
    traffic = config["traffic"]
    k = traffic["k"]
    n = graph.num_vertices
    warmup_n = config["warmup"]
    timed_n = max(1, int(round(config["requests_per_run_second"] * seconds)))
    total = warmup_n + timed_n

    spec = traffic["groups"]
    once = spec["popularity"] == "once"
    groups = _make_groups(graph, traffic, config["deployment"]["shards"],
                          random.Random(f"{config['name']}:catalogue"),
                          total if once else spec["count"])
    if once:
        order = _once_order(warmup_n, total, rng)
    else:
        weights = _group_weights(spec)

    # Updates are confined to the timed list: the warm-up prefix only
    # warms caches, and the first warm-up reply closes setup_s.
    slots = {warmup_n + i for i in
             _update_slots(timed_n, traffic["update_share"], rng)}
    remaining = len(slots)
    pending: List[Tuple[int, int]] = []  # adds not yet removed, oldest first
    added: Set[Tuple[int, int]] = set()

    ops: List[dict] = []
    for i in range(total):
        if i in slots:
            # remaining - len(pending) stays even, so the last slots
            # always drain what is pending: every add is later removed.
            if pending and (len(pending) >= remaining or rng.random() < 0.5):
                vertex, cid = pending.pop(0)
                added.discard((vertex, cid))
                ops.append({"id": i, "update": "remove", "vertex": vertex,
                            "category": cid})
            else:
                cid = rng.choice(rng.choice(groups)[1])
                vertex = rng.randrange(n)
                while (graph.has_category(vertex, cid)
                       or (vertex, cid) in added):
                    vertex = rng.randrange(n)
                pending.append((vertex, cid))
                added.add((vertex, cid))
                ops.append({"id": i, "update": "add", "vertex": vertex,
                            "category": cid})
            remaining -= 1
            continue
        if once:
            target, cats = groups[order[i]]
        else:
            target, cats = rng.choices(groups, weights)[0]
        ops.append({"id": i, "source": rng.randrange(n), "target": target,
                    "categories": list(cats), "k": k})
    return Workload(config, ops[:warmup_n], ops[warmup_n:])


def fanout(config: dict, ops: List[dict]) -> Dict[str, float]:
    """Shards touched per query of a sharded workload, from the request
    list and the public router: ``fanout_per_req`` and the share of
    queries spanning more than one shard."""
    router = CategoryShardRouter(config["deployment"]["shards"])
    owners = [len(router.owners(op["categories"]))
              for op in ops if not is_update(op)]
    return {"fanout_per_req": sum(owners) / len(owners),
            "spanning_share": sum(1 for o in owners if o > 1) / len(owners)}
