"""Serving concurrent KOSR traffic through the asyncio front door.

The scenario: the route-planning backend from ``batch_service.py`` goes
online.  Requests now arrive concurrently — many of them *identical*
(popular destination, same category chain, same k), some of them during
index updates — and the backend must bound its memory under load instead
of queueing without limit.  ``AsyncQueryService`` adds exactly those
three behaviours over the warm ``QueryService``:

* identical in-flight requests **coalesce** onto one plan execution
  (every caller gets the same result object);
* a bounded admission queue applies **backpressure** — requests past
  ``max_queue`` fail fast with ``ServiceOverloadedError``;
* index updates between bursts keep **epoch parity**: the one warm
  session revalidates automatically, answers match a fresh cold engine.

Run:  python examples/async_serving.py
"""

import asyncio
import random
import time

from repro import (
    AsyncQueryService,
    KOSREngine,
    QueryOptions,
    QueryRequest,
    ServiceOverloadedError,
    make_query,
)
from repro.graph import generators


def build_workload(graph, rng, duplicates=6):
    """Rush-hour traffic: 3 destinations, identical requests repeated."""
    options = QueryOptions(method="SK")
    requests = []
    for _ in range(3):
        target = rng.randrange(graph.num_vertices)
        cats = rng.sample(range(graph.num_categories), 3)
        for _ in range(4):
            source = rng.randrange(graph.num_vertices)
            q = make_query(graph, source, target, cats, k=5)
            requests.extend(QueryRequest(q, options)
                            for _ in range(duplicates))
    rng.shuffle(requests)
    return requests


async def main() -> None:
    graph = generators.cal(scale=0.25)
    engine = KOSREngine.build(graph, name="cal")
    rng = random.Random(23)
    requests = build_workload(graph, rng)
    unique = len({r.key for r in requests})

    # Baseline: every request answered cold, one after another.
    t0 = time.perf_counter()
    cold = [engine.run(r.query, r.options) for r in requests]
    cold_s = time.perf_counter() - t0

    async with AsyncQueryService(engine.service) as front:
        t0 = time.perf_counter()
        served = await front.gather(requests)
        async_s = time.perf_counter() - t0

        stats = front.stats
        print(f"{len(requests)} requests ({unique} unique)")
        print(f"sequential cold: {len(requests) / cold_s:7.1f} req/s")
        print(f"async front door: {len(requests) / async_s:6.1f} req/s "
              f"({cold_s / async_s:.2f}x) — {stats.executed} executed, "
              f"{stats.coalesced} coalesced")

        # Transparent: coalesced answers are bit-identical to cold runs.
        for c, w in zip(cold, served):
            assert c.witnesses == w.witnesses
            assert c.stats.nn_queries == w.stats.nn_queries

        # A venue opens mid-session: the next burst revalidates epochs.
        new_member = next(v for v in range(graph.num_vertices)
                          if not graph.has_category(v, 0))
        engine.add_vertex_to_category(new_member, 0)
        followup = await front.gather(requests[:6])
        fresh = KOSREngine.build(graph)
        for r, w in zip(requests[:6], followup):
            c = fresh.run(r.query, r.options)
            assert c.witnesses == w.witnesses
        print("post-update burst matches a fresh engine")

    # Backpressure: a tiny admission queue sheds overload explicitly.
    async with AsyncQueryService(engine.service, max_queue=4) as front:
        outcomes = await asyncio.gather(
            *(front.submit(r) for r in requests[:20]),
            return_exceptions=True)
        shed = sum(isinstance(o, ServiceOverloadedError) for o in outcomes)
        print(f"overload demo: {len(outcomes) - shed} answered, "
              f"{shed} shed with ServiceOverloadedError")


if __name__ == "__main__":
    asyncio.run(main())
