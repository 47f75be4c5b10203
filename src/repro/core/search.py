"""The unified best-first sequenced-route search loop.

KPNE, PruningKOSR, and StarKOSR share one skeleton — a global priority
queue of partial witnesses, extension through the (estimated) nearest
neighbor of the last vertex, and sibling candidate generation through the
``(x+1)``-th neighbor of the second-to-last vertex.  They differ in exactly
two switches:

============  =================  ==========================
method        ``use_dominance``  ``estimated`` (A* ordering)
============  =================  ==========================
KPNE          no                 no
PruningKOSR   yes                no
StarKOSR      yes                yes
(ablation)    no                 yes
============  =================  ==========================

Implementing the paper's Algorithm 2 once with these switches keeps the
comparisons honest: all methods pay identical per-operation overheads, so
the measured gaps come from the algorithms, not the engineering.  A
method is a row of :data:`repro.service.planner.METHOD_TABLE`, and
:func:`repro.service.execution.execute_plan` is the one caller of the
search; what each row buys:

* **KPNE** (Sec. III-B) — progressive neighbor exploration (Sharifzadeh
  et al. [32]) extended to top-k: the skeleton above with neither
  switch.  Without dominance every partial witness cheaper than the
  k-th result is examined — the exponential ``Σ Π |Cj|`` search space
  in the worst case.
* **PruningKOSR** (Algorithm 2, Sec. IV-A) — a partial witness is
  *dominated* when another one of the same size already reached its
  last vertex at no greater cost (Definition 6).  Dominated witnesses
  are parked in per-vertex heaps instead of being extended and are
  reconsidered once their dominating route completes into a result
  (Lemma 1: nothing cheaper is missed).  This cuts the examined-route
  space to the polynomial ``Σ |Ci|·|Ci+1| + (k-1)·Σ |Ci|`` (Lemma 3).
* **StarKOSR** (Sec. IV-B) — orders the queue by ``w(p) + dis(last(p),
  t)``, the real cost plus an admissible completion estimate from the
  hub labels, and extends through *estimated* nearest neighbors
  (FindNEN, Algorithm 4), which rank category members by leg cost plus
  remaining distance.  Partial witnesses pointing away from the
  destination sink in the queue, shrinking the searched rings of
  Fig. 2(c); Lemma 4 proves the returned top-k set is exact.  Without
  dominance (SK-NODOM) it is the heuristic-only ablation.

Per-operation timing (the Table X breakdown) is gated on
``stats.profile``: in the default profile-off mode the loop makes zero
:func:`repro.obs.clock.now` reads — the only exception is the explicit
``deadline`` guard, which needs the clock by definition and is skipped
entirely when no deadline is set.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.core.dominance import DominanceTables
from repro.core.runtime import QueryRuntime, table_x_timer
from repro.obs import clock
from repro.types import Cost, SequencedResult, Vertex, Witness

#: Queue entries: (key, tiebreak, vertices, cost, x, prefix_cost).
#: ``x`` is the neighbor rank that produced the last vertex (``None`` for
#: reconsidered dominated routes — the paper's '-' marker).
_Entry = Tuple[Cost, int, Tuple[Vertex, ...], Cost, Optional[int], Cost]


def sequenced_route_search(
    runtime: QueryRuntime,
    use_dominance: bool,
    estimated: bool,
    budget: Optional[int] = None,
    sources: Optional[List[Tuple[Vertex, Cost]]] = None,
    deadline: Optional[float] = None,
    trace: Optional[List[Tuple[Tuple[Vertex, ...], Cost]]] = None,
    on_result: Optional[Callable[[SequencedResult], None]] = None,
) -> List[SequencedResult]:
    """Run the sequenced-route search; returns up to ``query.k`` results.

    ``sources`` overrides the initial queue content (used by the no-source
    variant); entries are ``(vertex, initial_cost)``.

    When ``budget`` examined routes are exceeded, or ``deadline`` (an
    absolute :func:`repro.obs.clock.now` instant) passes, the search stops
    with ``runtime.stats.completed = False`` (the paper's INF outcome —
    queries that do not finish within 3,600 seconds).

    ``on_result`` is the anytime seam: the search is top-k optimal, so
    the i-th route is final the moment it is appended — the callback
    fires right then, before the (i+1)-th is searched for.  It receives
    exactly the :class:`SequencedResult` objects that end up in the
    returned list, in order, and must not mutate them (streaming
    consumers hold references to live results).
    """
    stats = runtime.stats
    query = runtime.query
    num_levels = runtime.num_levels
    k = query.k
    tiebreak = itertools.count()

    queue: List[_Entry] = []
    # Per-vertex dominance tables (Algorithm 2 lines 8-19).
    tables = DominanceTables()

    # The three queue operations, bound once: behind the Table-X timer
    # of ``stats.queue_time`` when profiling, bare otherwise, so the loop
    # below never tests the flag.
    heappush, heappop, park = heapq.heappush, heapq.heappop, tables.park
    if stats.profile:
        heappush, heappop, park = (
            table_x_timer(stats, "queue_time", op)
            for op in (heappush, heappop, park))

    # Push/pop counters accumulate in locals and fold into ``stats`` at the
    # single exit point below — one attribute write instead of two per op.
    generated = 0
    max_queue = 0
    examined = 0

    def push(key: Cost, vertices: Tuple[Vertex, ...], cost: Cost,
             x: Optional[int], prefix_cost: Cost) -> None:
        nonlocal generated, max_queue
        heappush(queue, (key, next(tiebreak), vertices, cost, x, prefix_cost))
        generated += 1
        if len(queue) > max_queue:
            max_queue = len(queue)

    if sources is None:
        sources = [(query.source, 0.0)]
    for vertex, initial_cost in sources:
        if estimated:
            h = runtime.heuristic(vertex)
            if h == float("inf"):
                continue  # destination unreachable from this start
            push(initial_cost + h, (vertex,), initial_cost, 1, 0.0)
        else:
            push(initial_cost, (vertex,), initial_cost, 1, 0.0)

    results: List[SequencedResult] = []
    nearest = runtime.nearest
    nearest_estimated = runtime.nearest_estimated if estimated else None
    per_level = stats.per_level_examined

    while queue and len(results) < k:
        key, _, vertices, cost, x, prefix_cost = heappop(queue)

        level = len(vertices) - 1
        examined += 1
        if level < len(per_level):
            per_level[level] += 1
        else:
            stats.bump_level(level)
        if trace is not None:
            trace.append((vertices, cost))
        if budget is not None and examined > budget:
            stats.completed = False
            break
        if deadline is not None and clock.now() > deadline:
            stats.completed = False
            break

        if level == num_levels:
            # Complete feasible witness (lines 6-12).
            results.append(SequencedResult(Witness(vertices, cost)))
            if on_result is not None:
                on_result(results[-1])
            if use_dominance:
                for entry in tables.release_for_result(vertices):
                    r_key, _, r_vertices, r_cost, _, r_prefix = entry
                    stats.reconsidered_routes += 1
                    push(r_key, r_vertices, r_cost, None, r_prefix)
            continue

        last = vertices[-1]
        size = level + 1
        extend = True
        if use_dominance:
            if not tables.try_register(last, size, vertices):
                # Dominated (lines 18-19): park it, keyed consistently with
                # the global queue so the cheapest is reconsidered first.
                extend = False
                stats.dominated_routes += 1
                park(last, size,
                     (key, next(tiebreak), vertices, cost, None, prefix_cost))

        if extend:
            # Extend through the (estimated) nearest neighbor (lines 14-17).
            if estimated:
                nxt = nearest_estimated(last, level + 1, 1)
                if nxt is not None:
                    u, leg, est = nxt
                    push(cost + est, vertices + (u,), cost + leg, 1, cost)
            else:
                nxt = nearest(last, level + 1, 1)
                if nxt is not None:
                    u, leg = nxt
                    push(cost + leg, vertices + (u,), cost + leg, 1, cost)

        if level > 0 and x is not None:
            # Sibling candidate via the (x+1)-th neighbor (lines 20-22).
            prev = vertices[-2]
            if estimated:
                sib = nearest_estimated(prev, level, x + 1)
                if sib is not None:
                    u, leg, est = sib
                    push(prefix_cost + est, vertices[:-1] + (u,),
                         prefix_cost + leg, x + 1, prefix_cost)
            else:
                sib = nearest(prev, level, x + 1)
                if sib is not None:
                    u, leg = sib
                    push(prefix_cost + leg, vertices[:-1] + (u,),
                         prefix_cost + leg, x + 1, prefix_cost)

    stats.examined_routes += examined
    stats.generated_routes += generated
    if max_queue > stats.max_queue_size:
        stats.max_queue_size = max_queue
    stats.results_found = len(results)
    runtime.finalize_counters()
    return results
