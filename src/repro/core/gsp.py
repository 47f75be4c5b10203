"""GSP (Rice & Tsotras, ICDE 2013): the state-of-the-art OSR comparator.

GSP solves the *optimal* (k = 1) sequenced route with dynamic programming
over categories::

    X[i, v] = min over u in C_{i-1} of ( X[i-1, u] + dis(u, v) )    v in C_i

computed here with one multi-source Dijkstra per category transition (the
original engineers this over contraction hierarchies — see
:mod:`repro.ch` — which changes constants, not results).  The transition
only propagates *minimal* costs, which is exactly why GSP cannot be
extended to k > 1 (Sec. III-B): information about second-best partials is
discarded at every layer.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.query import KOSRQuery
from repro.core.stats import QueryStats
from repro.graph.graph import Graph
from repro.obs import clock
from repro.types import Cost, INFINITY, SequencedResult, Vertex, Witness


def _multi_source_with_origins(
    graph: Graph, sources: Dict[Vertex, Cost]
) -> Tuple[Dict[Vertex, Cost], Dict[Vertex, Vertex]]:
    """Multi-source Dijkstra that remembers which seed settled each vertex."""
    dist: Dict[Vertex, Cost] = {}
    origin: Dict[Vertex, Vertex] = {}
    heap: List[Tuple[Cost, Vertex, Vertex]] = []
    for s, offset in sources.items():
        if offset < dist.get(s, INFINITY):
            dist[s] = offset
            origin[s] = s
            heapq.heappush(heap, (offset, s, s))
    settled: Dict[Vertex, Cost] = {}
    settled_origin: Dict[Vertex, Vertex] = {}
    while heap:
        d, u, src = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        settled_origin[u] = src
        for v, w in graph.neighbors_out(u):
            nd = d + w
            if nd < dist.get(v, INFINITY):
                dist[v] = nd
                origin[v] = src
                heapq.heappush(heap, (nd, v, src))
    return settled, settled_origin


Transition = Callable[[Dict[Vertex, Cost], Iterable[Vertex]],
                      Dict[Vertex, Tuple[Cost, Vertex]]]


def _gsp_dp(graph: Graph, query: KOSRQuery, stats: QueryStats,
            transition: Transition,
            deadline: Optional[float] = None) -> List[SequencedResult]:
    """The DP + backtrack both GSP flavours share.

    ``transition(frontier, targets)`` is one layer update: for every
    reachable target the pair ``(min_s X[s] + dis(s, target), argmin s)``
    over the frontier's ``{s: X[s]}``.  Each call is booked as one NN
    query, each layer's survivors as examined routes.

    ``deadline`` (an absolute :func:`repro.obs.clock.now` instant) is
    checked before every transition; past it the DP stops with no route
    and ``stats.completed = False``, as the search-based methods do.
    """
    if query.k != 1:
        raise ValueError("GSP only answers k = 1 (OSR) queries; see Sec. III-B")

    def search(targets):
        """One transition from the frontier; None past ``deadline``."""
        if deadline is not None and clock.now() > deadline:
            stats.completed = False
            return None
        stats.nn_queries += 1  # one search per transition
        return transition(frontier, targets)

    frontier: Dict[Vertex, Cost] = {query.source: 0.0}
    #: per level: vertex -> the C_{i-1} vertex that minimised X[i, vertex]
    backtracks: List[Dict[Vertex, Vertex]] = []
    results: List[SequencedResult] = []
    for cid in query.categories:
        best = search(graph.members(cid))
        if best is None:
            break
        stats.examined_routes += len(best)
        backtracks.append({v: origin for v, (_, origin) in best.items()})
        frontier = {v: cost for v, (cost, _) in best.items()}
        if not frontier:
            break
    else:
        final = search([query.target]) or {}
        if query.target in final:
            # Reconstruct the witness layer by layer.
            total, cur = final[query.target]
            vertices = [query.target]
            for backtrack in reversed(backtracks):
                vertices.append(cur)
                cur = backtrack[cur]
            vertices.append(query.source)
            vertices.reverse()
            results.append(SequencedResult(Witness(tuple(vertices), total)))
    stats.results_found = len(results)
    return results


def gsp_osr(
    graph: Graph,
    query: KOSRQuery,
    stats: Optional[QueryStats] = None,
    deadline: Optional[float] = None,
) -> List[SequencedResult]:
    """Run GSP for an OSR query (requires ``query.k == 1``).

    Returns a one-element list with the optimal sequenced route's witness,
    or an empty list when no feasible route exists or ``deadline`` passed
    first.  Each category transition is one multi-source Dijkstra.
    """
    def transition(frontier, targets):
        settled, origins = _multi_source_with_origins(graph, frontier)
        return {v: (settled[v], origins[v]) for v in targets if v in settled}

    stats = stats if stats is not None else QueryStats(method="GSP")
    return _gsp_dp(graph, query, stats, transition, deadline)


def gsp_osr_ch(
    graph: Graph,
    query: KOSRQuery,
    ch,
    stats: Optional[QueryStats] = None,
    deadline: Optional[float] = None,
) -> List[SequencedResult]:
    """GSP with contraction-hierarchy transitions — the original paper's
    engineering [29].

    Each category transition is one CH bucket sweep
    (:func:`repro.ch.many_to_many.offset_min_to_targets`) instead of a
    full multi-source Dijkstra; the DP and the returned route are
    identical to :func:`gsp_osr` (tests assert this).
    """
    from repro.ch.many_to_many import offset_min_to_targets

    stats = stats if stats is not None else QueryStats(method="GSP-CH")
    return _gsp_dp(graph, query, stats, partial(offset_min_to_targets, ch),
                   deadline)
