"""Dijkstra-based nearest-neighbor-in-category search.

The paper's ``*-Dij`` method variants answer "the x-th nearest neighbor of
vertex ``v`` in category ``Ci``" with graph searches instead of the inverted
label index.  Two flavours are provided, both behind
:class:`~repro.nn.dijkstra_nn.DijkstraNNFinder`:

* :func:`knn_in_category` — the paper-faithful straw man: "each time we
  find the x-th nearest neighbor, Dijkstra's search actually finds the top-x
  nearest neighbors from scratch" (Sec. IV-A).  This is what makes
  KPNE-Dij/PK-Dij/SK-Dij orders of magnitude slower.
* :class:`DijkstraKnnCursor` — a resumable search that keeps its heap between
  calls, used by the ablation bench to separate "no index" from "no reuse".
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.graph.graph import Graph
from repro.types import CategoryId, Cost, Vertex


def knn_in_category(
    graph: Graph, source: Vertex, category: CategoryId, k: int
) -> List[Tuple[Vertex, Cost]]:
    """Top-``k`` nearest members of ``category`` from ``source``, by one Dijkstra.

    The source itself is a valid answer when it belongs to the category
    (witness subsequences may repeat vertices: Definition 4 allows
    ``r_i <= r_{i+1}``).
    """
    members = graph.members(category)
    if not members:
        return []
    found: List[Tuple[Vertex, Cost]] = []
    dist: Dict[Vertex, Cost] = {source: 0.0}
    heap: List[Tuple[Cost, Vertex]] = [(0.0, source)]
    settled: Set[Vertex] = set()
    while heap and len(found) < k:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u in members:
            found.append((u, d))
        for v, w in graph.neighbors_out(u):
            nd = d + w
            if v not in settled and nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return found


class DijkstraKnnCursor:
    """Resumable nearest-neighbor enumeration from a fixed source vertex.

    ``next()`` settles graph vertices until the next member of the category
    is reached, preserving heap and distance maps across calls, so that
    enumerating the first ``x`` neighbors costs one partial Dijkstra total.
    """

    def __init__(self, graph: Graph, source: Vertex, category: CategoryId):
        self._graph = graph
        self._members = graph.members(category)
        self._dist: Dict[Vertex, Cost] = {source: 0.0}
        self._heap: List[Tuple[Cost, Vertex]] = [(0.0, source)]
        self._settled: Set[Vertex] = set()
        self._found: List[Tuple[Vertex, Cost]] = []
        self._exhausted = not self._members

    @property
    def found(self) -> List[Tuple[Vertex, Cost]]:
        """Neighbors produced so far, nearest first."""
        return list(self._found)

    def get(self, x: int) -> Optional[Tuple[Vertex, Cost]]:
        """The ``x``-th (1-based) nearest neighbor, or ``None`` when fewer exist."""
        while len(self._found) < x and not self._exhausted:
            self._advance()
        if x <= len(self._found):
            return self._found[x - 1]
        return None

    def _advance(self) -> None:
        graph, members = self._graph, self._members
        dist, heap, settled = self._dist, self._heap, self._settled
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            for v, w in graph.neighbors_out(u):
                nd = d + w
                if v not in settled and nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
            if u in members:
                self._found.append((u, d))
                return
        self._exhausted = True
