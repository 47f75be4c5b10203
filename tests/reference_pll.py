"""The paper-faithful PLL builder, kept as the tests' independent reference.

This is the object-building construction the product used before the
columnar one (``repro.labeling.pll``): a pruned Dijkstra (weighted) or
pruned BFS (unit weights) per root and direction, appending one frozen
:class:`LabelEntry` per label entry, with the prune test walking those
objects.  It shares no code with the product builder, so the parity suites
(``conftest.reference_engine``) and the differential tests in
``tests/test_pll_columnar.py`` compare two independent implementations.
It always runs both searches of a root.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.types import Cost, INFINITY, Vertex

from reference_labels import LabelEntry, LabelIndex


def _pruned_dijkstra(
    graph: Graph,
    root: Vertex,
    rank: int,
    forward: bool,
    lin: List[List[LabelEntry]],
    lout: List[List[LabelEntry]],
) -> None:
    """One pruned search; ``forward`` selects the direction and target label."""
    if forward:
        neighbors = graph.neighbors_out
        target_labels = lin  # hub root reaches u  -> (root, d) ∈ Lin(u)
        root_side = {e.hub_rank: e.dist for e in lout[root]}
        probe = lin
    else:
        neighbors = graph.neighbors_in
        target_labels = lout  # u reaches hub root -> (root, d) ∈ Lout(u)
        root_side = {e.hub_rank: e.dist for e in lin[root]}
        probe = lout

    dist: Dict[Vertex, Cost] = {root: 0.0}
    parent: Dict[Vertex, Optional[Vertex]] = {root: None}
    heap: List[Tuple[Cost, Vertex]] = [(0.0, root)]
    settled = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        # Pruning test: can existing labels already certify dis <= d?
        pruned = False
        for e in probe[u]:
            other = root_side.get(e.hub_rank)
            if other is not None and other + e.dist <= d:
                pruned = True
                break
        if pruned:
            continue
        target_labels[u].append(LabelEntry(rank, d, parent[u]))
        for v, w in neighbors(u):
            nd = d + w
            if v not in settled and nd < dist.get(v, INFINITY):
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))


def _pruned_bfs(
    graph: Graph,
    root: Vertex,
    rank: int,
    forward: bool,
    lin: List[List[LabelEntry]],
    lout: List[List[LabelEntry]],
) -> None:
    if forward:
        neighbors = graph.neighbors_out
        target_labels = lin
        root_side = {e.hub_rank: e.dist for e in lout[root]}
        probe = lin
    else:
        neighbors = graph.neighbors_in
        target_labels = lout
        root_side = {e.hub_rank: e.dist for e in lin[root]}
        probe = lout

    queue = deque([(root, 0.0, None)])
    seen = {root}
    while queue:
        u, d, parent = queue.popleft()
        pruned = False
        for e in probe[u]:
            other = root_side.get(e.hub_rank)
            if other is not None and other + e.dist <= d:
                pruned = True
                break
        if pruned:
            continue
        target_labels[u].append(LabelEntry(rank, d, parent))
        for v, _ in neighbors(u):
            if v not in seen:
                seen.add(v)
                queue.append((v, d + 1.0, u))


def build_reference_labels(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
    bfs: Optional[bool] = None,
) -> LabelIndex:
    """The reference :class:`LabelIndex` over ``graph``.

    ``order`` defaults to decreasing total degree, ties by id.  ``bfs``
    defaults to what the product's ``build_labels_auto`` decides: pruned
    BFS iff the graph has edges and all of them weigh 1.
    """
    n = graph.num_vertices
    if order is None:
        order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    if bfs is None:
        bfs = bool(graph.num_edges) and all(
            w == 1.0 for _, _, w in graph.edges())
    search = _pruned_bfs if bfs else _pruned_dijkstra
    lin: List[List[LabelEntry]] = [[] for _ in range(n)]
    lout: List[List[LabelEntry]] = [[] for _ in range(n)]
    for rank, root in enumerate(order):
        search(graph, root, rank, True, lin, lout)
        search(graph, root, rank, False, lin, lout)
    return LabelIndex(order, lin, lout)
