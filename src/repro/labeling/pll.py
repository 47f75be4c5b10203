"""Pruned landmark labeling for directed weighted graphs.

This is the construction the paper adopts ("we adopt the pruned landmark
labeling method [2], which achieves good performance and is easy to
implement", Sec. V-A), generalised from BFS to Dijkstra for arbitrary
non-negative weights:

for each vertex ``r`` in hub order:
    * a *pruned forward search* from ``r`` appends ``(r, d, parent)`` to
      ``Lin(u)`` for every settled ``u`` whose current label-query distance
      exceeds ``d`` — pruned vertices are not expanded;
    * a *pruned backward search* symmetrically populates ``Lout``.

The pruning test against already-built labels is what keeps label sets small
while guaranteeing the cover property.

The labels are built *columnar*: per side and vertex three parallel lists
(hub ranks, distances, parents) — the RPLI sections un-flattened, which
:meth:`PackedLabelIndex.from_columns` concatenates; no per-entry object is
created.  One search serves both frontier disciplines: a binary heap for
weighted graphs, a FIFO deque for unit-weight ones (Akiba et al.'s BFS form;
the paper's G+ is "an unweighted, directed graph where all edge weights are
set to 1"), where a vertex's first discovery is already its final distance.

On a symmetric graph (the undirected CAL/NYC road networks) the backward
search of a root repeats its forward search, so only one is run and ``Lout``
aliases ``Lin``.  That holds for the heap: vertices settle in the total
order on ``(d, u)`` and a parent moves only on strict improvement, so the
iteration order of an adjacency row cannot show.  The deque discovers in
row order, which may differ between the two sides of a vertex, so
unit-weight graphs always run both searches.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional, Sequence

from repro.graph.graph import Graph
from repro.labeling.order import degree_order, validate_order
from repro.labeling.packed import NO_PARENT, PackedLabelIndex
from repro.types import INFINITY, Vertex

#: frontier disciplines as ``(factory, push(frontier, item), pop(frontier))``
_HEAP = (list, heappush, heappop)
_FIFO = (deque, deque.append, deque.popleft)


def _pruned_search(rows, root, rank, root_label, columns, frontier, scratch):
    """One pruned search from ``root`` over ``rows`` (one direction).

    Appends ``(rank, d, parent)`` to ``columns`` — the side being built,
    which the prune test also probes — at every vertex the existing labels
    do not certify within ``d``.  ``root_label`` is the root's ``(ranks,
    dists)`` on the *other* side.  ``scratch`` is three per-build lists
    (tentative distance by vertex, root-side distance by hub rank, parent
    by vertex); the first two are all-``INFINITY`` between searches.
    """
    ranks, dists, parents = columns
    make_frontier, push, pop = frontier
    dist, root_side, parent = scratch
    for hub, d in zip(*root_label):
        root_side[hub] = d
    dist[root] = 0.0
    parent[root] = NO_PARENT
    settled = []
    queue = make_frontier()
    push(queue, (0.0, root))
    while queue:
        d, u = pop(queue)
        if d > dist[u]:
            continue  # superseded by a shorter entry for u
        settled.append(u)
        # Pruning test: can existing labels already certify dis <= d?
        # Most prunes are certified by the first few (top-ranked) hubs,
        # so the early exit beats any C-level whole-label reduction.
        for hub, hub_dist in zip(ranks[u], dists[u]):
            if root_side[hub] + hub_dist <= d:
                break
        else:
            ranks[u].append(rank)
            dists[u].append(d)
            parents[u].append(parent[u])
            for v, w in rows[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    push(queue, (nd, v))
    # The frontier drained, so every touched vertex was settled once.
    for u in settled:
        dist[u] = INFINITY
    for hub in root_label[0]:
        root_side[hub] = INFINITY


def _build(graph: Graph, order: Optional[Sequence[Vertex]],
           frontier) -> PackedLabelIndex:
    """Run the pruned searches of every root in ``order`` and pack."""
    if order is None:
        order = degree_order(graph)
    else:
        order = validate_order(graph, order)
    n = graph.num_vertices

    def empty_columns():
        return tuple([[] for _ in range(n)] for _ in range(3))

    # Only the heap's result is independent of adjacency-row order (see
    # the module docstring), so only it may skip the backward searches.
    one_search = frontier is _HEAP and graph.is_symmetric()
    lin = empty_columns()
    lout = lin if one_search else empty_columns()
    rows_out = [row.items() for row in graph.adjacency()]
    rows_in = [row.items() for row in graph.adjacency(incoming=True)]
    scratch = ([INFINITY] * n, [INFINITY] * n, [NO_PARENT] * n)
    for rank, root in enumerate(order):
        # hub root reaches u  -> (root, d) ∈ Lin(u)
        _pruned_search(rows_out, root, rank, (lout[0][root], lout[1][root]),
                       lin, frontier, scratch)
        if not one_search:
            # u reaches hub root -> (root, d) ∈ Lout(u)
            _pruned_search(rows_in, root, rank, (lin[0][root], lin[1][root]),
                           lout, frontier, scratch)
    return PackedLabelIndex.from_columns(order, lin, lout)


def graph_is_unit_weight(graph: Graph) -> bool:
    """True when every edge weighs exactly 1 (the paper's G+ setting)."""
    return all(w == 1.0 for _, _, w in graph.edges())


def build_pruned_landmark_labels(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> PackedLabelIndex:
    """Build the label index over ``graph`` with pruned Dijkstra searches.

    ``order`` defaults to decreasing-degree; passing an explicit order is
    useful for tests and the ordering ablation.
    """
    return _build(graph, order, _HEAP)


def build_bfs_labels(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> PackedLabelIndex:
    """Pruned BFS labeling; only valid for unit-weight graphs."""
    if not graph_is_unit_weight(graph):
        raise ValueError("BFS labeling requires all edge weights to be 1")
    return _build(graph, order, _FIFO)


def build_labels_auto(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> PackedLabelIndex:
    """BFS labeling on unit-weight graphs, pruned Dijkstra otherwise."""
    unit = graph.num_edges and graph_is_unit_weight(graph)
    return _build(graph, order, _FIFO if unit else _HEAP)
