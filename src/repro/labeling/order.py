"""Hub orders for pruned landmark labeling.

Label size is extremely sensitive to the hub order: processing
high-centrality vertices first lets their searches prune almost everything
later.  :func:`hub_order` is the one choice every label build makes
(:func:`repro.labeling.pll.build_labels_auto`, and the tests' independent
reference builder):

* weighted graphs get :func:`tree_order`, the iterative tree-descendant
  order of Delling, Goldberg, Pajor and Werneck ("Robust Distance Queries
  on Massive Networks", ESA 2014).  It samples :data:`TREE_SAMPLES`
  shortest-path trees from roots drawn with the constant seed
  :data:`TREE_SEED`, so one graph always gets one order.  On the road
  analogues it cuts label entries by about a third against degree order
  (CAL 1.0 −31 %, FLA 0.1 −48 %), and with them every FindNN and
  ``dis(·, t)`` scan; computing it costs less than the build time it saves;
* unit-weight graphs (the paper's G+) keep :func:`degree_order`, Akiba et
  al.'s default: on the social graph the tree order grew labels by 1–8 %.
"""

from __future__ import annotations

import random
from array import array
from heapq import heapify, heappop, heappush
from typing import List

from repro.graph.graph import Graph
from repro.types import INFINITY, Vertex

#: shortest-path trees :func:`tree_order` samples; 32 gained nothing on
#: CAL, 128 cut its labels 31 %, 256 only 5 points more at twice the cost
TREE_SAMPLES = 128
#: seed of the root sampler, so the order is a function of the graph
TREE_SEED = 0


def graph_is_unit_weight(graph: Graph) -> bool:
    """True when every edge weighs exactly 1 (the paper's G+ setting)."""
    return all(w == 1.0 for _, _, w in graph.edges())


def hub_order(graph: Graph) -> List[Vertex]:
    """The hub order of ``graph``'s labels: the tree order when weighted,
    degree order on unit weights (and edgeless graphs, where both agree)."""
    if graph_is_unit_weight(graph):
        return degree_order(graph)
    return tree_order(graph)


def degree_order(graph: Graph) -> List[Vertex]:
    """Vertices by decreasing total degree (ties by id for determinism)."""
    return sorted(range(graph.num_vertices), key=lambda v: (-graph.degree(v), v))


def tree_order(graph: Graph) -> List[Vertex]:
    """Vertices by how many sampled shortest paths they cover, greedily.

    Sample :data:`TREE_SAMPLES` shortest-path trees (on a non-symmetric
    graph alternately forward and backward), each with its root detached,
    and credit every vertex with its descendant count summed over the
    trees.  Then repeatedly take the vertex with the largest total (ties
    to the lower id), subtract its subtree from its ancestors' counts and
    cut the subtree out of every tree: the paths through it are covered.
    The vertices no tree covers any more follow in :func:`degree_order`.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    rng = random.Random(TREE_SEED)
    rows = [[row.items() for row in graph.adjacency()]]
    if not graph.is_symmetric():
        rows.append([row.items() for row in graph.adjacency(incoming=True)])
    dist = [INFINITY] * n
    total = [0] * n
    trees = []
    for i in range(TREE_SAMPLES):
        tree = _sample_tree(rows[i % len(rows)], rng.randrange(n), dist)
        for v, s in zip(tree[0], tree[3]):
            total[v] += s
        trees.append(tree)
    heap = [(-t, v) for v, t in enumerate(total) if t]
    heapify(heap)
    order = []
    while heap:
        neg, v = heappop(heap)
        if -neg != total[v]:
            if total[v]:
                heappush(heap, (-total[v], v))  # stale: totals only fall
            continue
        order.append(v)
        for pre, pos, up, size, end in trees:
            p = pos[v]
            if p < 0 or not size[p]:
                continue
            s = size[p]
            a = up[p]
            while a >= 0:
                size[a] -= s
                total[pre[a]] -= s
                a = up[a]
            e = end[p]
            while p < e:
                s = size[p]
                if s:
                    total[pre[p]] -= s
                    size[p] = 0
                    p += 1
                else:
                    p = end[p]  # cut before, with its whole subtree
    picked = set(order)
    order.extend(v for v in degree_order(graph) if v not in picked)
    return order


def _sample_tree(rows, root, dist):
    """The shortest-path tree from ``root`` over ``rows``, root detached.

    ``dist`` is an all-``INFINITY`` list by vertex, and is again on
    return.  The tree comes back as five ``array``s over its preorder
    positions, the root's subtrees laid out one after another: ``pre``
    (the vertex at a position), ``pos`` (a vertex's position, -1 off the
    tree; indexed by vertex), ``up`` (the parent's position, -1 under the
    root), ``size`` (descendant count, itself included) and ``end`` (one
    past the subtree's last position).
    """
    n = len(dist)
    parent = [-1] * n
    settled = []
    dist[root] = 0.0
    queue = [(0.0, root)]
    while queue:
        d, u = heappop(queue)
        if d > dist[u]:
            continue
        settled.append(u)
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heappush(queue, (nd, v))
    for u in settled:
        dist[u] = INFINITY
    del settled[0]  # the root, detached
    subtree = [1] * n
    for u in reversed(settled):
        subtree[parent[u]] += subtree[u]
    # Settle order puts parents first, so each vertex takes the next free
    # slot of its parent's range (the forest's top level for the root's).
    count = len(settled)
    pre = [0] * count
    pos = [-1] * n
    up = [-1] * count
    size = [0] * count
    end = [0] * count
    free = [0] * n
    for u in settled:
        p = parent[u]
        q = free[p]
        s = subtree[u]
        free[p] = q + s
        free[u] = q + 1
        pre[q] = u
        pos[u] = q
        up[q] = pos[p]  # -1 under the root, which is off the tree
        size[q] = s
        end[q] = q + s
    return tuple(array("i", column) for column in (pre, pos, up, size, end))
