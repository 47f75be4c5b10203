"""Dynamic updates (Sec. IV-C).

The paper distinguishes *graph structure* updates — delegated to existing
incremental hub-label maintenance work [3, 6, 38] — and *category* updates,
which it spells out concretely:

* inserting category ``Ci`` into ``F(v)``: add ``v`` to ``V_Ci`` and, for
  each ``(u, d_{u,v}) ∈ Lin(v)``, binary-insert ``(d_{u,v}, v)`` into
  ``IL(u) ∈ IL(Ci)`` — ``O(|Lin(v)| log |Ci|)``;
* removing: the symmetric deletion.

A category update edits the hub runs of
:class:`~repro.labeling.packed_inverted.PackedInvertedIndex` as it
arrives: each run it touches is copied, edited and appended to the
category's private run arrays, and the category compacts once its edits
outgrow ``COMPACT_RATIO`` of its live entries.  The base
sections are only ever read, whether they are a private buffer or a view
into a shared index file, so the file is never written and the
category's ``version`` counter simply keeps counting.

A structure update is :func:`apply_edge_mutation` followed by a full
label rebuild (``assemble_index``): the honest fallback the paper's
citations amount to for a from-scratch reproduction.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.types import CategoryId, Cost, Vertex

InvertedMap = Dict[CategoryId, PackedInvertedIndex]


def _check_updatable(inverted: InvertedMap) -> None:
    """Fail fast (before any graph mutation) on non-updatable indexes.

    Every category's index is inspected — not just the first — so a
    mapping polluted with a foreign type anywhere fails before ``F(v)``
    or any sibling index is touched, keeping graph and index state
    consistent.
    """
    for il in inverted.values():
        if not isinstance(il, PackedInvertedIndex):
            raise IndexBuildError(
                "incremental category updates require PackedInvertedIndex "
                f"values, got {type(il).__name__!r}"
            )


def _lin_entries(labels: PackedLabelIndex, v: Vertex):
    """``(hub, hub_rank, dist)`` of every ``Lin(v)`` entry, read straight
    from the side's columns."""
    side = labels.lin_side()
    lo, hi = side.slice(v)
    order = labels.order
    return [(order[rank], rank, dist)
            for rank, dist in zip(side.hub_ranks[lo:hi].tolist(),
                                  side.dists[lo:hi].tolist())]


def add_vertex_to_category(
    graph: Graph,
    labels: PackedLabelIndex,
    inverted: InvertedMap,
    v: Vertex,
    cid: CategoryId,
) -> None:
    """Insert ``cid`` into ``F(v)`` and update ``IL(cid)`` incrementally."""
    _check_updatable(inverted)
    if graph.has_category(v, cid):
        return
    graph.assign_category(v, cid)
    il = inverted.get(cid)
    if il is None:
        il = inverted[cid] = PackedInvertedIndex.empty(cid)
    il.adjust_member_count(+1)
    for hub, rank, dist in _lin_entries(labels, v):
        il.insert(hub, rank, dist, v)
    il.maybe_compact()


def remove_vertex_from_category(
    graph: Graph,
    labels: PackedLabelIndex,
    inverted: InvertedMap,
    v: Vertex,
    cid: CategoryId,
) -> None:
    """Remove ``cid`` from ``F(v)`` and update ``IL(cid)`` incrementally."""
    _check_updatable(inverted)
    if not graph.has_category(v, cid):
        return
    graph.unassign_category(v, cid)
    il = inverted.get(cid)
    if il is None:
        return
    il.adjust_member_count(-1)
    for hub, rank, dist in _lin_entries(labels, v):
        il.remove(hub, rank, dist, v)
    il.maybe_compact()


def apply_edge_mutation(graph: Graph, u: Vertex, v: Vertex,
                        weight: Optional[Cost]) -> None:
    """Apply one edge insert/change/delete to ``graph`` (no index work).

    The shared primitive of every structure-update path: a weight change
    is the paper's remove-insert pair, ``weight=None`` deletes (raising
    ``KeyError`` when the edge does not exist, before any state moved).
    :meth:`KOSREngine.update_edge` and the fleet's ``update_edge`` both
    mutate through this one function, so an engine and a fleet given the
    same update hold identical graphs — and therefore identical rebuilt
    labels.
    """
    if weight is None:
        graph.remove_edge(u, v)
    else:
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        graph.add_edge(u, v, weight)

