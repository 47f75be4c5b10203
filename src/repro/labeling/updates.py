"""Dynamic updates (Sec. IV-C).

The paper distinguishes *graph structure* updates — delegated to existing
incremental hub-label maintenance work [3, 6, 38] — and *category* updates,
which it spells out concretely:

* inserting category ``Ci`` into ``F(v)``: add ``v`` to ``V_Ci`` and, for
  each ``(u, d_{u,v}) ∈ Lin(v)``, binary-insert ``(d_{u,v}, v)`` into
  ``IL(u) ∈ IL(Ci)`` — ``O(|Lin(v)| log |Ci|)``;
* removing: the symmetric deletion.

The deltas are staged in the per-category overlay of
:class:`~repro.labeling.packed_inverted.PackedInvertedIndex` (lazily
merged into the decoded runs by query cursors, compacted once the
overlay outgrows its ``overlay_ratio``).  The overlay sits on top of the
category's base sections whether those are a private buffer or a view
into a shared index file, so a first write to an attached category
changes nothing but the overlay: the file is never written and the
category's ``version`` counter simply keeps counting.

For structure updates we provide the honest fallback the paper's citations
amount to for a from-scratch reproduction: rebuild the labels (and the
inverted indexes).  The rebuild helper keeps graph, labels, and inverted
indexes consistent in one call.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.exceptions import IndexBuildError
from repro.graph.graph import Graph
from repro.labeling.assembly import assemble_index
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
        # A new category takes its siblings' compaction threshold.
        sibling = next(iter(inverted.values()), None)
        il = inverted[cid] = PackedInvertedIndex.empty(
            cid, None if sibling is None else sibling.overlay_ratio)
    for hub, rank, dist in _lin_entries(labels, v):
        il.overlay_insert(hub, rank, dist, v)
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
    for hub, rank, dist in _lin_entries(labels, v):
        il.overlay_remove(hub, rank, dist, v)
    il.maybe_compact()


def rebuild_after_structure_update(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
) -> tuple:
    """Rebuild labels + inverted indexes after edge insertions/removals.

    Returns ``(labels, inverted)``.  The paper handles structure updates
    with incremental label maintenance from the literature; a full
    rebuild gives identical final state (tests assert this) at higher
    preprocessing cost.
    """
    return assemble_index(graph, order=order)[:2]


def apply_edge_mutation(graph: Graph, u: Vertex, v: Vertex,
                        weight: Optional[Cost]) -> None:
    """Apply one edge insert/change/delete to ``graph`` (no index work).

    The shared primitive of every structure-update path: a weight change
    is the paper's remove-insert pair, ``weight=None`` deletes (raising
    ``KeyError`` when the edge does not exist, before any state moved).
    The sharded fence protocol relies on parent and workers mutating
    their own graph copies through this one function so the resulting
    graphs — and therefore the rebuilt labels — are identical.
    """
    if weight is None:
        graph.remove_edge(u, v)
    else:
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        graph.add_edge(u, v, weight)


def update_edge(
    graph: Graph,
    u: Vertex,
    v: Vertex,
    weight: Optional[Cost],
    order: Optional[Sequence[Vertex]] = None,
) -> tuple:
    """Apply one edge update (insert/change with a weight, delete with ``None``)
    and return freshly consistent ``(labels, inverted)``.

    Weight changes are the paper's remove-insert pair.
    """
    apply_edge_mutation(graph, u, v, weight)
    return rebuild_after_structure_update(graph, order)
