"""The inverted label index ``IL(Ci)`` (Sec. IV-A, Table V).

For a category ``Ci``, the inverted index groups the ``Lin`` entries of all
member vertices *by hub*: ``IL(u')`` lists ``(d_{u',m}, m)`` for every member
``m`` whose ``Lin(m)`` contains hub ``u'``, sorted by distance ascending.

FindNN then only needs, for each hub ``u'`` appearing in ``Lout(v)``, to
scan ``IL(u')`` in order — a k-way merge that yields members of ``Ci`` in
non-decreasing ``dis(v, ·)`` order.

This is the per-entry object form, kept with the tests as the reference
the serving representation (:mod:`repro.labeling.packed_inverted`) is
tested against; it is built once and never updated in place.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graph.graph import Graph
from repro.types import CategoryId, Cost, Vertex

from reference_labels import lin


class InvertedLabelIndex:
    """Inverted label lists of one category."""

    def __init__(self, category: CategoryId):
        self.category = category
        #: hub vertex -> [(dist_from_hub_to_member, member)], sorted ascending.
        self.lists: Dict[Vertex, List[Tuple[Cost, Vertex]]] = {}
        #: never moves (the reference is rebuilt, not updated); read by
        #: the engine's epoch accounting, which sums per-index versions
        self.version = 0

    def hub_list(self, hub: Vertex) -> List[Tuple[Cost, Vertex]]:
        """The sorted entries of hub ``hub`` (empty when the hub is unused)."""
        return self.lists.get(hub, [])

    def as_lists(self) -> Dict[Vertex, List[Tuple[Cost, Vertex]]]:
        """Hub -> sorted ``(dist, member)`` lists (the serialisation view)."""
        return self.lists

    @property
    def total_entries(self) -> int:
        """``|IL(Ci)|`` — total label entries in this category's index."""
        return sum(len(v) for v in self.lists.values())

    @property
    def num_hubs(self) -> int:
        return len(self.lists)

    def average_list_length(self) -> float:
        """Avg ``|IL(v)|`` per hub — the Table IX statistic."""
        if not self.lists:
            return 0.0
        return self.total_entries / len(self.lists)


def build_inverted_index(
    graph: Graph, labels, category: CategoryId
) -> InvertedLabelIndex:
    """Build ``IL(Ci)`` for one category from a label index (object or
    packed).

    Entries are appended and each hub list sorted once at the end —
    O(L log L) overall — instead of per-entry ``insort``, which costs an
    O(L) list shift per insertion.
    """
    il = InvertedLabelIndex(category)
    lists = il.lists
    for member in sorted(graph.members(category)):
        for entry in lin(labels, member):
            hub = labels.hub_vertex(entry.hub_rank)
            bucket = lists.get(hub)
            if bucket is None:
                bucket = lists[hub] = []
            bucket.append((entry.dist, member))
    for bucket in lists.values():
        bucket.sort()
    return il


def build_inverted_indexes(
    graph: Graph, labels
) -> Dict[CategoryId, InvertedLabelIndex]:
    """Build inverted indexes for every category of the graph."""
    return {
        cid: build_inverted_index(graph, labels, cid)
        for cid in range(graph.num_categories)
    }
