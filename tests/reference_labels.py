"""The 2-hop label index as per-entry objects: the tests' reference.

The form the paper describes and ``tests/reference_pll.py`` builds,
which the product's packed index (``repro.labeling.packed``) is tested
against; :func:`to_index` / :func:`from_index` / :func:`lin` /
:func:`lout` convert through the packed index's public ``sections()`` /
``from_columns``.

For every vertex ``v`` the index keeps

* ``Lin(v)``  — entries ``(hub, dis(hub, v))`` for hubs that reach ``v``;
* ``Lout(v)`` — entries ``(hub, dis(v, hub))`` for hubs ``v`` reaches;

satisfying the *cover property*: for any reachable pair ``(s, t)`` some hub
on a shortest path appears in both ``Lout(s)`` and ``Lin(t)``, so

    ``dis(s, t) = min { d_s,h + d_h,t : h ∈ Lout(s) ∩ Lin(t) }``

computed by a merge join over entries sorted by hub rank.  Each entry also
stores a *parent* vertex (the neighbouring vertex towards the hub on the
shortest path), which makes witness-to-route restoration a chain of label
lookups — exactly the technique the paper cites from Akiba et al. [2].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import IndexBuildError
from repro.labeling.packed import NO_PARENT, PackedLabelIndex
from repro.types import Cost, INFINITY, Vertex


@dataclass(frozen=True)
class LabelEntry:
    """One hub entry of a label set.

    ``hub_rank`` is the hub's position in the construction order (entries are
    sorted by it); ``parent`` is the adjacent vertex one step closer to the
    hub (``None`` for the hub's own trivial entry).
    """

    hub_rank: int
    dist: Cost
    parent: Optional[Vertex]


class LabelIndex:
    """A complete 2-hop label index over a graph.

    The per-entry object form the packed index is tested against
    (:func:`to_index` unpacks a build into it); instances are
    self-contained (the original graph is
    *not* needed for distance or path queries, matching the paper's
    disk-resident usage).
    """

    def __init__(
        self,
        order: Sequence[Vertex],
        lin: List[List[LabelEntry]],
        lout: List[List[LabelEntry]],
    ):
        if len(lin) != len(lout):
            raise IndexBuildError("Lin/Lout length mismatch")
        self._order = list(order)
        self._lin = lin
        self._lout = lout

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._lin)

    @property
    def order(self) -> List[Vertex]:
        """Hub construction order; ``order[rank]`` is the hub vertex."""
        return self._order

    def hub_vertex(self, hub_rank: int) -> Vertex:
        return self._order[hub_rank]

    def lin(self, v: Vertex) -> List[LabelEntry]:
        """``Lin(v)`` sorted by hub rank."""
        return self._lin[v]

    def lout(self, v: Vertex) -> List[LabelEntry]:
        """``Lout(v)`` sorted by hub rank."""
        return self._lout[v]

    def average_label_sizes(self) -> Tuple[float, float]:
        """``(avg |Lin|, avg |Lout|)`` — the Table IX statistics."""
        n = max(1, self.num_vertices)
        total_in = sum(len(entries) for entries in self._lin)
        total_out = sum(len(entries) for entries in self._lout)
        return total_in / n, total_out / n

    def size_entries(self) -> int:
        """Total number of label entries (the paper's index-size metric)."""
        return sum(len(e) for e in self._lin) + sum(len(e) for e in self._lout)

    # ------------------------------------------------------------------
    # Distance queries
    # ------------------------------------------------------------------
    def distance(self, s: Vertex, t: Vertex) -> Cost:
        """``dis(s, t)`` by merge join; :data:`INFINITY` when unreachable."""
        if s == t:
            return 0.0
        best, _ = self._merge_join(self._lout[s], self._lin[t])
        return best

    def distance_with_hub(self, s: Vertex, t: Vertex) -> Tuple[Cost, Optional[int]]:
        """``(dis(s, t), hub_rank)`` of the minimising hub (rank ``None`` iff unreachable)."""
        if s == t:
            return 0.0, None
        return self._merge_join(self._lout[s], self._lin[t])

    @staticmethod
    def _merge_join(
        out_entries: List[LabelEntry], in_entries: List[LabelEntry]
    ) -> Tuple[Cost, Optional[int]]:
        best = INFINITY
        best_hub: Optional[int] = None
        i = j = 0
        n, m = len(out_entries), len(in_entries)
        while i < n and j < m:
            a, b = out_entries[i], in_entries[j]
            if a.hub_rank == b.hub_rank:
                total = a.dist + b.dist
                if total < best:
                    best = total
                    best_hub = a.hub_rank
                i += 1
                j += 1
            elif a.hub_rank < b.hub_rank:
                i += 1
            else:
                j += 1
        return best, best_hub

    # ------------------------------------------------------------------
    # Path restoration
    # ------------------------------------------------------------------
    def _find_entry(self, entries: List[LabelEntry], hub_rank: int) -> LabelEntry:
        lo, hi = 0, len(entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if entries[mid].hub_rank < hub_rank:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(entries) or entries[lo].hub_rank != hub_rank:
            raise IndexBuildError(
                f"hub rank {hub_rank} missing from label during path restoration"
            )
        return entries[lo]

    def path(self, s: Vertex, t: Vertex) -> Tuple[Cost, List[Vertex]]:
        """Restore one shortest path from ``s`` to ``t``.

        Returns ``(INFINITY, [])`` when unreachable.  Pruned landmark
        labeling guarantees each labelled vertex's parent is labelled with
        the same hub, so the parent chains always terminate at the hub.
        """
        if s == t:
            return 0.0, [s]
        dist, hub_rank = self.distance_with_hub(s, t)
        if hub_rank is None or dist == INFINITY:
            return INFINITY, []
        hub = self._order[hub_rank]
        # Climb from s towards the hub through Lout parents.
        left: List[Vertex] = [s]
        cur = s
        while cur != hub:
            entry = self._find_entry(self._lout[cur], hub_rank)
            if entry.parent is None:
                break
            cur = entry.parent
            left.append(cur)
        # Climb from t backwards to the hub through Lin parents.
        right: List[Vertex] = []
        cur = t
        while cur != hub:
            entry = self._find_entry(self._lin[cur], hub_rank)
            if entry.parent is None:
                break
            right.append(cur)
            cur = entry.parent
        right.reverse()
        return dist, left + right

    def restore_witness_route(
        self, witness_vertices: Sequence[Vertex]
    ) -> Tuple[Cost, List[Vertex]]:
        """Concatenate shortest paths between consecutive witness vertices.

        This converts a KOSR witness into an *actual route* (Definition 2),
        as described at the end of Sec. IV-A.  Consecutive duplicates in the
        witness (a vertex covering two adjacent categories) contribute no
        edges.
        """
        if not witness_vertices:
            return 0.0, []
        total = 0.0
        route: List[Vertex] = [witness_vertices[0]]
        for a, b in zip(witness_vertices, witness_vertices[1:]):
            if a == b:
                continue
            d, sub = self.path(a, b)
            if d == INFINITY:
                return INFINITY, []
            total += d
            route.extend(sub[1:])
        return total, route


# ----------------------------------------------------------------------
# Object form <-> packed sections
# ----------------------------------------------------------------------
def _side_entries(side, v: Vertex) -> List[LabelEntry]:
    """One vertex's run of a packed side ``(offsets, hub_ranks, dists,
    parents)`` as entry objects."""
    offsets, hub_ranks, dists, parents = side
    lo, hi = offsets[v], offsets[v + 1]
    return [
        LabelEntry(rank, dist, None if parent == NO_PARENT else parent)
        for rank, dist, parent in zip(hub_ranks[lo:hi].tolist(),
                                      dists[lo:hi].tolist(),
                                      parents[lo:hi].tolist())
    ]


def lin(labels, v: Vertex) -> List[LabelEntry]:
    """``Lin(v)`` as entry objects, of an object or a packed index."""
    if isinstance(labels, LabelIndex):
        return labels.lin(v)
    return _side_entries(labels.sections()[1:5], v)


def lout(labels, v: Vertex) -> List[LabelEntry]:
    """``Lout(v)`` as entry objects, of an object or a packed index."""
    if isinstance(labels, LabelIndex):
        return labels.lout(v)
    return _side_entries(labels.sections()[5:9], v)


def to_index(packed: PackedLabelIndex) -> LabelIndex:
    """Unpack a packed index into the object representation."""
    sections = packed.sections()
    n = packed.num_vertices
    return LabelIndex(
        sections[0],
        [_side_entries(sections[1:5], v) for v in range(n)],
        [_side_entries(sections[5:9], v) for v in range(n)],
    )


def from_index(labels: LabelIndex) -> PackedLabelIndex:
    """Pack the object representation."""
    def columns(label_of):
        entries = [label_of(v) for v in range(labels.num_vertices)]
        return ([[e.hub_rank for e in es] for es in entries],
                [[e.dist for e in es] for es in entries],
                [[NO_PARENT if e.parent is None else e.parent
                  for e in es] for es in entries])

    return PackedLabelIndex.from_columns(
        labels.order, columns(labels.lin), columns(labels.lout))
