"""The directed weighted category-labelled graph (Definition 1)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Set, Tuple

from repro.exceptions import (
    NegativeWeightError,
    UnknownCategoryError,
    UnknownVertexError,
)
from repro.types import CategoryId, Cost, Vertex


class Graph:
    """A directed weighted graph with vertex categories.

    Vertices are dense integers ``0..n-1``.  Edges carry non-negative float
    weights; parallel edges are collapsed to the minimum weight (only the
    cheapest parallel edge can ever participate in a shortest path, and
    Definition 4 distinguishes routes by witness, not by edge multiset).

    Categories are interned strings: :meth:`add_category` returns a dense
    :data:`CategoryId` and vertices may belong to any number of categories
    (``F(v)`` in the paper).

    The reverse adjacency is maintained eagerly because backward searches
    (PLL label construction, backward Dijkstra, CH) need it.
    """

    __slots__ = (
        "_adj_out",
        "_adj_in",
        "_num_edges",
        "_category_names",
        "_category_ids",
        "_vertex_categories",
        "_members",
    )

    def __init__(self, num_vertices: int = 0):
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        self._adj_out: List[Dict[Vertex, Cost]] = [dict() for _ in range(num_vertices)]
        self._adj_in: List[Dict[Vertex, Cost]] = [dict() for _ in range(num_vertices)]
        self._num_edges = 0
        self._category_names: List[str] = []
        self._category_ids: Dict[str, CategoryId] = {}
        self._vertex_categories: List[Set[CategoryId]] = [set() for _ in range(num_vertices)]
        self._members: Dict[CategoryId, Set[Vertex]] = {}

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._adj_out)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def add_vertex(self) -> Vertex:
        """Append a fresh isolated vertex and return its id."""
        self._adj_out.append(dict())
        self._adj_in.append(dict())
        self._vertex_categories.append(set())
        return len(self._adj_out) - 1

    def add_vertices(self, count: int) -> None:
        """Append ``count`` fresh isolated vertices."""
        for _ in range(count):
            self.add_vertex()

    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < len(self._adj_out):
            raise UnknownVertexError(v, len(self._adj_out))

    def vertices(self) -> Iterator[Vertex]:
        return iter(range(len(self._adj_out)))

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex, weight: Cost, undirected: bool = False) -> None:
        """Insert edge ``(u, v)`` with the given weight.

        Parallel edges keep the minimum weight.  With ``undirected=True`` the
        reverse edge is inserted as well (used for CAL/NYC-style road
        networks, which the paper treats as undirected).
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if weight < 0:
            raise NegativeWeightError(u, v, weight)
        existing = self._adj_out[u].get(v)
        if existing is None:
            self._num_edges += 1
            self._adj_out[u][v] = weight
            self._adj_in[v][u] = weight
        elif weight < existing:
            self._adj_out[u][v] = weight
            self._adj_in[v][u] = weight
        if undirected:
            self.add_edge(v, u, weight)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Delete edge ``(u, v)``; raises ``KeyError`` when absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        del self._adj_out[u][v]
        del self._adj_in[v][u]
        self._num_edges -= 1

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj_out[u]

    def edge_weight(self, u: Vertex, v: Vertex) -> Cost:
        """Weight of edge ``(u, v)``; raises ``KeyError`` when absent."""
        self._check_vertex(u)
        return self._adj_out[u][v]

    def neighbors_out(self, v: Vertex) -> Iterable[Tuple[Vertex, Cost]]:
        """Outgoing ``(target, weight)`` pairs of ``v``."""
        self._check_vertex(v)
        return self._adj_out[v].items()

    def neighbors_in(self, v: Vertex) -> Iterable[Tuple[Vertex, Cost]]:
        """Incoming ``(source, weight)`` pairs of ``v``."""
        self._check_vertex(v)
        return self._adj_in[v].items()

    def adjacency(self, incoming: bool = False) -> Sequence[Mapping[Vertex, Cost]]:
        """Every vertex's ``{neighbour: weight}`` row, outgoing or incoming.

        For whole-graph passes (label construction) that would otherwise
        pay :meth:`neighbors_out`'s bounds check per visit.  The rows are
        live; do not mutate.
        """
        return self._adj_in if incoming else self._adj_out

    def is_symmetric(self) -> bool:
        """True when every edge has a reverse edge of equal weight, O(E).

        Rows compare as mappings, so the order edges were inserted in
        does not matter.  An empty graph is symmetric.
        """
        return self._adj_out == self._adj_in

    def out_degree(self, v: Vertex) -> int:
        self._check_vertex(v)
        return len(self._adj_out[v])

    def in_degree(self, v: Vertex) -> int:
        self._check_vertex(v)
        return len(self._adj_in[v])

    def degree(self, v: Vertex) -> int:
        """Total degree (in + out), the default PLL ordering key."""
        return self.out_degree(v) + self.in_degree(v)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, Cost]]:
        """Iterate all ``(u, v, weight)`` triples."""
        for u, targets in enumerate(self._adj_out):
            for v, w in targets.items():
                yield u, v, w

    def reversed(self) -> "Graph":
        """A new graph with every edge direction flipped (categories kept)."""
        rev = Graph(self.num_vertices)
        for u, v, w in self.edges():
            rev.add_edge(v, u, w)
        for name in self._category_names:
            rev.add_category(name)
        for v in self.vertices():
            for cat in self._vertex_categories[v]:
                rev.assign_category(v, cat)
        return rev

    # ------------------------------------------------------------------
    # Categories (the F function of Definition 1)
    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        return len(self._category_names)

    def add_category(self, name: str) -> CategoryId:
        """Intern ``name`` and return its id (idempotent)."""
        cid = self._category_ids.get(name)
        if cid is None:
            cid = len(self._category_names)
            self._category_names.append(name)
            self._category_ids[name] = cid
            self._members[cid] = set()
        return cid

    def category_id(self, name: str) -> CategoryId:
        try:
            return self._category_ids[name]
        except KeyError:
            raise UnknownCategoryError(f"unknown category {name!r}") from None

    def category_name(self, cid: CategoryId) -> str:
        self._check_category(cid)
        return self._category_names[cid]

    def category_names(self) -> Tuple[str, ...]:
        return tuple(self._category_names)

    def _check_category(self, cid: CategoryId) -> None:
        if not 0 <= cid < len(self._category_names):
            raise UnknownCategoryError(f"unknown category id {cid}")

    def assign_category(self, v: Vertex, cid: CategoryId) -> None:
        """Add category ``cid`` to ``F(v)``."""
        self._check_vertex(v)
        self._check_category(cid)
        self._vertex_categories[v].add(cid)
        self._members[cid].add(v)

    def unassign_category(self, v: Vertex, cid: CategoryId) -> None:
        """Remove category ``cid`` from ``F(v)`` (no-op when absent)."""
        self._check_vertex(v)
        self._check_category(cid)
        self._vertex_categories[v].discard(cid)
        self._members[cid].discard(v)

    def categories_of(self, v: Vertex) -> Set[CategoryId]:
        """``F(v)``: the categories of vertex ``v`` (a live set; do not mutate)."""
        self._check_vertex(v)
        return self._vertex_categories[v]

    def members(self, cid: CategoryId) -> Set[Vertex]:
        """``V_Ci``: the member vertices of a category (a live set; do not mutate)."""
        self._check_category(cid)
        return self._members[cid]

    def category_size(self, cid: CategoryId) -> int:
        """``|Ci|`` in the paper."""
        return len(self.members(cid))

    def has_category(self, v: Vertex, cid: CategoryId) -> bool:
        self._check_vertex(v)
        self._check_category(cid)
        return cid in self._vertex_categories[v]

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Deep copy of structure, weights, and categories."""
        g = Graph(self.num_vertices)
        for u, v, w in self.edges():
            g.add_edge(u, v, w)
        for name in self._category_names:
            g.add_category(name)
        for v in self.vertices():
            for cid in self._vertex_categories[v]:
                g.assign_category(v, cid)
        return g

    def set_unit_weights(self) -> None:
        """Set every edge weight to 1 (the paper's unweighted-graph variant)."""
        for u in range(self.num_vertices):
            for v in list(self._adj_out[u]):
                self._adj_out[u][v] = 1.0
                self._adj_in[v][u] = 1.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"categories={self.num_categories})"
        )
