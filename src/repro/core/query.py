"""KOSR query objects (Definition 5) and validation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.exceptions import EmptyCategoryError, QueryError
from repro.graph.graph import Graph
from repro.types import CategoryId, Vertex


@dataclass(frozen=True)
class KOSRQuery:
    """A top-k optimal sequenced route query ``(s, t, C, k)``.

    ``categories`` holds the category ids of ``C = ⟨C1, ..., Cj⟩`` in visit
    order.  The two dummy categories ``C0 = {s}`` and ``C_{j+1} = {t}`` of
    the paper are implicit: algorithms treat *level* ``0`` as the source and
    level ``j + 1`` as the destination.
    """

    source: Vertex
    target: Vertex
    categories: Tuple[CategoryId, ...]
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        if not self.categories:
            raise QueryError("category sequence must contain at least one category")

    @property
    def num_levels(self) -> int:
        """Number of extension levels: ``|C|`` categories plus the destination."""
        return len(self.categories) + 1

    @property
    def complete_size(self) -> int:
        """Vertex count of a complete witness: ``s`` + ``|C|`` + ``t``."""
        return len(self.categories) + 2

    def validate(self, graph: Graph) -> None:
        """Check the query against a graph; raises :class:`QueryError`."""
        n = graph.num_vertices
        if not 0 <= self.source < n:
            raise QueryError(f"source {self.source} not in graph")
        if not 0 <= self.target < n:
            raise QueryError(f"target {self.target} not in graph")
        for cid in self.categories:
            if not 0 <= cid < graph.num_categories:
                raise QueryError(f"unknown category id {cid}")
            if graph.category_size(cid) == 0:
                raise EmptyCategoryError(
                    f"category {graph.category_name(cid)!r} has no members"
                )


def category_ref(token: Union[str, CategoryId]) -> Union[str, CategoryId]:
    """A category reference as typed on a command line or in a JSON record.

    A string of ASCII decimal digits is a category id; any other string
    is a category name, so ``'²'`` or ``'٣'`` (``str.isdigit()`` holds
    for both) fails as an unknown name instead of reaching ``int()``.
    A non-string (an id already) passes through.
    """
    if isinstance(token, str) and token.isascii() and token.isdigit():
        return int(token)
    return token


def make_query(
    graph: Graph,
    source: Vertex,
    target: Vertex,
    categories: Sequence[Union[str, CategoryId]],
    k: int = 1,
) -> KOSRQuery:
    """Build and validate a query, accepting category names or ids."""
    cids: List[CategoryId] = []
    for c in categories:
        cids.append(graph.category_id(c) if isinstance(c, str) else int(c))
    query = KOSRQuery(source, target, tuple(cids), k)
    query.validate(graph)
    return query
