"""KOSR query variants (Sec. IV-C).

The paper sketches four variants; all are supported:

* **unweighted graphs** — set all weights to 1
  (:meth:`repro.graph.Graph.set_unit_weights`);
* **no source** — every member of the first category is a valid start;
* **no destination** — the route may end right after the last category;
* **personal preferences** — only category members passing a predicate
  count (e.g. only Italian restaurants in category ``RE``).

The no-source/no-destination variants are realised by *virtual terminal
augmentation*: a fresh vertex wired with zero-weight edges to (from) the
first (last) category's members turns the variant into a plain KOSR query
on the augmented graph.  A pleasant consequence the paper does not exploit:
the augmented destination restores a valid admissible heuristic, so
StarKOSR works for the no-destination case too (the paper falls back to
PruningKOSR there).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api import QueryOptions
from repro.core.engine import KOSREngine, KOSRResult
from repro.nn.base import NearestNeighborFinder
from repro.service.execution import execute_plan
from repro.service.planner import METHOD_TABLE
from repro.types import CategoryId, Cost, SequencedResult, Vertex, Witness


def _augmented_engine(
    graph, extra_edges: List[Tuple[Vertex, Vertex, Cost]]
) -> Tuple[KOSREngine, Vertex]:
    """Copy ``graph``, add one virtual vertex plus ``extra_edges``, rebuild."""
    aug = graph.copy()
    virtual = aug.add_vertex()
    for u, v, w in extra_edges:
        aug.add_edge(u if u >= 0 else virtual, v if v >= 0 else virtual, w)
    return KOSREngine.build(aug), virtual


def _strip(results: List[SequencedResult], drop_first: bool, drop_last: bool):
    stripped = []
    for item in results:
        vertices = item.witness.vertices
        if drop_first:
            vertices = vertices[1:]
        if drop_last:
            vertices = vertices[:-1]
        stripped.append(SequencedResult(Witness(vertices, item.witness.cost)))
    return stripped


def kosr_without_source(
    graph,
    target: Vertex,
    categories: Sequence[Union[str, CategoryId]],
    k: int = 1,
    method: str = "SK",
) -> List[SequencedResult]:
    """Top-k sequenced routes that may start at *any* member of ``C1``.

    Witnesses omit the virtual start: they run ``⟨v1, ..., vj, t⟩``.
    Rebuilds labels on the augmented graph — intended for moderate graphs
    (the paper's formulation seeds the priority queue instead; results are
    identical, asserted in tests).
    """
    cids = [graph.category_id(c) if isinstance(c, str) else int(c) for c in categories]
    first_members = sorted(graph.members(cids[0]))
    edges = [(-1, m, 0.0) for m in first_members]
    engine, virtual = _augmented_engine(graph, edges)
    result = engine.query(virtual, target, cids, k=k, method=method)
    return _strip(result.results, drop_first=True, drop_last=False)


def kosr_without_destination(
    graph,
    source: Vertex,
    categories: Sequence[Union[str, CategoryId]],
    k: int = 1,
    method: str = "PK",
) -> List[SequencedResult]:
    """Top-k sequenced routes ending anywhere after the last category.

    ``method`` defaults to PK (the paper's recommendation when no
    destination exists); "SK" also works here thanks to the virtual
    destination's admissible heuristic.
    """
    cids = [graph.category_id(c) if isinstance(c, str) else int(c) for c in categories]
    last_members = sorted(graph.members(cids[-1]))
    edges = [(m, -1, 0.0) for m in last_members]
    engine, virtual = _augmented_engine(graph, edges)
    result = engine.query(source, virtual, cids, k=k, method=method)
    return _strip(result.results, drop_first=False, drop_last=True)


class PreferenceNNFinder(NearestNeighborFinder):
    """Filters category members through per-category predicates.

    Implements the paper's "x-th nearest *Italian* restaurant" extension:
    the constraint is applied where Algorithm 3 appends to ``NL`` (line 15),
    i.e. by consuming the underlying enumeration and keeping matches.
    """

    def __init__(
        self,
        base: NearestNeighborFinder,
        predicates: Dict[CategoryId, Callable[[Vertex], bool]],
    ):
        super().__init__()
        self._base = base
        self._predicates = predicates
        self._filtered: Dict[Tuple[Vertex, CategoryId], list] = {}
        self._next_x: Dict[Tuple[Vertex, CategoryId], int] = {}

    def find(self, source: Vertex, category: CategoryId, x: int):
        predicate = self._predicates.get(category)
        if predicate is None:
            result = self._base.find(source, category, x)
            self.queries = self._base.queries
            return result
        key = (source, category)
        kept = self._filtered.setdefault(key, [])
        next_x = self._next_x.get(key, 1)
        while len(kept) < x:
            candidate = self._base.find(source, category, next_x)
            next_x += 1
            if candidate is None:
                self._next_x[key] = next_x
                self.queries = self._base.queries
                return None
            if predicate(candidate[0]):
                kept.append(candidate)
        self._next_x[key] = next_x
        self.queries = self._base.queries
        return kept[x - 1]

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        return self._base.distance(s, t)


class _PreferenceResources:
    """Cold resources whose finder keeps only the preferred members."""

    def __init__(self, engine, predicates):
        self.engine = engine
        self.predicates = predicates

    def finder(self, nn_backend: str) -> NearestNeighborFinder:
        return PreferenceNNFinder(self.engine.finder(nn_backend),
                                  self.predicates)


def kosr_with_preferences(
    engine: KOSREngine,
    source: Vertex,
    target: Vertex,
    categories: Sequence[Union[str, CategoryId]],
    predicates: Dict[Union[str, CategoryId], Callable[[Vertex], bool]],
    k: int = 1,
    method: str = "SK",
    budget: Optional[int] = None,
) -> KOSRResult:
    """KOSR restricted to category members satisfying per-category predicates.

    ``method`` is any row of the method table that searches over the
    in-memory NN oracle (KPNE, PK, SK, SK-NODOM).
    """
    spec = METHOD_TABLE.get(method)
    if spec is None or not spec.needs_finder or spec.index_file:
        raise ValueError(f"unsupported method {method!r} for preference queries")
    q = engine.make_query(source, target, categories, k)
    cid_predicates = {
        (engine.graph.category_id(c) if isinstance(c, str) else int(c)): fn
        for c, fn in predicates.items()
    }
    return execute_plan(engine, q, QueryOptions(method=method, budget=budget),
                        resources=_PreferenceResources(engine, cid_predicates))
