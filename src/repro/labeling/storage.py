"""Disk-resident label storage (the paper's SK-DB variant, Sec. IV-C).

"In the case that the label index cannot fit into memory, we store the
indexes into disk according to categories": each category shard holds
``IL(Ci)`` plus ``Lout(v)`` and ``Lin(v)`` for every member ``v``; a query
then performs ``|C| + 4`` seeks — one per queried category, plus the
source/destination label lookups.

We reproduce that layout with one pickle file per category plus a vertex
shard directory for per-vertex source/destination labels, and count seeks
so the SK-DB overhead is measurable in the benchmarks.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.exceptions import IndexStorageError
from repro.graph.graph import Graph
from repro.labeling.inverted import InvertedLabelIndex
from repro.labeling.labels import LabelEntry, LabelIndex
from repro.types import CategoryId, Cost, Vertex

PathLike = Union[str, Path]


class CategoryShardStore:
    """Writes and reads per-category index shards under a directory."""

    VERSION = 1

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_all(
        self,
        graph: Graph,
        labels: LabelIndex,
        inverted: Dict[CategoryId, InvertedLabelIndex],
    ) -> None:
        """Serialise every category shard plus the global vertex-label file.

        ``labels``/``inverted`` may be the packed indexes or the
        reference object ones: both label indexes expose
        ``lin``/``lout``/``order`` and both inverted indexes expose
        ``as_lists()``.
        """
        for cid, il in inverted.items():
            self.write_category(graph, labels, cid, il)
        # Per-vertex labels for arbitrary sources/destinations (the paper
        # locates these through a B+ tree; a single indexed file plays that
        # role here).
        vertex_payload = {
            "version": self.VERSION,
            # list(): the packed labels' order is a typed memoryview
            "order": list(labels.order),
            "lin": [self._pack(labels.lin(v)) for v in range(labels.num_vertices)],
            "lout": [self._pack(labels.lout(v)) for v in range(labels.num_vertices)],
        }
        with open(self.root / "vertices.pkl", "wb") as f:
            pickle.dump(vertex_payload, f, protocol=pickle.HIGHEST_PROTOCOL)

    def write_category(
        self,
        graph: Graph,
        labels: LabelIndex,
        cid: CategoryId,
        il: InvertedLabelIndex,
    ) -> None:
        members = sorted(graph.members(cid))
        payload = {
            "version": self.VERSION,
            "category": cid,
            "members": members,
            "il": {hub: list(entries) for hub, entries in il.as_lists().items()},
            "lout": {v: self._pack(labels.lout(v)) for v in members},
            "lin": {v: self._pack(labels.lin(v)) for v in members},
        }
        with open(self.root / f"category_{cid}.pkl", "wb") as f:
            pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _pack(entries: List[LabelEntry]) -> List[Tuple[int, Cost, Optional[Vertex]]]:
        return [(e.hub_rank, e.dist, e.parent) for e in entries]

    @staticmethod
    def _unpack(rows: List[Tuple[int, Cost, Optional[Vertex]]]) -> List[LabelEntry]:
        return [LabelEntry(r, d, p) for r, d, p in rows]

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read_category(self, cid: CategoryId) -> Dict:
        path = self.root / f"category_{cid}.pkl"
        if not path.exists():
            raise IndexStorageError(f"missing category shard {path}")
        with open(path, "rb") as f:
            payload = pickle.load(f)
        if payload.get("version") != self.VERSION:
            raise IndexStorageError(f"shard version mismatch in {path}")
        return payload

    def read_vertices(self) -> Dict:
        path = self.root / "vertices.pkl"
        if not path.exists():
            raise IndexStorageError(f"missing vertex label file {path}")
        with open(path, "rb") as f:
            payload = pickle.load(f)
        if payload.get("version") != self.VERSION:
            raise IndexStorageError(f"shard version mismatch in {path}")
        return payload

    def total_bytes(self) -> int:
        """On-disk footprint of the store (Table IX index-size analogue)."""
        return sum(p.stat().st_size for p in self.root.glob("*.pkl"))


class DiskLabelRepository:
    """Query-time loader that mimics SK-DB's per-query disk access pattern.

    :meth:`load_for_query` performs one "seek" per queried category plus the
    source/destination label loads, materialising exactly the label subset
    StarKOSR needs: ``Lout`` of every category member (and the source),
    ``Lin`` of the destination, and the inverted lists of every category.
    """

    def __init__(self, store: CategoryShardStore):
        self._store = store
        self.seeks = 0
        self._vertex_cache: Optional[Dict] = None

    def load_for_query(
        self, categories: Iterable[CategoryId], source: Vertex, target: Vertex
    ) -> "QueryLabelView":
        categories = list(categories)
        lout: Dict[Vertex, List[LabelEntry]] = {}
        lin: Dict[Vertex, List[LabelEntry]] = {}
        il: Dict[CategoryId, Dict[Vertex, List[Tuple[Cost, Vertex]]]] = {}
        order: List[Vertex] = []
        for cid in categories:
            payload = self._store.read_category(cid)
            self.seeks += 1
            il[cid] = payload["il"]
            for v, rows in payload["lout"].items():
                lout[v] = CategoryShardStore._unpack(rows)
            for v, rows in payload["lin"].items():
                lin[v] = CategoryShardStore._unpack(rows)
        # The paper budgets 4 extra seeks: locate s and t (2 B+ tree
        # descents) and load Lout(s), Lin(t).
        vertices = self._store.read_vertices()
        order = vertices["order"]
        self.seeks += 4
        lout[source] = CategoryShardStore._unpack(vertices["lout"][source])
        lin[target] = CategoryShardStore._unpack(vertices["lin"][target])
        return QueryLabelView(order, lout, lin, il)


class QueryLabelView:
    """The per-query label subset loaded by :class:`DiskLabelRepository`.

    Provides the same query surface the in-memory :class:`LabelIndex` offers,
    restricted to the loaded vertices.
    """

    def __init__(
        self,
        order: List[Vertex],
        lout: Dict[Vertex, List[LabelEntry]],
        lin: Dict[Vertex, List[LabelEntry]],
        il: Dict[CategoryId, Dict[Vertex, List[Tuple[Cost, Vertex]]]],
    ):
        self._order = order
        self._lout = lout
        self._lin = lin
        self._il = il

    def hub_vertex(self, hub_rank: int) -> Vertex:
        return self._order[hub_rank]

    def lout(self, v: Vertex) -> List[LabelEntry]:
        entries = self._lout.get(v)
        if entries is None:
            raise IndexStorageError(f"Lout({v}) was not loaded for this query")
        return entries

    def lin(self, v: Vertex) -> List[LabelEntry]:
        entries = self._lin.get(v)
        if entries is None:
            raise IndexStorageError(f"Lin({v}) was not loaded for this query")
        return entries

    def hub_list(self, cid: CategoryId, hub: Vertex) -> List[Tuple[Cost, Vertex]]:
        return self._il.get(cid, {}).get(hub, [])

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        """Merge-join distance between two *loaded* vertices."""
        if s == t:
            return 0.0
        from repro.labeling.labels import LabelIndex as _LI

        best, _ = _LI._merge_join(self.lout(s), self.lin(t))
        return best
