"""FindNN (Algorithm 3) over per-entry objects: the tests' reference.

The paper's pseudo-code taken literally — ``NL`` / ``NQ`` / ``KV`` per
``(source, category)`` cursor, one :class:`LabelEntry` per label entry,
hub lists looked up per step — kept as the implementation the product's
``PackedLabelNNFinder`` answers and counters are compared against
(``conftest.reference_engine``).  One correctness refinement over the
pseudo-code: a member can sit in ``NQ`` through *two* hubs at once, so
pops must skip members already in ``NL``.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.nn.base import NearestNeighborFinder
from repro.types import CategoryId, Cost, Vertex

from reference_labels import LabelEntry, lout


class _Cursor:
    """Merge state for one ``(source, category)`` pair."""

    __slots__ = ("nl", "nq", "kv", "base", "found_set", "exhausted")

    def __init__(self) -> None:
        self.nl: List[Tuple[Vertex, Cost]] = []
        # heap entries: (total_cost, member, hub)
        self.nq: List[Tuple[Cost, Vertex, Vertex]] = []
        self.kv: Dict[Vertex, int] = {}
        self.base: Dict[Vertex, Cost] = {}
        self.found_set = set()
        self.exhausted = False


class LabelNNFinder(NearestNeighborFinder):
    """The paper's FindNN over a label index + per-category inverted indexes.

    ``hub_list(category, hub)`` and ``lout(v)`` are injected as callables;
    :meth:`from_index` wires them to a label + inverted index pair (the
    reference engine's object indexes, or a packed engine's).
    """

    def __init__(
        self,
        lout: Callable[[Vertex], List[LabelEntry]],
        hub_vertex: Callable[[int], Vertex],
        hub_list: Callable[[CategoryId, Vertex], List[Tuple[Cost, Vertex]]],
        distance_func: Callable[[Vertex, Vertex], Cost],
    ):
        super().__init__()
        self._lout = lout
        self._hub_vertex = hub_vertex
        self._hub_list = hub_list
        self._distance = distance_func
        self._cursors: Dict[Tuple[Vertex, CategoryId], _Cursor] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, labels, inverted) -> "LabelNNFinder":
        """Construct over a label index (object or packed) and
        per-category inverted indexes answering ``hub_list(hub)``."""

        def hub_list(cid: CategoryId, hub: Vertex) -> List[Tuple[Cost, Vertex]]:
            il = inverted.get(cid)
            return il.hub_list(hub) if il is not None else []

        return cls(partial(lout, labels), labels.hub_vertex, hub_list,
                   labels.distance)

    # ------------------------------------------------------------------
    def find(
        self, source: Vertex, category: CategoryId, x: int
    ) -> Optional[Tuple[Vertex, Cost]]:
        cursor = self._cursors.get((source, category))
        if cursor is None:
            cursor = _Cursor()
            self._cursors[(source, category)] = cursor
            self._init_cursor(cursor, source, category)
        # NL hit: free (not counted as an executed NN query).
        while len(cursor.nl) < x and not cursor.exhausted:
            self.queries += 1
            self._advance(cursor, category)
        if x <= len(cursor.nl):
            return cursor.nl[x - 1]
        return None

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        return self._distance(s, t)

    # ------------------------------------------------------------------
    def _init_cursor(self, cursor: _Cursor, source: Vertex, category: CategoryId) -> None:
        """Lines 6-10 of Algorithm 3: seed NQ with each hub list's head."""
        for entry in self._lout(source):
            hub = self._hub_vertex(entry.hub_rank)
            lst = self._hub_list(category, hub)
            if lst:
                d, member = lst[0]
                cursor.base[hub] = entry.dist
                cursor.kv[hub] = 1
                heapq.heappush(cursor.nq, (entry.dist + d, member, hub))
        if not cursor.nq:
            cursor.exhausted = True

    def _advance(self, cursor: _Cursor, category: CategoryId) -> None:
        """Produce the next nearest neighbor into ``NL`` (lines 11-18)."""
        while cursor.nq:
            total, member, hub = heapq.heappop(cursor.nq)
            self._push_next_from_hub(cursor, category, hub)
            if member in cursor.found_set:
                continue  # stale duplicate through another hub
            cursor.found_set.add(member)
            cursor.nl.append((member, total))
            return
        cursor.exhausted = True

    def _push_next_from_hub(self, cursor: _Cursor, category: CategoryId, hub: Vertex) -> None:
        """Advance KV[hub], skipping members already found (the do-while)."""
        lst = self._hub_list(category, hub)
        pos = cursor.kv[hub]
        while pos < len(lst) and lst[pos][1] in cursor.found_set:
            pos += 1
        if pos < len(lst):
            d, member = lst[pos]
            heapq.heappush(cursor.nq, (cursor.base[hub] + d, member, hub))
            cursor.kv[hub] = pos + 1
        else:
            cursor.kv[hub] = len(lst)
