"""Per-vertex dominance tables (Definition 6 / Algorithm 2 lines 8-19).

For each vertex the paper keeps two hash tables keyed by witness *size*:

* ``HT≺`` — the dominating witness currently extended at this vertex;
* ``HT≻`` — a priority queue of dominated witnesses of that size, parked
  until their dominator completes into a result.

:class:`DominanceTables` owns both maps for a whole query.  Entries are
opaque tuples supplied by the search loop; their first component must be
the queue key so parked heaps pop cheapest-first consistently with the
global queue (real cost for PruningKOSR, estimated cost for StarKOSR).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.types import Vertex

#: (key, tiebreak, vertices, cost, x, prefix_cost) — see repro.core.search.
Entry = Tuple[Any, ...]


class DominanceTables:
    """HT≺ and HT≻ for every vertex touched by one query.

    Both maps are flat dicts keyed by ``(vertex, size)`` — the nested
    dict-of-dict layout costs an extra lookup plus a discarded ``{}``
    allocation per ``setdefault`` probe on the search hot path.
    """

    def __init__(self) -> None:
        self._dominators: Dict[Tuple[Vertex, int], Tuple[Vertex, ...]] = {}
        self._parked: Dict[Tuple[Vertex, int], List[Entry]] = {}

    # ------------------------------------------------------------------
    def try_register(self, vertex: Vertex, size: int,
                     witness: Tuple[Vertex, ...]) -> bool:
        """Attempt to make ``witness`` the dominator at ``(vertex, size)``.

        Returns True when it became the dominator (caller extends it) and
        False when another witness already dominates (caller must
        :meth:`park` it).
        """
        key = (vertex, size)
        if key in self._dominators:
            return False
        self._dominators[key] = witness
        return True

    def dominator(self, vertex: Vertex, size: int) -> Optional[Tuple[Vertex, ...]]:
        """The current HT≺ entry, if any."""
        return self._dominators.get((vertex, size))

    def park(self, vertex: Vertex, size: int, entry: Entry) -> None:
        """Store a dominated witness in HT≻ (cheapest-first)."""
        key = (vertex, size)
        heap = self._parked.get(key)
        if heap is None:
            heap = self._parked[key] = []
        heapq.heappush(heap, entry)

    def parked_count(self, vertex: Vertex, size: int) -> int:
        return len(self._parked.get((vertex, size), ()))

    # ------------------------------------------------------------------
    def release_for_result(self, complete: Tuple[Vertex, ...]) -> List[Entry]:
        """Algorithm 2 lines 8-12, applied after a result completes.

        For each intermediate vertex ``v_i`` whose dominating entry equals
        the completed witness's prefix: pop the cheapest parked witness (it
        dominates its heap siblings) for reinsertion, and clear the
        dominator so the next arrival takes over.  Returns the entries to
        re-add to the global queue (their ``x`` must be reset to the
        paper's '-' marker by the caller).
        """
        released: List[Entry] = []
        dominators = self._dominators
        for i in range(1, len(complete) - 1):
            key = (complete[i], i + 1)
            if dominators.get(key) != complete[: i + 1]:
                continue
            heap = self._parked.get(key)
            if heap:
                released.append(heapq.heappop(heap))
            del dominators[key]
        return released
