"""FindNN (Algorithm 3): incremental x-th nearest neighbor via inverted labels.

For a source ``v`` and category ``Ci`` the cursor runs a k-way merge over
the inverted lists ``IL(u')`` of every hub ``u' ∈ Lout(v)``:

* ``NL`` — neighbors already produced, nearest first;
* ``NQ`` — a heap of one frontier entry per hub list, keyed by
  ``dis(v, u') + d_{u', m}``;
* ``KV`` — per-hub read positions.

Because every hub list is sorted, the merged stream is globally
non-decreasing in total cost, so the first time a member pops it does so at
its exact 2-hop distance (cover property).  One correctness refinement over
the paper's pseudo-code: a member can sit in ``NQ`` through *two* hubs at
once, so pops must skip members already in ``NL`` (Alg. 3 only skips them
while advancing cursors).

:class:`PackedLabelNNFinder` runs it over the RPLI sections
(:mod:`repro.labeling.packed` / :mod:`repro.labeling.packed_inverted`),
decoding the label and hub runs it is about to scan with one
``tolist()`` each (SK-DB builds one over its attachment of the saved
index file).  The per-entry object version its answers and counters are
tested against lives with the tests (``tests/reference_nn.py``).
"""

from __future__ import annotations

import heapq
from heapq import heappop, heapreplace
from typing import Callable, Dict, List, Optional, Tuple

from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.nn.base import NearestNeighborFinder
from repro.types import CategoryId, Cost, INFINITY, Vertex


class _PackedCursor:
    """Merge state for one ``(source, category)`` pair over packed buffers.

    Each hub stream lives entirely inside its heap entry
    ``(total_cost, member, next position, run end, base distance)``:
    advancing a stream is one ``heapreplace`` with the successor tuple,
    with no side tables to update.
    """

    __slots__ = ("nl", "nq", "idists", "imembers", "found", "exhausted",
                 "gen")

    def __init__(self) -> None:
        self.nl: List[Tuple[Vertex, Cost]] = []
        # heap entries: (total_cost, member, next_pos, run_end, base)
        self.nq: List[Tuple[Cost, Vertex, int, int, Cost]] = []
        self.idists: List[Cost] = []
        self.imembers: List[Vertex] = []
        #: members already produced (grows with |NL|, not with |V| —
        #: per-cursor flag arrays would cost O(V) each)
        self.found: set = set()
        self.exhausted = False
        #: per-cursor advance generator (None once/while exhausted); its
        #: frame keeps all merge-loop bindings alive between advances
        self.gen = None

    def end(self) -> None:
        """Flag exhaustion and release the merge state: from here on
        only ``nl`` is read, and most cursors of a session end here."""
        self.exhausted = True
        self.gen = self.nq = self.found = None


class PackedLabelNNFinder(NearestNeighborFinder):
    """FindNN over the packed label + inverted indexes.

    Same algorithm (and identical answers, order, and executed-NN-query
    counts — asserted by the parity tests) as the tests' per-entry
    reference finder, but every inner-loop step is index arithmetic over
    decoded runs: no entry objects, no per-step hub-list dict lookups, no
    ``(dist, member)`` tuple unpacking.

    Dynamic category updates land in the inverted indexes' delta
    overlays; cursors decode the hub runs they will scan and fold any
    relevant deltas in at creation time (see :meth:`_make_cursor`).
    A finder snapshots index state as of each cursor's creation — apply
    updates between queries (the engine builds a fresh finder per
    query), not while a finder is mid-enumeration.
    """

    def __init__(
        self,
        labels: PackedLabelIndex,
        inverted: Dict[CategoryId, PackedInvertedIndex],
    ):
        super().__init__()
        self._labels = labels
        self._inverted = inverted
        self._distance = labels.distance
        out = labels.lout_side()
        self._out_offsets = out.offsets
        self._out_ranks = out.hub_ranks
        self._out_dists = out.dists
        self._cursors: Dict[Tuple[Vertex, CategoryId], _PackedCursor] = {}

    # ------------------------------------------------------------------
    def find(
        self, source: Vertex, category: CategoryId, x: int
    ) -> Optional[Tuple[Vertex, Cost]]:
        cursor = self._cursors.get((source, category))
        if cursor is None:
            cursor = self._make_cursor(source, category)
        # NL hit: free (not counted as an executed NN query).
        nl = cursor.nl
        if len(nl) < x and not cursor.exhausted:
            # One count per produced neighbor plus one for the advance
            # that discovers exhaustion (it raises StopIteration after
            # flagging the cursor), matching the reference finder's
            # accounting.
            attempts = 0
            advance = cursor.gen.__next__
            try:
                while len(nl) < x:
                    attempts += 1
                    advance()
            except StopIteration:
                pass
            self.queries += attempts
        if x <= len(nl):
            return nl[x - 1]
        return None

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        return self._distance(s, t)

    def make_dest_distance(self, target: Vertex) -> Callable[[Vertex], Cost]:
        """A ``dis(·, target)`` specialisation for one fixed target.

        ``Lin(target)`` is turned into a hub-rank -> distance dict once;
        each call then scans ``Lout(v)`` with dict probes instead of
        running the two-sided merge join.  The minimum ranges over exactly
        the same hub set with the same additions, so results are
        bit-identical to :meth:`distance`.
        """
        ins = self._labels.lin_side()
        lo, hi = ins.offsets[target], ins.offsets[target + 1]
        target_dists = dict(zip(ins.hub_ranks[lo:hi].tolist(),
                                ins.dists[lo:hi].tolist()))
        offsets, ranks, dists = (self._out_offsets, self._out_ranks,
                                 self._out_dists)
        dist_get = target_dists.get
        inf = INFINITY

        def dest_distance(v: Vertex) -> Cost:
            if v == target:
                return 0.0
            lo, hi = offsets[v], offsets[v + 1]
            best = inf
            # One C-level decode of the probe's label run, then map()
            # runs the dict probe in C; only hub hits reach the body.
            for d, dd in zip(dists[lo:hi].tolist(),
                             map(dist_get, ranks[lo:hi].tolist())):
                if dd is not None:
                    total = d + dd
                    if total < best:
                        best = total
            return best

        return dest_distance

    def make_estimated(self, estimate: Callable[[Vertex], Cost],
                       cache: Optional[Dict[Vertex, Cost]] = None,
                       target: Optional[Vertex] = None):
        """FindNEN fused onto the packed cursors (see Algorithm 4): a
        per-query record over fresh :class:`~repro.nn.estimated.EstStream` s."""
        from repro.nn.estimated import EstStream, PackedEstimatedNNFinder

        cursor_for = self.cursor_for
        cache_get = cache.get if cache is not None else None
        return PackedEstimatedNNFinder(
            self, lambda source, category: EstStream(
                cursor_for(source, category), estimate, cache_get))

    # ------------------------------------------------------------------
    def cursor_for(self, source: Vertex, category: CategoryId) -> _PackedCursor:
        """Get-or-create the merge cursor of one ``(source, category)``."""
        cursor = self._cursors.get((source, category))
        if cursor is None:
            cursor = self._make_cursor(source, category)
        return cursor

    def _make_cursor(self, source: Vertex, category: CategoryId) -> _PackedCursor:
        """Algorithm 3 lines 6-10: seed NQ with each hub run's head.

        The hub runs this cursor is about to scan are settled first
        (``patch_ranks``: decoded on first touch, any delta-overlay
        updates merged in, slices repointed), so the merge loop itself
        only ever sees plain decoded runs.  With everything decoded and
        an empty overlay — the steady serving case — that costs a few
        attribute reads per cursor creation and nothing per advance.
        """
        cursor = _PackedCursor()
        self._cursors[(source, category)] = cursor
        pinv = self._inverted.get(category)
        if pinv is not None:
            # Decoded Lout(source), not kept: a search almost never opens
            # a second category's cursor over the same source, and a
            # retained copy per source is what a warm session's memory
            # would mostly consist of.
            lo, hi = self._out_offsets[source], self._out_offsets[source + 1]
            ranks = self._out_ranks[lo:hi].tolist()
            base_dists = self._out_dists[lo:hi].tolist()
            pinv.patch_ranks(ranks)
            idists = cursor.idists = pinv.dists
            imembers = cursor.imembers = pinv.members
            nq = cursor.nq
            # map() pushes the per-hub dict probe into C; most Lout hubs
            # have no members in the category, so the Python-level body
            # below only runs for actual matches.
            for base, sl in zip(base_dists, map(pinv.rank_slices.get, ranks)):
                if sl is None:
                    continue
                lo, hi = sl
                nq.append((base + idists[lo], imembers[lo], lo + 1, hi, base))
            # Heap-order ties only reorder pops of entries with equal
            # (total, member) — interchangeable for NL and stream state —
            # so heapify instead of pushes changes nothing observable.
            heapq.heapify(nq)
        if cursor.nq:
            cursor.gen = self._stream(cursor)
        else:
            cursor.end()
        return cursor

    @staticmethod
    def _stream(cursor: _PackedCursor):
        """Generator producing one NL entry per resume (lines 11-18).

        A generator rather than a method so the merge-loop bindings live
        in one long-lived frame instead of being re-established on every
        advance; on exhaustion it flags the cursor and finishes.

        ``heapreplace`` (one sift) stands in for the pop-push pair where
        the popped stream has a successor: heap *contents* end up the
        same either way, and entries with equal keys are interchangeable,
        so the produced NL sequence is too.
        """
        nl_append = cursor.nl.append
        nq = cursor.nq
        found = cursor.found
        found_add = found.add
        idists, imembers = cursor.idists, cursor.imembers
        while nq:
            total, member, pos, end, base = nq[0]
            # Advance this stream, skipping already-found members (the
            # do-while of Algorithm 3).
            while pos < end and imembers[pos] in found:
                pos += 1
            if pos < end:
                heapreplace(
                    nq, (base + idists[pos], imembers[pos], pos + 1, end, base)
                )
            else:
                heappop(nq)
            if member in found:
                continue  # stale duplicate through another hub
            found_add(member)
            nl_append((member, total))
            yield
        cursor.end()
