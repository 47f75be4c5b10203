"""FindNN (Algorithm 3): incremental x-th nearest neighbor via inverted labels.

For a source ``v`` and category ``Ci`` the cursor runs a k-way merge over
the inverted lists ``IL(u')`` of every hub ``u' ∈ Lout(v)``:

* ``NL`` — neighbors already produced, nearest first, held as one
  buffer of ``(member int64, cost float64)`` pairs (``struct "qd"``,
  16 bytes each): a ``bytearray`` while the cursor can still grow, an
  exact-size ``bytes`` once it has ended.  Neither is a container the
  garbage collector tracks, which matters because a serving session
  keeps every cursor's ``NL`` for its whole lifetime and a full
  collection would otherwise visit each of them;
* ``NQ`` — a heap of one frontier entry per hub list, keyed by
  ``dis(v, u') + d_{u', m}``;
* ``KV`` — per-hub read positions.

Because every hub list is sorted, the merged stream is globally
non-decreasing in total cost, so the first time a member pops it does so at
its exact 2-hop distance (cover property).  Two refinements over the
paper's pseudo-code:

* correctness: a member can sit in ``NQ`` through *two* hubs at once, so
  pops must skip members already in ``NL`` (Alg. 3 only skips them while
  advancing cursors);
* speed: Alg. 3 learns that a category is exhausted only once every hub
  run is empty, and with a handful of members most of that drain pops
  duplicates of members already found.  A cursor knows its category's
  member count (:attr:`PackedInvertedIndex.member_count`) and empties
  ``NQ`` as soon as ``NL`` holds every member; the next advance then ends
  exactly as a drained one does (see :meth:`PackedLabelNNFinder._stream`).

The merge runs in a generator, and no generator frame holds its owner:
``_stream`` gets the cursor's ``NL`` buffer, and the reader that catches
its ``StopIteration`` ends the cursor.  So the cursors of a cold query
are freed with its finder, not by the garbage collector.

``NL`` is the members the source reaches in ascending (2-hop distance,
member id) order — a function of the index state alone — so ``NQ`` and
``KV`` can be rebuilt from it at any time: seeding each hub run at its
first member not yet in ``NL`` continues the same sequence.  A serving
session uses that to keep only ``NL`` between queries
(:meth:`PackedLabelNNFinder.suspend`); a fresh cursor is seeded the same
way, from an empty ``NL``.

:class:`PackedLabelNNFinder` runs it over the RPLI sections
(:mod:`repro.labeling.packed` / :mod:`repro.labeling.packed_inverted`):
it decodes the ``Lout`` run of a source it seeds with one ``tolist()``,
and reads the hub runs it merges in place, by position, from the
category's section views (SK-DB builds one over its attachment of the
saved index file).  The per-entry object version its answers and
counters are tested against lives with the tests
(``tests/reference_nn.py``).
"""

from __future__ import annotations

import heapq
from heapq import heappop, heapreplace
from struct import Struct
from typing import Callable, Dict, Generator, List, Optional, Tuple, Union

from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.nn.base import NearestNeighborFinder
from repro.types import CategoryId, Cost, INFINITY, Vertex


#: one ``NL`` entry, ``(member, cost)``: 16 bytes, so entry ``x`` (from
#: 1) ends at byte ``x << _SHIFT``
_ENTRY = Struct("qd")
_SHIFT = 4
_unpack_from = _ENTRY.unpack_from
#: a cursor's ``NL``: ``bytearray`` while it can grow, ``bytes`` once ended
NL = Union[bytearray, bytes]


class PackedLabelNNFinder(NearestNeighborFinder):
    """FindNN over the packed label + inverted indexes.

    Same algorithm (and identical answers, order, and executed-NN-query
    counts — asserted by the parity tests) as the tests' per-entry
    reference finder, but every inner-loop step is index arithmetic over
    the category's run sequences: no entry objects, no per-step hub-list
    dict lookups, no ``(dist, member)`` tuple unpacking.

    Dynamic category updates edit the inverted indexes' hub runs as they
    arrive; a cursor reads its category's runs once, when it is seeded
    (see :meth:`_seed`), and a live merge reads those runs as they were
    then.  Apply updates between queries (the engine builds a fresh
    finder per query, and a session drops the cursors of a category
    whose version moved), not while a finder is mid-enumeration.

    A cursor is its ``NL`` buffer, ``_cursors[(source, category)]``: a
    ``bytearray`` while it can grow, ``bytes`` once it has ended
    (``type(nl) is bytes`` is the exhaustion flag; a cursor born empty
    is ``b""``).  The merge that grows a live cursor is a generator in
    ``_live`` under the same key, and nowhere else.  :meth:`suspend`
    empties ``_live``; a later advance re-seeds the cursor from its
    ``NL``.  A serving session calls it between queries; cold and
    hand-driven finders never do.
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
        self._cursors: Dict[Tuple[Vertex, CategoryId], NL] = {}
        #: the merge generator of every cursor seeded since the last
        #: :meth:`suspend` and not ended, so a suspension costs what the
        #: last query touched, not the cursor population
        self._live: Dict[Tuple[Vertex, CategoryId], Generator] = {}

    # ------------------------------------------------------------------
    def find(
        self, source: Vertex, category: CategoryId, x: int
    ) -> Optional[Tuple[Vertex, Cost]]:
        key = (source, category)
        nl = self._cursors.get(key)
        if nl is None:
            nl = self._make_cursor(key)
        # NL hit: free (not counted as an executed NN query).
        need = x << _SHIFT
        if len(nl) < need and type(nl) is not bytes:
            # One count per produced neighbor plus one for the advance
            # that discovers exhaustion (it raises StopIteration), matching
            # the reference finder's accounting.
            # No live merge: the cursor is suspended, so re-seed it.
            advance = (self._live.get(key) or self._seed(key, nl)).__next__
            attempts = 0
            try:
                while len(nl) < need:
                    attempts += 1
                    advance()
            except StopIteration:
                nl = self._end(key, nl)
            self.queries += attempts
        if need <= len(nl):
            return _unpack_from(nl, (x - 1) << _SHIFT)
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

        cache_get = cache.get if cache is not None else None
        return PackedEstimatedNNFinder(
            self, lambda source, category: EstStream(
                self, source, category, estimate, cache_get))

    # ------------------------------------------------------------------
    def cursor_for(self, source: Vertex, category: CategoryId) -> NL:
        """Get-or-create the ``NL`` buffer of one ``(source, category)``."""
        key = (source, category)
        nl = self._cursors.get(key)
        if nl is None:
            nl = self._make_cursor(key)
        return nl

    def _make_cursor(self, key: Tuple[Vertex, CategoryId]) -> NL:
        """A new cursor: seeded from an empty ``NL``, or ended at no cost
        (``b""``) when no hub run of ``Lout(source)`` holds a member
        (born empty)."""
        nl = bytearray()
        if self._seed(key, nl) is None:
            nl = b""
        self._cursors[key] = nl
        return nl

    def _end(self, key: Tuple[Vertex, CategoryId], nl: bytearray) -> bytes:
        """End the cursor whose merge just raised ``StopIteration``: its
        ``NL`` becomes an exact-size ``bytes`` and its merge state goes.
        Most cursors of a session end here."""
        ended = self._cursors[key] = bytes(nl)
        del self._live[key]
        return ended

    def drop(self, key: Tuple[Vertex, CategoryId]) -> None:
        """Forget one cursor, ``NL`` and live merge alike (a session's
        invalidation and eviction), so a later request re-creates it over
        the index as it is then."""
        del self._cursors[key]
        self._live.pop(key, None)

    def suspend(self) -> None:
        """Drop the merge state of every cursor seeded since the last
        call; each keeps its ``NL``, ended or not.

        The next advance of a suspended cursor re-seeds it (see
        :meth:`_seed`) and continues the same ``NL`` sequence, so no
        answer and no booked attempt can move — provided the index state
        it was seeded over is unchanged, which a session guarantees by
        dropping a category's cursors when its version moves.
        """
        self._live.clear()

    def _seed(self, key: Tuple[Vertex, CategoryId],
              nl: bytearray) -> Optional[Generator]:
        """Algorithm 3 lines 6-10: seed NQ with each hub run's head, for a
        new cursor and a suspended one alike, and register the merge
        generator in ``_live``.

        A run's head is its first member not already in ``NL`` — the run
        start for a new cursor.  ``NL`` holds the nearest members in
        (distance, member) order, and every skipped entry is a member
        produced at its 2-hop distance already, so the merge continues
        the sequence a never-suspended cursor would produce.

        The category's read state (:meth:`PackedInvertedIndex.runs`) is
        read once here: the merge indexes its ``dists`` / ``members``
        sequences by position, and each hub's ``(lo, hi)`` comes from its
        directory, so neither a seeding nor an advance copies a run.

        Returns None, and leaves no generator, when there is nothing to
        merge and nothing produced: a new cursor born empty.  A suspended
        cursor always gets a generator — one that ends on its first
        advance when every member it reaches is in ``NL`` — because the
        runs it re-reads are the ones that seeded it.
        """
        source, category = key
        pinv = self._inverted.get(category)
        if pinv is None:
            return None
        # The members are the even int64 slots of NL.
        found = set(memoryview(nl).cast("q")[::2]) if nl else set()
        # Decoded Lout(source), not kept: a search almost never opens a
        # second category's cursor over the same source, and a retained
        # copy per source is what a warm session's memory would mostly
        # consist of.
        lo, hi = self._out_offsets[source], self._out_offsets[source + 1]
        ranks = self._out_ranks[lo:hi].tolist()
        base_dists = self._out_dists[lo:hi].tolist()
        idists, imembers, directory = pinv.runs()
        nq: List[Tuple[Cost, Vertex, int, int, Cost]] = []
        # map() pushes the per-hub dict probe into C; most Lout hubs have
        # no members in the category, so the Python-level body below
        # only runs for actual matches.
        for base, sl in zip(base_dists, map(directory.get, ranks)):
            if sl is None:
                continue
            lo, hi = sl
            if found:
                while lo < hi and imembers[lo] in found:
                    lo += 1
                if lo == hi:
                    continue
            nq.append((base + idists[lo], imembers[lo], lo + 1, hi, base))
        if not nq and not found:
            return None
        # Heap-order ties only reorder pops of entries with equal (total,
        # member) — interchangeable for NL and stream state — so heapify
        # instead of pushes changes nothing observable.
        heapq.heapify(nq)
        gen = self._live[key] = self._stream(nl, nq, found, idists, imembers,
                                             pinv.member_count)
        return gen

    @staticmethod
    def _stream(nl: bytearray, nq, found, idists, imembers,
                member_count: int):
        """Generator producing one NL entry per resume (lines 11-18).

        A generator rather than a method so the merge-loop bindings live
        in one frame instead of being re-established on every advance;
        the frame is the cursor's whole merge state, so dropping the
        generator releases it.  It appends to the cursor's ``NL`` buffer
        and never sees the finder (no cycle through ``_live``): on
        exhaustion it just finishes, and the reader that catches the
        ``StopIteration`` ends the cursor (:meth:`_end`).  Each heap
        entry is one hub stream, ``(total_cost, member, next position,
        run end, base distance)``: advancing a stream is one
        ``heapreplace`` with the successor tuple, with no side tables to
        update.

        ``member_count`` is the category's member count as of seeding,
        taken with the runs the cursor scans.  Once ``NL`` holds that
        many neighbours nothing else can pop but stale duplicates, so
        ``NQ`` is emptied before the ``yield`` instead of being drained pop
        by pop.  The counters cannot move: the entry is produced on the
        same resume as before, and the next resume still finds ``NQ``
        empty and ends — one booked attempt that discovers exhaustion,
        as in a full drain.  A member the source cannot reach (directed
        or disconnected graphs) never pops, the count is never reached,
        and the cursor drains as Algorithm 3 does.

        ``heapreplace`` (one sift) stands in for the pop-push pair where
        the popped stream has a successor: heap *contents* end up the
        same either way, and entries with equal keys are interchangeable,
        so the produced NL sequence is too.
        """
        found_add = found.add
        pack = _ENTRY.pack
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
            nl += pack(member, total)
            if len(found) == member_count:
                nq.clear()  # the rest is stale duplicates
            yield
