"""FindNEN (Algorithm 4): x-th nearest *estimated* neighbor.

StarKOSR extends witnesses through the neighbor ``u`` of ``v`` in category
``Ci`` minimising ``dis(v, u) + dis(u, t)`` — the leg cost plus the
admissible estimate to the destination.  FindNEN enumerates neighbors in
that order by wrapping plain FindNN:

* keep fetching plain nearest neighbors while the most recent one's leg
  distance is *below* the smallest estimate waiting in ``ENQ`` — any
  unfetched neighbor has a leg at least that long, hence an estimate at
  least that large, so the heap top is final otherwise;
* a fetched-but-not-yet-safe neighbor waits in the one-slot lookahead
  ``ln`` exactly as in the paper.

Members that cannot reach the destination (infinite estimate) are dropped:
no feasible route extends through them.

Two implementations, one protocol — ``find(source, category, x)`` and
``booked()``, the ``(plain-NN attempts, estimated vertices)`` a query
adds to what its oracle and its own ``dis(·, t)`` memo already count:

* :class:`EstimatedNNFinder` is the generic wrapper over any
  :class:`NearestNeighborFinder` — the FindNEN of the oracles that have
  no packed cursor (the Dijkstra finders behind ``SK-Dij``, preference
  queries, the tests' object finder) and the reference the fused one is
  tested against.  Its plain-NN fetches go through ``finder.find`` one
  at a time and its estimates through the caller's ``estimate``, so both
  are counted where they happen and ``booked()`` adds nothing.
* :class:`EstStream` is FindNEN fused onto one packed FindNN cursor, and
  the one producer every packed SK run — cold or warm, profiled or not —
  reads from.  For a fixed target the estimated order of ``(source,
  category)`` is a pure function of the index state, so a stream is
  query-independent: it
  records, next to each ``ENL`` entry and for its end, what a cold
  FindNEN would have booked by then (plain-NN attempts, and how many
  ``NL`` members had their estimate demanded).  A query only remembers
  how far it asked (:class:`PackedEstimatedNNFinder`, the per-query
  record) and books from those positions, which is what lets a session
  keep streams across queries (:mod:`repro.service.cache`) while every
  query still reports cold counters.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.nn.base import NearestNeighborFinder
from repro.types import CategoryId, Cost, INFINITY, Vertex


class _EstCursor:
    __slots__ = ("enl", "enq", "ln", "nn_count", "exhausted")

    def __init__(self) -> None:
        #: returned estimated neighbors: (member, leg_dist, estimate)
        self.enl: List[Tuple[Vertex, Cost, Cost]] = []
        #: waiting candidates: (estimate, leg_dist, member)
        self.enq: List[Tuple[Cost, Cost, Vertex]] = []
        #: lookahead plain-NN not yet pushed
        self.ln: Optional[Tuple[Vertex, Cost]] = None
        self.nn_count = 0
        self.exhausted = False


class EstimatedNNFinder:
    """Wraps a :class:`NearestNeighborFinder` with destination-directed order.

    ``estimate(u)`` must be an admissible lower bound on the cost of
    completing any route from ``u`` (StarKOSR passes ``dis(u, t)`` from the
    hub labels).  NN-query accounting stays on the wrapped finder, matching
    the paper's criterion that SK's NN count is the number of FindNN calls
    FindNEN issues.
    """

    def __init__(
        self,
        finder: NearestNeighborFinder,
        estimate: Callable[[Vertex], Cost],
        cache: Optional[Dict[Vertex, Cost]] = None,
    ):
        self._finder = finder
        self._estimate = estimate
        #: optional caller-owned estimate memo, probed before calling
        #: ``estimate`` (the caller keeps writing it inside ``estimate``)
        self._cache_get = cache.get if cache is not None else None
        self._cursors: Dict[Tuple[Vertex, CategoryId], _EstCursor] = {}

    @property
    def queries(self) -> int:
        return self._finder.queries

    def find(
        self, source: Vertex, category: CategoryId, x: int
    ) -> Optional[Tuple[Vertex, Cost, Cost]]:
        """The ``x``-th member by ``dis(source, ·) + estimate(·)``.

        Returns ``(member, leg_dist, leg_dist + estimate(member))`` or
        ``None`` when fewer than ``x`` members have finite estimates.
        """
        cursor = self._cursors.get((source, category))
        if cursor is None:
            cursor = _EstCursor()
            self._cursors[(source, category)] = cursor
        while len(cursor.enl) < x:
            nxt = self._next(cursor, source, category)
            if nxt is None:
                return None
        return cursor.enl[x - 1]

    def booked(self) -> Tuple[int, Set[Vertex]]:
        """Nothing beyond the wrapped finder's ``queries`` and the
        caller's estimate memo: every fetch and estimate was a call."""
        return 0, set()

    # ------------------------------------------------------------------
    def _next(
        self, cursor: _EstCursor, source: Vertex, category: CategoryId
    ) -> Optional[Tuple[Vertex, Cost, Cost]]:
        find = self._finder.find
        estimate = self._estimate
        cache_get = self._cache_get
        enq = cursor.enq
        while True:
            if cursor.ln is None and not cursor.exhausted:
                res = find(source, category, cursor.nn_count + 1)
                if res is None:
                    cursor.exhausted = True
                else:
                    cursor.nn_count += 1
                    cursor.ln = res
            if cursor.ln is None:
                break  # NN stream dry; whatever is in ENQ is final
            if enq and cursor.ln[1] >= enq[0][0]:
                break  # every unfetched neighbor's estimate >= heap top
            member, leg = cursor.ln
            cursor.ln = None
            h = cache_get(member) if cache_get is not None else None
            if h is None:
                h = estimate(member)
            if h != INFINITY:
                heapq.heappush(enq, (leg + h, leg, member))
        if not enq:
            return None
        est, leg, member = heapq.heappop(enq)
        item = (member, leg, est)
        cursor.enl.append(item)
        return item


class EstStream:
    """FindNEN of one ``(source, category)`` under one fixed target.

    ``enl`` is the estimated-neighbour list produced so far, ``advance``
    appends one more entry per call (``StopIteration`` at the end of the
    stream, after which it is ``None``).  ``attempts[i]`` / ``demanded[i]``
    are what a cold FindNEN has booked by the time it returns
    ``enl[i]``: plain-NN attempts on a cold cursor (the one that
    discovers exhaustion included, none for a cursor born empty) and the
    length of the ``NL`` prefix whose estimates it demanded (the
    lookahead that stopped the loop is fetched but not estimated);
    ``end`` is that pair for a request past the last entry.  They depend
    only on the stream position, never on who advanced the underlying
    FindNN cursor or who filled the estimate memo, so any query reading
    the stream can book as if it had produced it alone.
    """

    __slots__ = ("enl", "nl", "attempts", "demanded", "end", "advance")

    def __init__(self, cursor, estimate: Callable[[Vertex], Cost],
                 cache_get: Optional[Callable] = None):
        """Over packed FindNN ``cursor`` (shared; may be ahead of or
        behind this stream); ``estimate`` is ``dis(·, t)`` and
        ``cache_get`` an optional probe of its memo tried first."""
        self.enl: List[Tuple[Vertex, Cost, Cost]] = []
        #: the cursor's ``NL`` — ``demanded`` counts index into it
        self.nl: List[Tuple[Vertex, Cost]] = cursor.nl
        self.attempts: List[int] = []
        self.demanded: List[int] = []
        self.end: Optional[Tuple[int, int]] = None
        self.advance: Optional[Callable] = self._produce(
            cursor, estimate, cache_get).__next__

    def booked(self, x: int) -> Tuple[int, int]:
        """``(attempts, demanded)`` of a cold FindNEN asked for entries
        up to ``x`` (the stream must have been driven that far)."""
        if not x:
            return 0, 0
        if x <= len(self.enl):
            return self.attempts[x - 1], self.demanded[x - 1]
        return self.end

    def _produce(self, cursor, estimate, cache_get):
        """Generator appending one estimated neighbor per resume: the
        whole Algorithm 4 state machine (lookahead, ENQ, plain-NN read
        position) lives in this one frame, and a missing plain neighbor
        resumes the packed merge generator directly."""
        nl = self.nl
        enl_append = self.enl.append
        attempts_append = self.attempts.append
        demanded_append = self.demanded.append
        nn_advance = cursor.gen.__next__ if cursor.gen is not None else None
        heappush_, heappop_ = heapq.heappush, heapq.heappop
        enq: List[Tuple[Cost, Cost, Vertex]] = []
        ln: Optional[Tuple[Vertex, Cost]] = None
        fetched = 0    # NL entries read (the cold cursor's position)
        attempts = 0   # plain-NN advances a cold cursor would have run
        demanded = 0   # NL entries whose estimate was taken
        dry = False
        while True:
            while True:
                if ln is None and not dry:
                    if fetched < len(nl):
                        ln = nl[fetched]
                        fetched += 1
                        attempts += 1
                    elif cursor.exhausted:
                        # Discovering the end costs a cold cursor one
                        # advance, unless it was born empty.
                        dry = True
                        if fetched:
                            attempts += 1
                    else:
                        attempts += 1
                        try:
                            nn_advance()
                        except StopIteration:
                            dry = True
                            nn_advance = None
                        else:
                            ln = nl[fetched]
                            fetched += 1
                if ln is None:
                    break  # NN stream dry; whatever is in ENQ is final
                if enq and ln[1] >= enq[0][0]:
                    break  # every unfetched neighbor's estimate >= heap top
                member, leg = ln
                ln = None
                demanded += 1
                h = cache_get(member) if cache_get is not None else None
                if h is None:
                    h = estimate(member)
                if h != INFINITY:
                    heappush_(enq, (leg + h, leg, member))
            if not enq:
                self.end = (attempts, demanded)
                self.advance = None
                return
            est, leg, member = heappop_(enq)
            enl_append((member, leg, est))
            attempts_append(attempts)
            demanded_append(demanded)
            yield


_member_of = itemgetter(0)


class PackedEstimatedNNFinder:
    """One query's FindNEN over :class:`EstStream` s — the per-query record.

    ``open_stream(source, category)`` supplies the streams: fresh ones
    over a cold finder's cursors (``PackedLabelNNFinder.make_estimated``)
    or a session's retained ones (``ColdEquivalentFinderView``).  The
    record opens each stream once, remembers the largest ``x`` asked of
    it, and :meth:`booked` turns those positions into the counters a
    cold run reports — so retained and fresh streams book alike, also
    when a budget stops the search early.
    """

    def __init__(self, finder,
                 open_stream: Callable[[Vertex, CategoryId], EstStream]):
        self._finder = finder
        self._open_stream = open_stream
        #: (source, category) -> [ENL, largest x asked, stream]
        self._entries: Dict[Tuple[Vertex, CategoryId], list] = {}

    def find(
        self, source: Vertex, category: CategoryId, x: int
    ) -> Optional[Tuple[Vertex, Cost, Cost]]:
        """The ``x``-th member by ``dis(source, ·) + estimate(·)``:
        served from ``ENL`` when produced, by advancing the stream
        otherwise."""
        entry = self._entries.get((source, category))
        if entry is None:
            stream = self._open_stream(source, category)
            entry = self._entries[(source, category)] = [stream.enl, 0, stream]
        if x > entry[1]:
            entry[1] = x
        enl = entry[0]
        if x <= len(enl):
            return enl[x - 1]
        advance = entry[2].advance
        if advance is None:
            return None
        try:
            while len(enl) < x:
                advance()
        except StopIteration:
            return None
        return enl[x - 1]

    def booked(self) -> Tuple[int, Set[Vertex]]:
        """What a cold run of this query's FindNEN requests books:
        plain-NN attempts summed over the streams, and the set of
        vertices whose estimate it demanded."""
        attempts = 0
        demanded: Set[Vertex] = set()
        for _enl, asked, stream in self._entries.values():
            a, n = stream.booked(asked)
            attempts += a
            if n:
                demanded.update(map(_member_of, islice(stream.nl, n)))
        return attempts, demanded

    @property
    def queries(self) -> int:
        return self._finder.queries + self.booked()[0]
