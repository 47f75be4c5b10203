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
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.nn.base import NearestNeighborFinder
from repro.nn.label_nn import _ENTRY, _unpack_from
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

    ``enl`` is the estimated-neighbour list produced so far, and
    :meth:`fill` extends it through ``advance``, the producer's
    ``__next__``, which appends one more entry per call
    (``StopIteration`` at the end of the stream, where :meth:`fill`
    records ``end`` and sets ``advance`` to ``None``).
    ``attempts[i]`` / ``demanded[i]`` are what a cold FindNEN has booked
    by the time it returns ``enl[i]``: plain-NN attempts on a cold
    cursor (the one that discovers exhaustion included, none for a
    cursor born empty) and the length of the ``NL`` prefix whose
    estimates it demanded (the lookahead that stopped the loop is
    fetched but not estimated); ``end`` is that pair for a request past the last entry.  They depend
    only on the stream position, never on who advanced the underlying
    FindNN cursor or who filled the estimate memo, so any query reading
    the stream can book as if it had produced it alone.

    The cursor's ``NL`` is read from its buffer of 16-byte ``(member,
    cost)`` entries (:mod:`repro.nn.label_nn`): the lookahead is a member
    and a leg in two locals, not an ``NL`` tuple.  The producer keeps the
    buffer in a local and looks the cursor up again only once it has
    read all of it, because ending a cursor swaps its ``bytearray`` for
    an exact-size ``bytes`` (same entries); :meth:`members` reads the
    cursor's buffer as it is then.  ``ENL`` itself stays a list of
    tuples, because it is read far more often than it is produced and
    every buffer read allocates.

    A stream may outlive its producer and its cursor's merge state: a
    session keeps streams across queries and, between them, suspends
    both the cursors (:meth:`~repro.nn.label_nn.PackedLabelNNFinder.suspend`)
    and the streams the last query read (:meth:`suspend`).  A suspended
    stream (``advance`` and ``end`` both ``None``) keeps only what it
    produced; the next :meth:`fill` starts the producer again, which
    rebuilds ``ENQ`` and the lookahead from ``NL`` (see :meth:`_produce`).
    A fresh stream is born suspended, with nothing produced.  Each
    plain-NN advance runs whatever generator the finder holds for the
    cursor at that moment, re-seeding a suspended cursor first, and no
    generator is bound in the producer's frame across a ``yield``.

    No generator frame holds its owner: the producer gets the stream's
    three lists, never the stream, and returns ``end`` instead of
    setting it (:meth:`fill` records it).  A stream is therefore never
    part of a reference cycle, and the one a query drops is freed when
    its last reference goes, not by the garbage collector.
    """

    __slots__ = ("enl", "attempts", "demanded", "end", "advance",
                 "_finder", "_key", "_estimate", "_cache_get")

    def __init__(self, finder, source: Vertex, category: CategoryId,
                 estimate: Callable[[Vertex], Cost],
                 cache_get: Optional[Callable] = None):
        """Over ``finder``'s packed FindNN cursor of ``(source, category)``
        (shared; may be ahead of or behind this stream); ``estimate`` is
        ``dis(·, t)`` and ``cache_get`` an optional probe of its memo
        tried first."""
        # The cursor exists from here on: the producer and members()
        # look it up by key.
        finder.cursor_for(source, category)
        self.enl: List[Tuple[Vertex, Cost, Cost]] = []
        self.attempts: List[int] = []
        self.demanded: List[int] = []
        self.end: Optional[Tuple[int, int]] = None
        self.advance: Optional[Callable] = None
        self._finder = finder
        self._key = (source, category)
        self._estimate = estimate
        self._cache_get = cache_get

    def fill(self, x: int) -> bool:
        """Advance until ``enl`` holds ``x`` entries; False when the
        stream ends first (``end`` is then set and ``advance`` None).
        A fresh or suspended stream starts its producer here."""
        advance = self.advance
        if advance is None:
            if self.end is not None:
                return False
            advance = self.advance = self._produce(
                self.enl, self.attempts, self.demanded, self._finder,
                self._key, self._estimate, self._cache_get).__next__
        enl = self.enl
        try:
            while len(enl) < x:
                advance()
        except StopIteration as stop:
            self.end = stop.value
            self.advance = None
            return False
        return True

    def suspend(self) -> None:
        """Drop the producer (its frame, ``ENQ`` and lookahead) and keep
        what the stream produced; the next :meth:`fill` past ``enl``
        rebuilds it.  An ended stream stays ended."""
        self.advance = None

    def booked(self, x: int) -> Tuple[int, int]:
        """``(attempts, demanded)`` of a cold FindNEN asked for entries
        up to ``x`` (the stream must have been driven that far)."""
        if not x:
            return 0, 0
        if x <= len(self.enl):
            return self.attempts[x - 1], self.demanded[x - 1]
        return self.end

    def members(self, n: int) -> List[Vertex]:
        """The first ``n`` members of the cursor's ``NL``: the vertices
        whose estimates a cold FindNEN demanded by position ``n`` of
        ``demanded``."""
        nl = self._finder._cursors[self._key]
        return memoryview(nl).cast("q")[:2 * n:2].tolist()

    @staticmethod
    def _produce(enl, attempts_made, demanded_made, finder, key, estimate,
                 cache_get):
        """Generator appending one estimated neighbor per resume and
        returning the stream's ``end`` pair: the whole Algorithm 4 state
        machine (lookahead, ENQ, plain-NN read position) lives in this
        one frame, and a missing plain neighbor resumes the finder's
        merge generator for the cursor directly (re-seeding a suspended
        cursor first).  A staticmethod fed the stream's lists, so the
        frame never holds the stream that holds the generator.

        It starts where the stream stands.  With nothing produced that is
        the empty state.  Otherwise, with ``n = demanded[-1]``: ``NL[:n]``
        is every member fetched and estimated so far, each one either in
        ``ENL`` or still waiting in ``ENQ`` (with a finite estimate), so
        ``ENQ`` is rebuilt from them (their estimates are in the memo),
        and the read position is ``n``.  At each ``yield`` the loop has
        stopped on a lookahead or on a dry cursor, so the lookahead is
        ``NL[n]`` when ``NL`` holds it, and otherwise the cursor ended
        with ``n`` entries.  ``attempts[-1]`` already booked both.
        Members are unique, so the heap pops in the same order as the
        one it replaces.
        """
        cursors, live = finder._cursors, finder._live
        unpack_from, entry_size = _unpack_from, _ENTRY.size
        heappush_, heappop_ = heapq.heappush, heapq.heappop
        enl_append = enl.append
        attempts_append = attempts_made.append
        demanded_append = demanded_made.append
        nl = cursors[key]
        enq: List[Tuple[Cost, Cost, Vertex]] = []
        # The lookahead: NL entry (member, leg), leg None when empty.
        member = leg = None
        fetched = 0    # NL bytes read (the cold cursor's position)
        attempts = 0   # plain-NN advances a cold cursor would have run
        demanded = 0   # NL entries whose estimate was taken
        dry = False
        if enl:
            attempts, demanded = attempts_made[-1], demanded_made[-1]
            fetched = demanded * entry_size
            produced = {entry[0] for entry in enl}
            # Temporary views: a bytearray held in a view cannot grow.
            members = memoryview(nl).cast("q")[:2 * demanded:2].tolist()
            legs = memoryview(nl).cast("d")[1:2 * demanded:2].tolist()
            for vertex, cost in zip(members, legs):
                if vertex in produced:
                    continue
                h = cache_get(vertex) if cache_get is not None else None
                if h is None:
                    h = estimate(vertex)
                if h != INFINITY:
                    enq.append((cost + h, cost, vertex))
            heapq.heapify(enq)
            if fetched < len(nl):
                member, leg = unpack_from(nl, fetched)
                fetched += entry_size
            else:
                dry = True
        while True:
            while True:
                if leg is None and not dry:
                    if fetched < len(nl):
                        member, leg = unpack_from(nl, fetched)
                        fetched += entry_size
                        attempts += 1
                    # All of NL read: look the cursor up again, since
                    # ending it swaps its bytearray for bytes.
                    elif type(nl := cursors[key]) is bytes:
                        # Discovering the end costs a cold cursor one
                        # advance, unless it was born empty.
                        dry = True
                        if fetched:
                            attempts += 1
                    else:
                        attempts += 1
                        try:
                            next(live.get(key) or finder._seed(key, nl))
                        except StopIteration:
                            nl = finder._end(key, nl)
                            dry = True
                        else:
                            member, leg = unpack_from(nl, fetched)
                            fetched += entry_size
                if leg is None:
                    break  # NN stream dry; whatever is in ENQ is final
                if enq and leg >= enq[0][0]:
                    break  # every unfetched neighbor's estimate >= heap top
                demanded += 1
                h = cache_get(member) if cache_get is not None else None
                if h is None:
                    h = estimate(member)
                if h != INFINITY:
                    heappush_(enq, (leg + h, leg, member))
                leg = None
            if not enq:
                return attempts, demanded
            est, eleg, emember = heappop_(enq)
            enl_append((emember, eleg, est))
            attempts_append(attempts)
            demanded_append(demanded)
            yield


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
        if x <= len(enl) or entry[2].fill(x):
            return enl[x - 1]
        return None

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
                demanded.update(stream.members(n))
        return attempts, demanded

    @property
    def queries(self) -> int:
        return self._finder.queries + self.booked()[0]
