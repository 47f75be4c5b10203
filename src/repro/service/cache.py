"""Epoch-versioned cross-query session state.

The per-query engine path treats every query as a cold universe: a fresh
finder (empty NL caches), a fresh ``dis(·, t)`` memo, a fresh SK-DB
attachment of the saved index file.  :class:`SessionCache` keeps those
artefacts warm across the queries of a serving session and invalidates
them whenever the engine's ``index_epoch`` moves (category updates, edge
updates, compaction) — so the PR 2 update-correctness guarantees carry
over unchanged: no query ever observes pre-update cache state.

Invalidation is **per category** where the epoch split allows it: a
category update moves only that category's index ``version`` counter, so
the session drops just the touched categories' warm cursors (and the
SK-DB attachment, whose file the update made stale) and keeps everything
else (the shared finder and its other categories' streams, every
``dis(·, t)`` kernel — labels are untouched by membership changes — and
the topology-only CH).  A move of the
engine-level ``epoch_base`` (edge update, compaction, wholesale rebuild)
still drops the whole session in one shot.  Both paths leave post-update
queries rebuilding exactly like a cold engine — see :meth:`SessionCache.validate`.

Cold-equivalent accounting
--------------------------

The paper's evaluation counters (``QueryStats.nn_queries`` et al.) are
defined per query over cold caches.  Warm reuse must therefore not leak
into the counters: a batch run has to report *bit-identical* stats to a
fresh single-query engine (asserted by the service-parity tests).  Three
mechanisms deliver that:

* :class:`SharedDestKernel` shares only the memo *values* of
  ``dis(·, t)``; each query keeps its own request-dedup cache inside
  :class:`~repro.core.runtime.QueryRuntime`, so ``dest_computed`` still
  counts exactly the distinct vertices *this* query asked about.
* :class:`ColdEquivalentFinderView` wraps the session's shared FindNN
  finder with per-query *virtual cursor positions*: the x-th-neighbor
  streams are produced once (warm), but each query books the number of
  advances a cold cursor would have executed for *its own* request
  pattern — including the extra advance that discovers exhaustion.
  KPNE and PK read FindNN this way.
* StarKOSR's FindNEN order is a pure function of ``(source, category,
  target)`` and the index state, so each :class:`SharedDestKernel` also
  keeps its target's :class:`~repro.nn.estimated.EstStream` s.  A stream
  records, per produced entry and for its end, what a cold FindNEN has
  booked by then — plain-NN attempts and the length of the ``NL``
  prefix whose estimates it demanded.  A query remembers only the
  largest ``x`` it asked of each stream; its ``nn_queries`` is the sum
  of the attempts at those positions plus the number of *distinct*
  vertices in the union of those prefixes and its own direct
  ``dis(·, t)`` requests (see
  :meth:`~repro.core.runtime.QueryRuntime.finalize_counters`).  The
  cold path books the same way over streams it does not keep.

All three are value-transparent: NL streams, FindNEN streams and
distances are deterministic functions of the index state, so within one
epoch a warm answer is byte-for-byte the cold answer.

Which streams are kept
----------------------

A stream nobody reads twice is pure cost (one-shot groups; the stream of
a query's own source, which rarely recurs), so a kernel admits a stream
on its *second* request: the first leaves only a mark, the second
produces the stream again — cheaply, its FindNN ``NL`` is warm — and
keeps it, the third reads it back.  Retention is decided by that
observation alone.  Lifetime follows the existing rules: a changed
category version drops that category's streams in every kernel, an
``epoch_base`` move or a ``max_dest_kernels`` eviction drops them with
the kernel, and a ``max_finders`` eviction takes a cursor's streams
with it.

Between queries a kept stream holds only what it produced: ``ENL`` and
its per-entry bookings.  The session suspends every kept stream the last
query read (:meth:`~repro.nn.estimated.EstStream.suspend`), dropping its
producer frame and ``ENQ``, and a later query that reads past ``ENL``
rebuilds them from the cursor's ``NL`` and the kernel's memo.  Most kept
streams are never read past their ``ENL`` again (a ``k = 1`` query reads
one entry).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from itertools import islice
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import QueryError
from repro.labeling.assembly import assemble_index
from repro.labeling.mmap_index import MmapIndexFile
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.nn.base import NearestNeighborFinder
from repro.nn.estimated import EstStream, PackedEstimatedNNFinder
from repro.nn.label_nn import _SHIFT, PackedLabelNNFinder
from repro.types import CategoryId, Cost, Vertex


class SharedDestKernel:
    """What a session keeps for one fixed target: the shared
    ``dis(·, target)`` closure + memo, and the target's FindNEN streams.

    ``fn`` is handed to every :class:`QueryRuntime` of the session that
    targets the same vertex; the runtime layers its own per-query cache
    (and ``dest_computed`` accounting) on top, so values are shared while
    counters stay cold-equivalent.  ``streams`` maps category -> source
    -> the retained :class:`~repro.nn.estimated.EstStream`, or ``None``
    for a stream requested once and not kept (see
    :meth:`SessionCache.est_stream`).
    """

    __slots__ = ("target", "fn", "memo", "streams")

    def __init__(self, target: Vertex, dest_fn: Callable[[Vertex], Cost]):
        self.target = target
        memo: Dict[Vertex, Cost] = {}
        memo_get = memo.get

        def fn(v: Vertex) -> Cost:
            d = memo_get(v)
            if d is None:
                d = dest_fn(v)
                memo[v] = d
            return d

        self.fn = fn
        self.memo = memo
        self.streams: Dict[CategoryId,
                           Dict[Vertex, Optional[EstStream]]] = {}


class ColdEquivalentFinderView(NearestNeighborFinder):
    """A per-query view over a session's shared (warm) FindNN finder.

    Answers come from the shared finder's cursors — already-produced NL
    entries are served without re-running the k-way merge — while
    ``self.queries`` books, per ``(source, category)`` cursor, the number
    of executed NN computations a *cold* run of this query would have
    performed:

    * serving request ``x`` from virtual position ``vpos`` with the
      stream able to supply ``x`` entries costs ``x - vpos`` advances;
    * a request past the end of an exhausted stream with ``avail``
      entries costs ``avail - vpos`` producing advances plus one more
      that discovers exhaustion (matching both finders' cursors, which
      count the advance that raises/flags);
    * a stream empty at creation is exhausted at creation — zero cost,
      exactly like a cold cursor over an empty category.

    Results are identical to cold execution because NL streams are
    deterministic given the (epoch-stable) index state.
    """

    def __init__(self, shared: NearestNeighborFinder,
                 session: "SessionCache"):
        super().__init__()
        self._shared = shared
        self._session = session
        #: (source, category) -> (virtual NL position, virtually exhausted)
        self._virtual: Dict[Tuple[Vertex, CategoryId], Tuple[int, bool]] = {}
        #: the session kernel of this query's target (looked up once)
        self._kernel: Optional[SharedDestKernel] = None

    def find(self, source: Vertex, category: CategoryId, x: int):
        shared = self._shared
        res = shared.find(source, category, x)
        key = (source, category)
        self._session.touch_cursor(key)
        vpos, vexh = self._virtual.get(key, (0, False))
        if x > vpos and not vexh:
            avail = len(shared._cursors[key]) >> _SHIFT
            if x <= avail:
                self.queries += x - vpos
                self._virtual[key] = (x, False)
            else:
                # Stream exhausted before x: a cold cursor would produce
                # the remaining entries, then burn one advance on the
                # exhaustion discovery (none if it was born empty).
                self.queries += (avail - vpos) + (1 if avail else 0)
                self._virtual[key] = (avail, True)
        return res

    def distance(self, s: Vertex, t: Vertex) -> Cost:
        return self._shared.distance(s, t)

    def _kernel_for(self, target: Vertex) -> SharedDestKernel:
        kernel = self._kernel
        if kernel is None or kernel.target != target:
            kernel = self._kernel = self._session.dest_kernel(target)
        return kernel

    def make_dest_distance(self, target: Vertex) -> Callable[[Vertex], Cost]:
        """The session's shared ``dis(·, target)`` kernel for this target."""
        return self._kernel_for(target).fn

    def make_estimated(self, estimate, cache=None, target=None):
        """FindNEN over the session's streams for ``target``; their
        estimates come from the target's shared kernel, which computes
        the same ``dis(·, target)`` as ``estimate``."""
        return PackedEstimatedNNFinder(
            self, partial(self._session.est_stream, self._kernel_for(target)))


class IndexAttachment:
    """SK-DB's disk-resident index: one attachment of the saved file.

    Sec. IV-C stores the index on disk by category and has a query touch
    only its own categories plus the labels of ``s`` and ``t``.  Here
    the disk-resident index *is* the engine's saved RPLI file
    (:meth:`~repro.core.engine.KOSREngine.save_index`): an attachment
    maps it, wraps the label sections, and attaches inverted sections
    for just the categories queries ask for.  The cold path opens one
    per query; a session keeps one open across queries.  Either way
    every query gets a *fresh* finder, so SK-DB counters are cold by
    construction.
    """

    __slots__ = ("index_file", "inverted")

    def __init__(self, engine):
        path = engine._store
        if path is None:
            raise QueryError(
                "SK-DB reads a saved index file that matches the current "
                "indexes: call save_index(path) first, and again after an "
                "update (a fleet serves SK-DB from its index_path=)")
        self.index_file = MmapIndexFile.open(path)
        self.inverted: Dict[CategoryId, PackedInvertedIndex] = {}

    def finder(self, graph, categories) -> PackedLabelNNFinder:
        """A fresh FindNN finder over the file, ``categories`` attached.

        Categories the file stores are zero-copy views; a labels-only
        file's are built from ``graph`` + the mapped labels.
        """
        missing = set(categories).difference(self.inverted)
        if missing:
            self.inverted.update(assemble_index(
                graph, categories=missing,
                index_file=self.index_file).inverted)
        return PackedLabelNNFinder(self.index_file.labels, self.inverted)


#: the warm artefact populations CacheStats tracks hit/miss pairs for
CACHE_KINDS = ("finder", "dest_kernel", "est_stream", "ch", "disk_view")


def hit_rates_from(totals: Dict[str, int]) -> Dict[str, float]:
    """Per-artefact hit rates from a counter dict (0.0 when never used).

    The one place the hits / (hits + misses) computation lives — for one
    session's counters and the sharded fleet's summed worker counters
    alike.
    """
    rates: Dict[str, float] = {}
    for kind in CACHE_KINDS:
        hits = totals.get(f"{kind}_hits", 0)
        lookups = hits + totals.get(f"{kind}_misses", 0)
        rates[kind] = hits / lookups if lookups else 0.0
    return rates


class CacheStats:
    """Hit/miss/eviction/invalidation counters for one session."""

    __slots__ = ("finder_hits", "finder_misses", "dest_kernel_hits",
                 "dest_kernel_misses", "dest_kernel_evictions",
                 "cursor_evictions", "est_stream_hits", "est_stream_misses",
                 "ch_hits", "ch_misses",
                 "disk_view_hits", "disk_view_misses", "invalidations",
                 "partial_invalidations", "cursors_invalidated")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def hit_rates(self) -> Dict[str, float]:
        """Per-artefact hit rates (hits / lookups; 0.0 when never used)."""
        return hit_rates_from(self.as_dict())


#: warm population names reported as gauges (see SessionCache.populations)
CACHE_POPULATIONS = ("dest_kernels", "finder_cursors", "est_streams")


class SessionCache:
    """Reusable per-engine query state, invalidated by index epoch.

    Holds the session's warm finder (shared NL caches), the per-target
    ``dis(·, t)`` kernels with their FindNEN streams, the lazy
    contraction hierarchy, and SK-DB's index-file attachment.
    :meth:`validate` is called at the top of every service-path query;
    when the engine's ``index_epoch`` has moved it
    drops exactly the warm state the mutation could have touched —
    per-category for incremental membership updates, wholesale when the
    engine-level ``epoch_base`` moved (edge updates, compaction) — so
    post-update queries rebuild from the authoritative indexes exactly
    like a cold engine.

    Within an epoch the cache would otherwise grow unboundedly (one
    kernel per distinct target, one cursor per distinct ``(source,
    category)``); ``max_dest_kernels`` / ``max_finders`` cap those two
    populations with LRU eviction (the kernels' ``OrderedDict``, and the
    shared finder's ``_cursors`` dict order for cursors); FindNEN
    streams live inside a kernel and over a cursor and leave with
    either, so the two caps bound them too.  Eviction is purely a memory
    policy: a re-built kernel or cursor regenerates the identical
    deterministic stream, and the cold-equivalent accounting books
    per-query virtual positions, so results *and* counters stay
    bit-identical (pinned by the capped-parity test).

    Between queries — at :meth:`finder_view` creation, never
    mid-enumeration — cursors are trimmed, and every cursor the last
    query seeded keeps only its ``NL``: its merge state is dropped and
    re-seeded from ``NL`` if a later query advances it
    (:meth:`~repro.nn.label_nn.PackedLabelNNFinder.suspend`).  Most
    cursors a query leaves unfinished are never advanced again, so the
    session holds ``NL`` buffers, not merge heaps.  The kept FindNEN
    streams the last query read are suspended there too
    (:meth:`~repro.nn.estimated.EstStream.suspend`): they keep ``ENL``,
    not their producer and ``ENQ``.
    """

    def __init__(self, engine, max_dest_kernels: Optional[int] = None,
                 max_finders: Optional[int] = None):
        if max_dest_kernels is not None and max_dest_kernels < 1:
            raise ValueError("max_dest_kernels must be >= 1")
        if max_finders is not None and max_finders < 1:
            raise ValueError("max_finders must be >= 1")
        self.engine = engine
        self.epoch = engine.index_epoch
        self._epoch_base = engine.epoch_base
        self._versions = engine.category_versions()
        self.stats = CacheStats()
        self.max_dest_kernels = max_dest_kernels
        self.max_finders = max_finders
        self._label_finder: Optional[NearestNeighborFinder] = None
        self._dest_kernels: "OrderedDict[Vertex, SharedDestKernel]" = \
            OrderedDict()
        self._ch = None
        self._disk: Optional[IndexAttachment] = None
        #: the kept streams handed out since the last :meth:`finder_view`,
        #: so a suspension costs what the last query read, not the
        #: stream population
        self._read_streams: List[EstStream] = []

    # ------------------------------------------------------------------
    def populations(self) -> Dict[str, int]:
        """Current warm-artefact population sizes (gauge material).

        Unlike the monotonic :class:`CacheStats` counters these move both
        ways — evictions and epoch invalidations shrink them — which is
        what the observability layer samples as gauges over time.
        """
        finder = self._label_finder
        return {
            "dest_kernels": len(self._dest_kernels),
            "finder_cursors": len(finder._cursors) if finder is not None
            else 0,
            "est_streams": sum(
                stream is not None
                for kernel in self._dest_kernels.values()
                for by_source in kernel.streams.values()
                for stream in by_source.values()),
        }

    # ------------------------------------------------------------------
    def validate(self) -> bool:
        """Invalidate warm state the engine's index mutations obsoleted.

        Returns True when anything was dropped.  Two granularities:

        * ``epoch_base`` moved (edge update, compaction, wholesale
          rebuild): the labels themselves may have changed, so
          *everything* drops and ``stats.invalidations`` counts it.
        * only per-category ``version`` counters moved (incremental
          membership updates): just the changed categories' warm cursors
          and FindNEN streams (and the SK-DB attachment) drop — the shared
          finder object, other categories' streams, every ``dis(·, t)`` kernel (label
          distances are invariant under membership changes), and the
          topology-only CH all survive; ``stats.partial_invalidations``
          counts the event and ``stats.cursors_invalidated`` the cursors
          dropped.  Post-update queries on a changed category rebuild
          its streams cold; kept streams are deterministic replays of an
          unchanged index, so answers and ``QueryStats`` stay
          bit-identical either way (pinned by the retention + parity
          tests).
        """
        engine = self.engine
        current = engine.index_epoch
        base = engine.epoch_base
        if current == self.epoch and base == self._epoch_base:
            return False
        self.epoch = current
        if base != self._epoch_base:
            self._epoch_base = base
            self._versions = engine.category_versions()
            self.stats.invalidations += 1
            self._label_finder = None
            self._dest_kernels.clear()
            self._ch = None
            self._disk = None
            return True
        versions = engine.category_versions()
        previous = self._versions
        self._versions = versions
        changed = {cid for cid in set(versions) | set(previous)
                   if versions.get(cid) != previous.get(cid)}
        self.stats.partial_invalidations += 1
        self._drop_categories(changed)
        return True

    def _drop_categories(self, changed) -> None:
        """Drop only ``changed`` categories' warm cursors and FindNEN
        streams, plus the SK-DB attachment: its file predates the update
        (a re-saved file at the same path is a different file)."""
        for kernel in self._dest_kernels.values():
            for cid in changed:
                kernel.streams.pop(cid, None)
        finder = self._label_finder
        if finder is not None:
            for key in [k for k in finder._cursors if k[1] in changed]:
                finder.drop(key)
                self.stats.cursors_invalidated += 1
        self._disk = None

    # ------------------------------------------------------------------
    def finder(self, nn_backend: str) -> NearestNeighborFinder:
        """The query's NN oracle: a :meth:`finder_view` for ``label``.  The
        Dijkstra comparators are straw men whose re-search cost *is* the
        measurement, so they stay cold: a fresh engine finder."""
        if nn_backend == "label":
            return self.finder_view()
        return self.engine.finder(nn_backend)

    def finder_view(self) -> ColdEquivalentFinderView:
        """A fresh per-query view over the session's shared label finder.

        This is the session's between-queries seam: the kept streams and
        the cursors the last query read drop their producers and merge
        state here (keeping ``ENL`` and ``NL``; see
        :meth:`~repro.nn.estimated.EstStream.suspend` and
        :meth:`~repro.nn.label_nn.PackedLabelNNFinder.suspend`) and the
        cursor population is trimmed to ``max_finders``.
        """
        for stream in self._read_streams:
            stream.suspend()
        self._read_streams.clear()
        if self._label_finder is None:
            self._label_finder = self.engine.finder("label")
            self.stats.finder_misses += 1
        else:
            self.stats.finder_hits += 1
            self._label_finder.suspend()
            self._trim_cursors()
        return ColdEquivalentFinderView(self._label_finder, self)

    def touch_cursor(self, key: Tuple[Vertex, CategoryId]) -> None:
        """Record a cursor access (called by finder views): the finder's
        ``_cursors`` dict order is the LRU order, so a touch moves the
        key to the end (a cursor not created yet is appended by its
        creation)."""
        if self.max_finders is None:
            return
        cursors = self._label_finder._cursors
        cursor = cursors.pop(key, None)
        if cursor is not None:
            cursors[key] = cursor

    def _trim_cursors(self) -> None:
        """Evict least-recently-used warm cursors past ``max_finders``:
        the front of the finder's ``_cursors`` dict.

        Runs only between queries (the per-query views are already
        retired), so no in-flight virtual-position bookkeeping can point
        at an evicted cursor mid-enumeration.
        """
        if self.max_finders is None or self._label_finder is None:
            return
        finder = self._label_finder
        excess = len(finder._cursors) - self.max_finders
        if excess <= 0:
            return
        for key in list(islice(finder._cursors, excess)):
            finder.drop(key)
            self.stats.cursor_evictions += 1
            source, category = key
            for kernel in self._dest_kernels.values():
                by_source = kernel.streams.get(category)
                if by_source is not None:
                    by_source.pop(source, None)

    def est_stream(self, kernel: SharedDestKernel, source: Vertex,
                   category: CategoryId) -> EstStream:
        """The FindNEN stream of ``(source, category)`` under ``kernel``.

        A retained stream is a hit.  Otherwise the stream is produced
        over the session's warm FindNN cursor, and kept only if this
        kernel has been asked for it before (see the module docstring);
        a per-query record holds the one that is not kept.
        """
        by_source = kernel.streams.get(category)
        if by_source is None:
            by_source = kernel.streams[category] = {}
        self.touch_cursor((source, category))
        stream = by_source.get(source)
        if stream is not None:
            self.stats.est_stream_hits += 1
            self._read_streams.append(stream)
            return stream
        self.stats.est_stream_misses += 1
        stream = EstStream(self._label_finder, source, category,
                           kernel.fn, kernel.memo.get)
        if source in by_source:
            by_source[source] = stream
            self._read_streams.append(stream)
        else:
            by_source[source] = None
        return stream

    def dest_kernel(self, target: Vertex) -> SharedDestKernel:
        """The shared ``dis(·, target)`` kernel (built once per target)."""
        kernels = self._dest_kernels
        kernel = kernels.get(target)
        if kernel is None:
            shared = self._label_finder
            if shared is None:
                shared = self._label_finder = self.engine.finder("label")
                self.stats.finder_misses += 1
            kernel = SharedDestKernel(target,
                                      shared.make_dest_distance(target))
            kernels[target] = kernel
            self.stats.dest_kernel_misses += 1
            if (self.max_dest_kernels is not None
                    and len(kernels) > self.max_dest_kernels):
                kernels.popitem(last=False)
                self.stats.dest_kernel_evictions += 1
        else:
            kernels.move_to_end(target)
            self.stats.dest_kernel_hits += 1
        return kernel

    def contraction_hierarchy(self):
        """The session's CH (delegates to the engine's lazy build)."""
        if self._ch is None:
            self._ch = self.engine.contraction_hierarchy()
            self.stats.ch_misses += 1
        else:
            self.stats.ch_hits += 1
        return self._ch

    def index_attachment(self) -> IndexAttachment:
        """The session's kept SK-DB attachment of the engine's saved file."""
        disk = self._disk
        if disk is None or disk.index_file.path != self.engine._store:
            disk = self._disk = IndexAttachment(self.engine)
            self.stats.disk_view_misses += 1
        else:
            self.stats.disk_view_hits += 1
        return disk
