""":class:`KOSREngine` — the user-facing facade.

Typical use::

    from repro import KOSREngine
    from repro.graph import generators

    graph = generators.cal()
    engine = KOSREngine.build(graph)              # hub labels + inverted indexes
    result = engine.query(source=0, target=42,
                          categories=["cal0", "cal3", "cal7"], k=5)
    for item in result.results:
        print(item.witness.vertices, item.cost)

The engine owns the offline artefacts (label index, inverted indexes,
the path of their saved index file) and *plans* online queries through
the service layer's method table (:mod:`repro.service.planner`): each
method is a row of switches and resource needs, executed by
:func:`repro.service.execution.execute_plan`.  ``KOSREngine.run`` uses
cold per-query resources — a fresh finder and fresh memos, the paper's
measurement setup — while :attr:`KOSREngine.service` exposes the warm
:class:`~repro.service.service.QueryService` for workload serving
(cross-query caches, grouped batches).

Every index mutation stamps :attr:`index_epoch`; the service layer's
session caches validate against it, so stale cross-query state can never
survive an update (see ``SessionCache``).

There is one index representation: the RPLI v2 section layout
(:class:`~repro.labeling.packed.PackedLabelIndex`,
:class:`~repro.labeling.packed_inverted.PackedInvertedIndex`), served
from a private buffer after :meth:`KOSREngine.build` and from a shared
read-only ``mmap`` after :meth:`KOSREngine.from_index_file`.  Dynamic
category updates go through a per-category delta overlay that queries
lazily fold in (see :meth:`KOSREngine.add_vertex_to_category` /
:meth:`KOSREngine.compact`).  The per-entry object representation
survives only as the tests' reference (``tests/reference_*.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.api import DEFAULT_OPTIONS, QueryOptions, require_options
from repro.core.query import KOSRQuery, make_query
from repro.core.stats import PreprocessingStats, QueryStats
from repro.exceptions import (  # noqa: F401  (BudgetExceededError: re-export)
    BudgetExceededError,
    IndexStorageError,
    QueryError,
)
from repro.graph.graph import Graph
from repro.labeling import updates as _updates
from repro.labeling.assembly import assemble_index
from repro.labeling.mmap_index import MmapIndexFile
from repro.labeling.packed import PackedLabelIndex, write_index_file
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.nn.base import NearestNeighborFinder
from repro.nn.dijkstra_nn import DijkstraNNFinder
from repro.nn.label_nn import PackedLabelNNFinder
from repro.service.execution import execute_plan
from repro.service.planner import METHODS, NN_BACKENDS
from repro.service.service import QueryService
from repro.types import CategoryId, Route, SequencedResult, Vertex

__all__ = [
    "KOSREngine",
    "KOSRResult",
    "METHODS",
    "NN_BACKENDS",
]


@dataclass
class KOSRResult:
    """Answer set plus execution statistics for one query."""

    query: KOSRQuery
    results: List[SequencedResult]
    stats: QueryStats

    @property
    def costs(self) -> List[float]:
        return [r.cost for r in self.results]

    @property
    def witnesses(self) -> List[tuple]:
        return [r.witness.vertices for r in self.results]


class KOSREngine:
    """Offline indexes + online KOSR/OSR query dispatch."""

    def __init__(
        self,
        graph: Graph,
        labels: Optional[PackedLabelIndex] = None,
        inverted: Optional[Dict[CategoryId, PackedInvertedIndex]] = None,
        preprocessing: Optional[PreprocessingStats] = None,
    ):
        self.graph = graph
        self.labels = labels
        self.inverted = inverted
        self.preprocessing = preprocessing
        #: path of the saved index file that matches the current indexes
        #: (what SK-DB reads); None before :meth:`save_index` and after
        #: any update, so SK-DB can never answer from a stale file
        self._store: Optional[str] = None
        self._ch = None
        #: build-time compaction-threshold override, re-applied when
        #: structure updates rebuild the inverted indexes
        self._overlay_ratio: Optional[float] = None
        #: engine-level epoch contribution (bumped by structure updates
        #: and explicit compaction; see :attr:`index_epoch`)
        self._epoch_base = 0
        self._service: Optional[QueryService] = None
        #: the open MmapIndexFile while this engine serves from one
        #: (:meth:`from_index_file`); kept so the mapping outlives views
        self._index_file: Optional[MmapIndexFile] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _assemble(cls, graph: Graph, name: str,
                  overlay_ratio: Optional[float], **source) -> "KOSREngine":
        """An engine over :func:`~repro.labeling.assembly.assemble_index`
        output, with the Table IX statistics recorded."""
        parts = assemble_index(graph, overlay_ratio=overlay_ratio, **source)
        stats = PreprocessingStats(
            graph_name=name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
        )
        stats.label_build_seconds = parts.label_seconds
        stats.avg_lin, stats.avg_lout = parts.labels.average_label_sizes()
        stats.label_entries = parts.labels.size_entries()
        stats.inverted_build_seconds = parts.inverted_seconds
        totals = [il.total_entries for il in parts.inverted.values()]
        stats.inverted_entries = sum(totals)
        stats.avg_il_per_category = (sum(totals) / len(totals)) if totals else 0.0
        lengths = [il.average_list_length() for il in parts.inverted.values()
                   if il.num_hubs]
        stats.avg_il_list_length = (sum(lengths) / len(lengths)) if lengths else 0.0
        engine = cls(graph, parts.labels, parts.inverted, stats)
        engine._overlay_ratio = overlay_ratio
        index_file = source.get("index_file")
        if index_file is not None:
            engine._index_file = index_file
            engine._store = index_file.path
        return engine

    @classmethod
    def build(
        cls,
        graph: Graph,
        order: Optional[Sequence[Vertex]] = None,
        name: str = "",
        overlay_ratio: Optional[float] = None,
    ) -> "KOSREngine":
        """Build hub labels and inverted indexes, recording Table IX stats.

        PLL writes private RPLI sections and queries are served from
        those.  ``overlay_ratio`` overrides the
        per-category compaction threshold (the fraction of live entries
        the delta overlay may reach before a category's decoded runs are
        rebuilt).
        """
        return cls._assemble(graph, name, overlay_ratio, order=order)

    @classmethod
    def from_labels(
        cls,
        graph: Graph,
        labels,
        name: str = "",
        overlay_ratio: Optional[float] = None,
    ) -> "KOSREngine":
        """Assemble an engine from prebuilt labels (rebuilds only the
        inverted indexes).

        Hub labels depend solely on graph topology, so experiment sweeps
        that vary *category assignments* (|Ci|, zipf skew) reuse one label
        index across settings — this is the paper's setup, where labels are
        precomputed offline once per graph.

        The :class:`PackedLabelIndex` is used as-is, so engines can share
        one index instance.
        """
        return cls._assemble(graph, name, overlay_ratio, labels=labels)

    @classmethod
    def from_index_file(
        cls,
        graph: Graph,
        path,
        name: str = "",
        overlay_ratio: Optional[float] = None,
    ) -> "KOSREngine":
        """Attach a saved RPLI index file zero-copy (mmap, no build).

        The returned engine serves from views into the file: construction
        is an ``open`` + ``mmap`` + header parse, and every process
        attaching the same file shares one physical index through the OS
        page cache.  Categories the file lacks inverted sections for (or
        all of them, for a labels-only file) are built privately from
        ``graph`` + the mapped labels.  Results are bit-identical to an
        engine built from scratch (parity-tested).
        """
        index_file = MmapIndexFile.open(path)
        try:
            if index_file.num_vertices != graph.num_vertices:
                raise IndexStorageError(
                    f"{path}: index file covers {index_file.num_vertices} "
                    f"vertices but the graph has {graph.num_vertices}")
            return cls._assemble(graph, name, overlay_ratio,
                                 index_file=index_file)
        except Exception:
            index_file.close()
            raise

    # ------------------------------------------------------------------
    # Index persistence + memory accounting
    # ------------------------------------------------------------------
    def save_index(self, path) -> int:
        """Write labels + inverted indexes as one RPLI v2 index file.

        The file is what :meth:`from_index_file` (and shard workers given
        ``index_path=``) attach zero-copy, and what the SK-DB method
        reads per query — it stays this engine's disk-resident index
        until the next update.  Returns bytes written.
        """
        if self.labels is None or self.inverted is None:
            raise QueryError("build the indexes before saving an index file")
        written = write_index_file(path, self.labels, self.inverted)
        self._store = str(path)
        return written

    def index_memory(self) -> Dict[str, object]:
        """Resident vs serialized index footprint of this engine.

        ``*_resident`` estimates live in-process bytes (near zero for
        mmap-attached indexes, whose pages are shared file cache);
        ``*_serialized`` is the 8-bytes-per-element at-rest size.
        Surfaced per worker through the TCP ``{"stats": true}`` reply.
        """
        labels = self.labels
        inverted = self.inverted or {}
        built = labels is not None
        labels_resident = labels.nbytes_resident if built else 0
        labels_serialized = labels.nbytes_serialized if built else 0
        inverted_resident = sum(il.nbytes_resident
                                for il in inverted.values())
        inverted_serialized = sum(il.nbytes_serialized
                                  for il in inverted.values())
        payload: Dict[str, object] = {
            "shared": built and labels.shared,
            "labels_resident": labels_resident,
            "labels_serialized": labels_serialized,
            "inverted_resident": inverted_resident,
            "inverted_serialized": inverted_serialized,
            "inverted_categories": len(inverted),
            "inverted_shared": sum(1 for il in inverted.values()
                                   if il.shared),
            "total_resident": labels_resident + inverted_resident,
            "total_serialized": labels_serialized + inverted_serialized,
        }
        if self._index_file is not None:
            payload["index_file"] = self._index_file.path
            payload["index_file_bytes"] = self._index_file.size_bytes
        return payload

    def _swap_indexes(self, graph: Graph, labels: PackedLabelIndex,
                      inverted: Dict[CategoryId, PackedInvertedIndex]
                      ) -> None:
        """Adopt a rebuilt graph + index state wholesale — the one place
        a structure update lands (:meth:`update_edge`, and a shard
        worker's fenced commit), so everything derived from the old
        state goes with it.

        ``epoch_base`` moves past the outgoing epoch (the fresh indexes
        restart their version counters at zero, and every session cache
        must see a wholesale change); the cached CH and the saved-file
        path SK-DB reads are dropped; an attached index file is released
        (the mapping goes away with its last view — warm sessions may
        hold some until their next validation).
        """
        self._epoch_base = self.index_epoch + 1
        self.graph, self.labels, self.inverted = graph, labels, inverted
        self._ch = None
        self._store = None
        if self._index_file is not None:
            self._index_file.close()
            self._index_file = None

    # ------------------------------------------------------------------
    # Index epoch + service access
    # ------------------------------------------------------------------
    @property
    def index_epoch(self) -> int:
        """Monotonic stamp of the index state.

        Moves whenever category updates, edge updates, or compaction
        change the indexes: the engine-level ``_epoch_base`` covers
        wholesale rebuilds and explicit :meth:`compact`, while the
        per-index ``version`` counters (bumped inside the labeling layer)
        cover incremental mutations — including ones applied through the
        module-level update helpers behind the engine's back.  Session
        caches (:class:`~repro.service.cache.SessionCache`) compare this
        stamp before serving from warm state.
        """
        epoch = self._epoch_base
        if self.inverted:
            epoch += sum(il.version for il in self.inverted.values())
        return epoch

    @property
    def epoch_base(self) -> int:
        """The engine-level component of :attr:`index_epoch`.

        Moves only on *wholesale* index changes — :meth:`update_edge`
        (labels rebuilt, every category replaced) and :meth:`compact`
        (physical buffers rewritten).  Incremental category updates move
        only the per-index ``version`` counters.  Session caches use the
        split to tell "one category changed" (partial invalidation) from
        "everything changed" (full drop).
        """
        return self._epoch_base

    def category_versions(self) -> Dict[CategoryId, int]:
        """Per-category index version counters (``{}`` before build()).

        A category's counter moves with every mutation of its inverted
        index — overlay inserts/tombstones and compaction — but not with
        lazy query-time overlay folds, which are purely physical.
        Together with :attr:`epoch_base` this is the state a
        :class:`~repro.service.cache.SessionCache` diffs to invalidate
        only the categories an update actually touched.
        """
        if not self.inverted:
            return {}
        return {cid: il.version for cid, il in self.inverted.items()}

    @property
    def service(self) -> QueryService:
        """The engine's warm :class:`QueryService` (created lazily).

        Use it for workloads: ``engine.service.run_batch(queries)``
        shares per-target ``dis(·, t)`` kernels, warm FindNN streams,
        and SK-DB's index-file attachment across queries while reporting
        the same results and counters as cold per-query runs.
        """
        if self._service is None:
            self._service = QueryService(self)
        return self._service

    # ------------------------------------------------------------------
    # Dynamic updates (Sec. IV-C)
    # ------------------------------------------------------------------
    def add_vertex_to_category(self, v: Vertex, cid: CategoryId) -> None:
        """Insert ``cid`` into ``F(v)``, patching ``IL(cid)``.

        The deltas are staged in the category's overlay (folded in lazily
        by the next queries, compacted automatically past
        ``overlay_ratio``); an attached index file is never written, so
        the saved file no longer reflects the indexes and SK-DB refuses
        it until :meth:`save_index` runs again.  The index epoch moves,
        invalidating session caches.
        """
        self._require_indexes()
        _updates.add_vertex_to_category(
            self.graph, self.labels, self.inverted, v, cid)
        self._store = None

    def remove_vertex_from_category(self, v: Vertex, cid: CategoryId) -> None:
        """Remove ``cid`` from ``F(v)`` (symmetric to the insert)."""
        self._require_indexes()
        _updates.remove_vertex_from_category(
            self.graph, self.labels, self.inverted, v, cid)
        self._store = None

    def update_edge(self, u: Vertex, v: Vertex, weight: Optional[float],
                    order: Optional[Sequence[Vertex]] = None) -> None:
        """Apply one edge insert/change/delete (``weight=None`` deletes).

        Rebuilds labels and inverted indexes into private buffers, keeping
        the build-time ``overlay_ratio``.  The cached CH, the saved-file
        path SK-DB reads and any attached index file are dropped (all
        stale after a structure change), and the index epoch moves past
        every previous value.
        """
        self._require_indexes()
        _updates.apply_edge_mutation(self.graph, u, v, weight)
        labels, inverted = assemble_index(
            self.graph, order=order, overlay_ratio=self._overlay_ratio)[:2]
        self._swap_indexes(self.graph, labels, inverted)

    def compact(self) -> None:
        """Fold every category's delta overlay in and drop buffer garbage.

        Query results are unchanged.  Call it after an update burst to
        return to garbage-free decoded runs instead of waiting for the
        per-category ``overlay_ratio`` trigger.  Bumps the index epoch:
        compaction rebuilds the decoded lists, so session caches
        re-snapshot rather than trusting warm cursors over them.
        """
        self._epoch_base += 1
        for il in (self.inverted or {}).values():
            il.compact()

    def _require_indexes(self) -> None:
        if self.labels is None or self.inverted is None:
            raise QueryError("dynamic updates require built indexes; call build()")

    # ------------------------------------------------------------------
    # Query dispatch
    # ------------------------------------------------------------------
    def make_query(
        self,
        source: Vertex,
        target: Vertex,
        categories: Sequence[Union[str, CategoryId]],
        k: int = 1,
    ) -> KOSRQuery:
        return make_query(self.graph, source, target, categories, k)

    def query(
        self,
        source: Vertex,
        target: Vertex,
        categories: Sequence[Union[str, CategoryId]],
        k: int = 1,
        method: Optional[str] = None,
        nn_backend: Optional[str] = None,
        budget: Optional[int] = None,
        time_budget_s: Optional[float] = None,
        restore_routes: Optional[bool] = None,
        strict_budget: Optional[bool] = None,
        profile: Optional[bool] = None,
        options: Optional[QueryOptions] = None,
    ) -> KOSRResult:
        """Answer a KOSR query (the documented one-liner).

        ``method`` defaults to ``"SK"`` and ``nn_backend`` to ``"label"``
        (the library-wide :data:`~repro.api.DEFAULT_OPTIONS`).  ``budget``
        caps examined routes and ``time_budget_s`` caps wall time
        (``stats.completed`` turns False when either is hit — the paper's
        INF); ``strict_budget`` escalates either guard into
        :class:`~repro.exceptions.BudgetExceededError`.  ``restore_routes``
        additionally materialises each witness into an actual
        vertex-by-vertex route via label parent pointers.  ``profile`` opts
        into the per-operation Table X timers
        (``nn_time``/``queue_time``/``estimation_time``); by default the
        hot loops run instrumentation-free and those fields stay 0.0 while
        every counter still populates.

        The keywords are sugar over one :class:`~repro.api.QueryOptions`:
        explicitly-passed keywords layer over ``options``, and the result
        goes through :meth:`run`, so the two paths cannot drift.
        """
        q = self.make_query(source, target, categories, k)
        overrides = {name: value for name, value in (
            ("method", method), ("nn_backend", nn_backend),
            ("budget", budget), ("time_budget_s", time_budget_s),
            ("restore_routes", restore_routes),
            ("strict_budget", strict_budget), ("profile", profile),
        ) if value is not None}
        base = options if options is not None else DEFAULT_OPTIONS
        return self.run(q, base.replace(**overrides) if overrides else base)

    def run(self, q: KOSRQuery,
            options: QueryOptions = DEFAULT_OPTIONS) -> KOSRResult:
        """Answer a prevalidated :class:`KOSRQuery` with cold resources.

        ``options`` selects the method/backends and execution knobs.  The
        method resolves through the service layer's planner table;
        execution builds a fresh finder and fresh memos per
        query (the paper's measurement setup).  For warm cross-query
        caching and batched workloads use :attr:`service`.
        """
        plan = require_options(options).plan_for()
        return execute_plan(self, plan, q, options)

    def contraction_hierarchy(self):
        """The engine's CH (built lazily, cached; used by GSP-CH)."""
        if self._ch is None:
            from repro.ch import build_ch

            self._ch = build_ch(self.graph)
        return self._ch

    # ------------------------------------------------------------------
    def _make_finder(self, nn_backend: str) -> NearestNeighborFinder:
        if nn_backend == "label":
            if self.labels is None or self.inverted is None:
                raise QueryError("label backend requires built indexes; call build()")
            return PackedLabelNNFinder(self.labels, self.inverted)
        if nn_backend == "dij-restart":
            return DijkstraNNFinder(self.graph, mode="restart")
        if nn_backend == "dij-resume":
            return DijkstraNNFinder(self.graph, mode="resume")
        raise QueryError(f"unknown NN backend {nn_backend!r}; choose from {NN_BACKENDS}")

    def _restore(self, results: List[SequencedResult]) -> None:
        if self.labels is None:
            raise QueryError("route restoration requires the in-memory label index")
        for item in results:
            cost, vertices = self.labels.restore_witness_route(item.witness.vertices)
            item.route = Route(tuple(vertices), cost, item.witness)
