"""The workload-serving query service.

:class:`QueryService` is the layer between the engine's indexes and the
algorithms that the ROADMAP's serving goals need: it plans queries
through the method table, keeps cross-query state warm in an
epoch-versioned :class:`~repro.service.cache.SessionCache`, and executes
whole workloads through :meth:`QueryService.run_batch`, which groups
queries by ``(target, categories)`` so groupmates share the per-target
``dis(·, t)`` kernel, the warm FindNN streams, and (for SK-DB) the
kept index-file attachment.

Warm reuse is *observably transparent*: answers and ``QueryStats``
counters are bit-identical to fresh single-query engines (see the
cold-equivalent accounting notes in :mod:`repro.service.cache`); only
wall time changes.  The service-parity and interleaved-update fuzz tests
pin this.

Every query runs over the service's one shared session, which
maximises cross-group finder reuse: batches run sequentially, and the
concurrent workload path
(:meth:`repro.server.async_service.AsyncQueryService.gather`) executes
one request at a time over the same session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import DEFAULT_OPTIONS, QueryOptions, require_options
from repro.core.query import KOSRQuery
from repro.obs import clock
from repro.obs.metrics import REGISTRY
from repro.service.cache import SessionCache
from repro.service.execution import execute_plan

#: batch groups are keyed by what warm state they can share
GroupKey = Tuple[int, Tuple[int, ...]]


@dataclass
class BatchResult:
    """Per-query results (input order) plus batch-level observability."""

    results: List  # List[KOSRResult], aligned with the input workload
    wall_time_s: float = 0.0
    num_groups: int = 0
    cache_stats: Dict[str, int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def unfinished(self) -> int:
        return sum(1 for r in self.results if not r.stats.completed)

    @property
    def total_nn_queries(self) -> int:
        return sum(r.stats.nn_queries for r in self.results)

    @property
    def queries_per_second(self) -> float:
        if self.wall_time_s <= 0.0:
            return float("inf")
        return len(self.results) / self.wall_time_s


class QueryService:
    """Planner + session cache + batch executor over one engine.

    ``max_dest_kernels`` / ``max_finders`` bound the session cache's two
    unbounded-within-an-epoch populations (per-target ``dis(·, t)``
    kernels and warm FindNN cursors) with LRU eviction; the limits also
    apply to every session :meth:`new_session` makes.
    """

    def __init__(self, engine, max_dest_kernels: Optional[int] = None,
                 max_finders: Optional[int] = None):
        self.engine = engine
        self.max_dest_kernels = max_dest_kernels
        self.max_finders = max_finders
        self.session = self.new_session()

    def new_session(self) -> SessionCache:
        """A fresh isolated session honouring this service's cache caps."""
        return SessionCache(self.engine, max_dest_kernels=self.max_dest_kernels,
                            max_finders=self.max_finders)

    # ------------------------------------------------------------------
    def run(
        self,
        q: KOSRQuery,
        options: QueryOptions = DEFAULT_OPTIONS,
        *,
        on_route=None,
    ):
        """Answer one query on the warm service path.

        Identical request/response contract to ``KOSREngine.run`` except
        that finders, ``dis(·, t)`` kernels, the CH, and SK-DB's
        index-file attachment are reused from the session cache when the
        index epoch allows it.

        ``on_route`` streams the answer: for the anytime methods
        (KPNE/PK/SK/SK-NODOM/SK-DB) it fires with each
        :class:`~repro.types.SequencedResult` the moment the search proves
        it final — before the next one is searched for.  All-at-end
        methods (the GSP family) have no incremental seam;
        :func:`~repro.service.execution.execute_plan` replays their
        results through the callback once the run completes, so callers
        always see exactly ``result.results`` in order.  Streamed objects
        are the same objects as the returned result's; route restoration
        (``options.restore_routes``) happens only after the run, so an
        anytime method's in-flight records carry the witness and cost.
        """
        require_options(options)
        session = self.session
        session.validate()
        return execute_plan(self.engine, q, options, resources=session,
                            on_result=on_route)

    # ------------------------------------------------------------------
    @staticmethod
    def group_queries(queries: Sequence[KOSRQuery]) -> Dict[GroupKey, List[int]]:
        """Input indexes grouped by ``(target, categories)``.

        Groupmates share the most expensive warm state: the per-target
        destination kernel and (for SK-DB) the attached categories.
        Insertion order is preserved within each group.
        """
        groups: Dict[GroupKey, List[int]] = {}
        for i, q in enumerate(queries):
            groups.setdefault((q.target, q.categories), []).append(i)
        return groups

    def run_batch(
        self,
        queries: Sequence[KOSRQuery],
        options: QueryOptions = DEFAULT_OPTIONS,
    ) -> BatchResult:
        """Execute a workload, sharing warm state between groupmates.

        ``options`` applies to every query of the batch.  Groups run one
        after another over the service's shared session; results come
        back aligned with the input order regardless of the grouping.
        """
        queries = list(queries)
        groups = self.group_queries(queries)
        results: List = [None] * len(queries)
        t0 = clock.now()
        before = self.cache_stats()
        for indexes in groups.values():
            for i in indexes:
                results[i] = self.run(queries[i], options)
        # Session stats accumulate across batches; report this batch's
        # contribution so BatchResult stands on its own.
        cache_stats = {name: value - before[name] for name, value
                       in self.cache_stats().items()}
        return BatchResult(
            results=results,
            wall_time_s=clock.now() - t0,
            num_groups=len(groups),
            cache_stats=cache_stats,
        )

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """The session's cache counters (what ``{"stats": true}`` reports)."""
        return self.session.stats.as_dict()

    def metrics_snapshot(self, *, shard: Optional[int] = None,
                         owned: Optional[Sequence] = None) -> dict:
        """The process registry's snapshot, this service's state sampled in.

        Sets ``repro_cache_<name>_total`` from the session's
        :class:`~repro.service.cache.CacheStats`, the warm-population
        gauges, ``repro_index_epoch`` (labelled ``shard`` when given) and
        one ``repro_category_version`` gauge per category — only the
        ``owned`` ones when given, because a fleet merge adds gauges and
        each category must come from exactly one worker, its owner.
        Totals, not deltas: a process holds one serving session (the
        front door's, or a shard worker's), so they are its counts.
        """
        if REGISTRY.enabled:
            REGISTRY.sample_totals("repro_cache_", self.cache_stats())
            for name, value in self.session.populations().items():
                REGISTRY.gauge(f"repro_cache_{name}").set(value)
            engine = self.engine
            labels = {} if shard is None else {"shard": shard}
            REGISTRY.gauge("repro_index_epoch",
                           **labels).set(engine.index_epoch)
            versions = engine.category_versions()
            for cid in versions if owned is None else owned:
                if cid in versions:
                    REGISTRY.gauge("repro_category_version",
                                   category=cid).set(versions[cid])
        return REGISTRY.snapshot()

    def index_memory(self) -> Dict[str, object]:
        """Index memory accounting of the backing engine (see
        :meth:`~repro.core.engine.KOSREngine.index_memory`)."""
        return self.engine.index_memory()

    def epoch_info(self) -> Dict[str, object]:
        """The engine's epoch/version counters (operator-facing).

        What the TCP ``{"stats": true}`` reply surfaces so an operator
        can watch updates land: the composite ``index_epoch`` session
        caches validate against, its wholesale-change ``epoch_base``
        component, and the per-category ``version`` counters whose
        individual movement drives partial invalidation.
        """
        engine = self.engine
        return {
            "index_epoch": engine.index_epoch,
            "epoch_base": engine.epoch_base,
            "category_versions": engine.category_versions(),
        }
