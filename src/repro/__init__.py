"""repro — reproduction of "Finding Top-k Optimal Sequenced Routes" (ICDE 2018).

Public API tour:

* :class:`repro.graph.Graph` — directed weighted graphs with vertex
  categories (Definition 1), plus builders/generators/IO in
  :mod:`repro.graph`;
* :class:`repro.core.KOSREngine` — build hub-label indexes once, answer
  KOSR/OSR queries with any of the paper's methods (KPNE, PK, SK, SK-DB,
  GSP) over any NN backend;
* :mod:`repro.core.variants` — no-source / no-destination / preference
  variants;
* :mod:`repro.experiments` — the full Sec. V evaluation harness;
* serving layers (see ``docs/serving.md``): :class:`QueryService`
  (warm batches), :class:`AsyncQueryService` (coalescing asyncio front
  door + TCP face), :class:`ShardedQueryService` (category-partitioned
  worker processes) — all bit-identical to cold single-query runs;
* :mod:`repro.obs` — the dependency-free metrics registry
  (:data:`~repro.obs.REGISTRY`) every serving layer instruments into;
  disabled by default, fleet-mergeable snapshots when on (see
  ``docs/observability.md``).

Every name below resolves on first use: ``import repro`` loads no
submodule, and ``from repro import X`` imports only the module that
defines ``X`` (and what that module imports).  A serving process thus
never loads the figure harness, the fleet or GSP unless it uses them
(``docs/architecture.md`` lists what each entry point imports).
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.types": ("Cost", "INFINITY", "Route", "SequencedResult", "Vertex",
                    "Witness"),
    "repro.exceptions": (
        "BudgetExceededError", "DeadlineExceededError", "EmptyCategoryError",
        "GraphError", "IndexBuildError", "IndexStorageError",
        "NegativeWeightError", "QueryError", "ReproError",
        "ServiceOverloadedError", "ShardError", "UnknownCategoryError",
        "UnknownVertexError"),
    "repro.graph.graph": ("Graph",),
    "repro.core.engine": ("KOSREngine", "KOSRResult"),
    "repro.service.planner": ("METHODS", "NN_BACKENDS"),
    "repro.core.query": ("KOSRQuery", "make_query"),
    "repro.core.stats": ("PreprocessingStats", "QueryStats"),
    "repro.core.brute": ("brute_force_kosr",),
    "repro.core.gsp": ("gsp_osr", "gsp_osr_ch"),
    "repro.core.variants": ("kosr_with_preferences",
                            "kosr_without_destination",
                            "kosr_without_source"),
    "repro.api": ("QueryOptions", "QueryRequest"),
    "repro.obs.metrics": ("MetricsRegistry", "REGISTRY", "merge_snapshots"),
    "repro.service.service": ("BatchResult", "QueryService"),
    "repro.server.async_service": ("AsyncQueryService",),
    "repro.shard.service": ("ShardedQueryService",),
})
__all__.append("__version__")
