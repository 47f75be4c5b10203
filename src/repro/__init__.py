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
"""

from repro.types import (
    Cost,
    INFINITY,
    Route,
    SequencedResult,
    Vertex,
    Witness,
)
from repro.exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    EmptyCategoryError,
    GraphError,
    IndexBuildError,
    IndexStorageError,
    NegativeWeightError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
    ShardError,
    UnknownCategoryError,
    UnknownVertexError,
)
from repro.graph import Graph
from repro.core import (
    KOSREngine,
    KOSRResult,
    KOSRQuery,
    METHODS,
    NN_BACKENDS,
    PreprocessingStats,
    QueryStats,
    brute_force_kosr,
    gsp_osr,
    gsp_osr_ch,
    kpne,
    kosr_with_preferences,
    kosr_without_destination,
    kosr_without_source,
    pruning_kosr,
    star_kosr,
)
from repro.core.query import make_query
from repro.api import QueryOptions, QueryRequest
from repro.obs import MetricsRegistry, REGISTRY, merge_snapshots
from repro.service import BatchResult, QueryService
from repro.server import AsyncQueryService
from repro.shard import ShardedQueryService

__version__ = "1.0.0"

__all__ = [
    "Cost",
    "INFINITY",
    "Route",
    "SequencedResult",
    "Vertex",
    "Witness",
    "BudgetExceededError",
    "DeadlineExceededError",
    "EmptyCategoryError",
    "GraphError",
    "IndexBuildError",
    "IndexStorageError",
    "NegativeWeightError",
    "QueryError",
    "ReproError",
    "ServiceOverloadedError",
    "ShardError",
    "UnknownCategoryError",
    "UnknownVertexError",
    "Graph",
    "KOSREngine",
    "KOSRResult",
    "KOSRQuery",
    "METHODS",
    "NN_BACKENDS",
    "PreprocessingStats",
    "QueryStats",
    "brute_force_kosr",
    "gsp_osr",
    "gsp_osr_ch",
    "kpne",
    "kosr_with_preferences",
    "kosr_without_destination",
    "kosr_without_source",
    "pruning_kosr",
    "star_kosr",
    "make_query",
    "AsyncQueryService",
    "BatchResult",
    "MetricsRegistry",
    "REGISTRY",
    "merge_snapshots",
    "QueryOptions",
    "QueryRequest",
    "QueryService",
    "ShardedQueryService",
    "__version__",
]
