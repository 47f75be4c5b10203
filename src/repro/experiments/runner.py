"""Workload execution and aggregation.

Runs one (method, NN backend) pair over a workload, applying the paper's
INF convention: a query that exhausts its examined-route budget or wall
deadline counts as unfinished, and a setting whose queries did not all
finish reports INF for run-time (matching the bars that hit the INF line
in Figs. 3, 4, 6, 7).
"""

from __future__ import annotations

import atexit
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.api import QueryOptions
from repro.core.engine import KOSREngine
from repro.core.stats import QueryStats
from repro.experiments.workload import Workload

#: INF marker used in reports (the paper's "did not finish in 3,600 s").
INF = math.inf

#: Default per-query guards for the scaled benchmarks.
DEFAULT_EXAMINED_BUDGET = 100_000
DEFAULT_TIME_BUDGET_S = 5.0

#: Bar legend: label -> (engine method, NN backend).  The paper's seven
#: methods, Fig. 7's GSP baselines and the ablation's two extra bars.
METHOD_LEGEND: Dict[str, tuple] = {
    "KPNE-Dij": ("KPNE", "dij-restart"),
    "PK-Dij": ("PK", "dij-restart"),
    "SK-Dij": ("SK", "dij-restart"),
    "KPNE": ("KPNE", "label"),
    "PK": ("PK", "label"),
    "SK": ("SK", "label"),
    "SK-DB": ("SK-DB", "label"),
    "GSP": ("GSP", "label"),
    "GSP-CH": ("GSP-CH", "label"),
    "SK-NODOM": ("SK-NODOM", "label"),
    "PK-DijResume": ("PK", "dij-resume"),
}


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


@dataclass
class MethodAggregate:
    """Aggregated outcome of one method over one workload: ``totals``
    sums the queries' :class:`QueryStats` through :meth:`QueryStats.merge`
    (counters, per-level examined counts and the Table X timers)."""

    label: str
    num_queries: int = 0
    unfinished: int = 0
    totals: QueryStats = field(default_factory=QueryStats)

    @property
    def mean_time_ms(self) -> float:
        """Average query run-time in ms; INF when any query was unfinished."""
        if self.num_queries == 0:
            return INF
        if self.unfinished:
            return INF
        return 1000.0 * self.totals.total_time / self.num_queries

    @property
    def mean_examined(self) -> float:
        if self.num_queries == 0:
            return INF
        return self.totals.examined_routes / self.num_queries

    @property
    def mean_nn_queries(self) -> float:
        if self.num_queries == 0:
            return INF
        return self.totals.nn_queries / self.num_queries

    def add(self, stats: QueryStats) -> None:
        self.num_queries += 1
        if not stats.completed:
            self.unfinished += 1
        self.totals.merge(stats)


def run_workload(
    engine: KOSREngine,
    workload: Workload,
    label: str,
    budget: Optional[int] = DEFAULT_EXAMINED_BUDGET,
    time_budget_s: Optional[float] = DEFAULT_TIME_BUDGET_S,
    stop_after_first_unfinished: bool = True,
    profile: bool = False,
) -> MethodAggregate:
    """Execute ``workload`` with the method named by the legend ``label``.

    Every query runs over cold per-query state — the paper's measurement
    setup, which the figures must reproduce.

    With ``stop_after_first_unfinished`` (default) a workload whose first
    unfinished query already forces an INF report skips its remaining
    queries — the aggregate is INF either way, and the skip keeps the
    scaled bench suite's wall time bounded.

    ``profile`` opts into the per-operation Table X timers; leave it off
    (the default) for run-time comparisons so instrumentation does not
    distort the measured gaps.
    """
    method, nn_backend = METHOD_LEGEND[label]
    if method == "SK-DB" and engine._store is None:
        # SK-DB reads the engine's saved index file; save one once.
        fd, path = tempfile.mkstemp(prefix="repro_skdb_", suffix=".rpli")
        os.close(fd)
        atexit.register(_remove_quietly, path)
        engine.save_index(path)
    agg = MethodAggregate(label=label)
    options = QueryOptions(method=method, nn_backend=nn_backend, budget=budget,
                           time_budget_s=time_budget_s, profile=profile)
    for query in workload:
        result = engine.run(query, options)
        agg.add(result.stats)
        if agg.unfinished and stop_after_first_unfinished:
            break
    return agg
