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
from typing import Dict, List, Optional

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
    """Aggregated outcome of one method over one workload."""

    label: str
    num_queries: int = 0
    unfinished: int = 0
    total_time_s: float = 0.0
    total_examined: int = 0
    total_nn_queries: int = 0
    per_level_examined: List[int] = field(default_factory=list)
    #: summed Table X components (seconds)
    nn_time_s: float = 0.0
    queue_time_s: float = 0.0
    estimation_time_s: float = 0.0
    index_load_time_s: float = 0.0

    @property
    def mean_time_ms(self) -> float:
        """Average query run-time in ms; INF when any query was unfinished."""
        if self.num_queries == 0:
            return INF
        if self.unfinished:
            return INF
        return 1000.0 * self.total_time_s / self.num_queries

    @property
    def mean_examined(self) -> float:
        if self.num_queries == 0:
            return INF
        return self.total_examined / self.num_queries

    @property
    def mean_nn_queries(self) -> float:
        if self.num_queries == 0:
            return INF
        return self.total_nn_queries / self.num_queries

    def add(self, stats: QueryStats) -> None:
        self.num_queries += 1
        if not stats.completed:
            self.unfinished += 1
        self.total_time_s += stats.total_time
        self.total_examined += stats.examined_routes
        self.total_nn_queries += stats.nn_queries
        self.nn_time_s += stats.nn_time
        self.queue_time_s += stats.queue_time
        self.estimation_time_s += stats.estimation_time
        self.index_load_time_s += stats.index_load_time
        for level, count in enumerate(stats.per_level_examined):
            while len(self.per_level_examined) <= level:
                self.per_level_examined.append(0)
            self.per_level_examined[level] += count


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
