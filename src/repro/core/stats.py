"""Per-query and preprocessing statistics.

The paper evaluates three criteria (Sec. V-A): query run-time, number of
examined routes (witnesses popped from the priority queue), and number of
executed NN queries (FindNN invocations, NL-cache hits excluded).  Table X
additionally breaks run-time into NN time, priority-queue maintenance,
estimation time, and other.  :class:`QueryStats` carries all of them, plus
the per-level examined counts behind Fig. 5.

The Table X timers are *opt-in*: counters always populate, but the
per-operation :func:`repro.obs.clock.now` instrumentation in the search
and NN hot loops only runs when ``profile=True`` — two clock reads per
heap or oracle operation otherwise distort exactly the millisecond-scale gaps the
benchmarks exist to measure.  ``total_time`` and ``index_load_time`` are
measured once per query and stay populated in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class QueryStats:
    """Counters and timers collected during one KOSR query execution."""

    method: str = ""
    #: witnesses popped from the global priority queue
    examined_routes: int = 0
    #: witnesses pushed into the global priority queue
    generated_routes: int = 0
    #: executed NN computations (cache hits excluded)
    nn_queries: int = 0
    #: peak size of the global priority queue
    max_queue_size: int = 0
    #: examined routes by witness level (index 0 = the bare source route)
    per_level_examined: List[int] = field(default_factory=list)
    #: routes parked in dominated heaps instead of being extended
    dominated_routes: int = 0
    #: dominated routes re-added after a result completed
    reconsidered_routes: int = 0
    results_found: int = 0
    #: False when the examined-route budget was exhausted (paper: INF)
    completed: bool = True
    #: collect the per-operation Table X timers below (off by default:
    #: the hot loops then perform zero timer syscalls)
    profile: bool = False

    # --- Table X breakdown (seconds; populated only when ``profile``) ---
    nn_time: float = 0.0
    queue_time: float = 0.0
    estimation_time: float = 0.0
    index_load_time: float = 0.0
    total_time: float = 0.0

    @property
    def other_time(self) -> float:
        """Residual time outside NN / queue / estimation / index loading."""
        accounted = (
            self.nn_time + self.queue_time + self.estimation_time + self.index_load_time
        )
        return max(0.0, self.total_time - accounted)

    def bump_level(self, level: int) -> None:
        """Record one examined route whose witness ends at ``level``."""
        while len(self.per_level_examined) <= level:
            self.per_level_examined.append(0)
        self.per_level_examined[level] += 1

    def merge(self, other: "QueryStats") -> None:
        """Accumulate another run's counters (used for workload averages)."""
        self.examined_routes += other.examined_routes
        self.generated_routes += other.generated_routes
        self.nn_queries += other.nn_queries
        self.max_queue_size = max(self.max_queue_size, other.max_queue_size)
        self.dominated_routes += other.dominated_routes
        self.reconsidered_routes += other.reconsidered_routes
        self.results_found += other.results_found
        self.completed = self.completed and other.completed
        self.nn_time += other.nn_time
        self.queue_time += other.queue_time
        self.estimation_time += other.estimation_time
        self.index_load_time += other.index_load_time
        self.total_time += other.total_time
        for level, count in enumerate(other.per_level_examined):
            while len(self.per_level_examined) <= level:
                self.per_level_examined.append(0)
            self.per_level_examined[level] += count


@dataclass
class PreprocessingStats:
    """Table IX analogue: index construction cost and size."""

    graph_name: str = ""
    num_vertices: int = 0
    num_edges: int = 0
    label_build_seconds: float = 0.0
    avg_lin: float = 0.0
    avg_lout: float = 0.0
    label_entries: int = 0
    inverted_build_seconds: float = 0.0
    avg_il_per_category: float = 0.0
    avg_il_list_length: float = 0.0
    inverted_entries: int = 0

    #: rough bytes: one entry ≈ (hub rank + dist + parent) ≈ 20 bytes packed,
    #: matching the paper's index-size accounting rather than Python overhead.
    BYTES_PER_ENTRY = 20

    @property
    def label_bytes(self) -> int:
        return self.label_entries * self.BYTES_PER_ENTRY

    @property
    def inverted_bytes(self) -> int:
        return self.inverted_entries * self.BYTES_PER_ENTRY
