"""Per-query runtime context shared by the KOSR algorithms.

Bridges a query, a nearest-neighbor oracle, and a :class:`QueryStats`:

* maps witness *levels* onto category ids, treating level ``|C| + 1`` as
  the dummy destination category ``{t}``;
* caches ``dis(v, t)`` — the admissible StarKOSR estimate — per vertex;
* optionally routes every oracle call through timers so Table X's
  breakdown falls out of normal execution.

There is one set of accessors — ``heuristic`` / ``nearest`` /
``nearest_estimated``, closures built once in ``__init__`` over the
query constants and the oracle's entry points.  Instrumentation is a
wrap, not a fork: when ``stats.profile`` is set those same closures go
behind :func:`table_x_timer`, so a profiled run executes exactly the
code an unprofiled one does (the fused FindNEN included) and an
unprofiled one makes **zero timer syscalls**.  NN-query *counts* are
collected in both modes (they live on the oracle, not in timers).

FindNEN is whatever the oracle's ``make_estimated`` returns (see
:mod:`repro.nn.estimated`): over a packed finder, a record over
:class:`~repro.nn.estimated.EstStream` s — fresh ones on the cold path,
the session's retained ones on the warm path — that only remembers the
largest ``x`` asked of each.  :meth:`QueryRuntime.finalize_counters`
books ``nn_queries`` from those positions (the attempts a cold FindNEN
would have made, plus the number of *distinct* vertices whose
``dis(·, t)`` this query demanded, directly or through a stream), so
the counter is the cold run's whether a stream was produced by this
query or read back, and also when a budget stops the search early.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.query import KOSRQuery
from repro.core.stats import QueryStats
from repro.nn.base import NearestNeighborFinder
from repro.obs import clock
from repro.types import Cost, INFINITY, Vertex


def table_x_timer(stats: QueryStats, bucket: str, op: Callable) -> Callable:
    """``op`` behind the Table-X timer of ``stats.<bucket>``.

    Each call adds its elapsed time to the bucket, less what calls nested
    inside it booked as estimation time meanwhile: FindNEN takes its
    estimates through the timed heuristic, and that share is estimation,
    not NN time.
    """
    seconds = vars(stats)  # the dataclass's fields: bucket -> seconds

    def timed_op(*args):
        nested = seconds["estimation_time"]
        t0 = clock.now()
        try:
            return op(*args)
        finally:
            seconds[bucket] += (clock.now() - t0
                                - (seconds["estimation_time"] - nested))

    return timed_op


class QueryRuntime:
    """Level-aware NN access with statistics accounting.

    * ``heuristic(v)`` — the admissible completion estimate ``dis(v, t)``
      (Sec. IV-B);
    * ``nearest(v, level, x)`` — the ``x``-th nearest neighbor of ``v`` at
      ``level`` (1-based) as ``(u, leg)`` or ``None``.  Level
      ``num_levels`` is the destination: only ``x = 1`` exists and the
      answer is ``(t, dis(v, t))``;
    * ``nearest_estimated(v, level, x)`` — the ``x``-th nearest
      *estimated* neighbor (StarKOSR, Algorithm 4) as ``(u, leg, leg +
      dis(u, t))`` or ``None``; a ``RuntimeError`` on a runtime built
      without ``estimated``.
    """

    def __init__(
        self,
        query: KOSRQuery,
        finder: NearestNeighborFinder,
        stats: QueryStats,
        estimated: bool = False,
    ):
        self.query = query
        self.stats = stats
        self.num_levels = num_levels = query.num_levels
        self._finder = finder
        #: dis(v, t) of every vertex this query asked about itself
        self._dest_cache: Dict[Vertex, Cost] = {}
        self._est_finder = None
        cats = query.categories
        target = query.target
        # dis(·, t) kernel: finders may specialise it for the fixed target
        # (the packed finder probes Lin(t) as a dict instead of merging).
        dest_fn = finder.make_dest_distance(target)
        dest_cache = self._dest_cache
        cache_get = dest_cache.get
        finder_find = finder.find

        def dest(v: Vertex) -> Cost:
            d = cache_get(v)
            if d is None:
                d = dest_cache[v] = dest_fn(v)
            return d

        # The destination leg of ``nearest`` reads the untimed memo: for
        # PK it is a leg like any other, not an estimate.
        heuristic = (table_x_timer(stats, "estimation_time", dest)
                     if stats.profile else dest)

        def nearest(v: Vertex, level: int, x: int):
            if level == num_levels:
                if x > 1:
                    return None
                d = dest(v)
                return (target, d) if d != INFINITY else None
            return finder_find(v, cats[level - 1], x)

        if estimated:
            # The dest-distance memo is shared so cached estimates need
            # no call.
            self._est_finder = finder.make_estimated(
                heuristic, dest_cache, target)
            est_find = self._est_finder.find

            def nearest_estimated(v: Vertex, level: int, x: int):
                if level == num_levels:
                    if x > 1:
                        return None
                    d = heuristic(v)
                    return (target, d, d) if d != INFINITY else None
                return est_find(v, cats[level - 1], x)
        else:
            def nearest_estimated(v: Vertex, level: int, x: int):
                raise RuntimeError(
                    "runtime was not built with estimation enabled")

        if stats.profile:
            nearest = table_x_timer(stats, "nn_time", nearest)
            nearest_estimated = table_x_timer(stats, "nn_time",
                                              nearest_estimated)
        self.heuristic = heuristic
        self.nearest = nearest
        self.nearest_estimated = nearest_estimated

    def finalize_counters(self) -> None:
        """Fold oracle-level counters into the stats object.

        ``nn_queries`` is the plain-NN computations plus the distinct
        ``dis(·, t)`` evaluations of this query.  FindNEN adds what it
        booked from stream positions (see the module docstring); its
        demanded vertices overlap the runtime's own, hence the set.
        """
        est = self._est_finder
        attempts, demanded = est.booked() if est is not None else (0, set())
        demanded.update(self._dest_cache)
        self.stats.nn_queries = self._finder.queries + attempts + len(demanded)
