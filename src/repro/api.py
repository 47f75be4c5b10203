"""Typed query request/response objects — the public serving API.

Historically every query entry point (``KOSREngine.query``/``run``,
``QueryService.run``/``run_batch``, ``execute_plan``) copied the same
bundle of eight keyword arguments, and the copies drifted (``query``
silently dropped ``strict_budget``).  This module replaces the bundle
with two small value objects:

* :class:`QueryOptions` — *how* to answer: method, NN backend, budgets,
  strictness, route restoration, profiling.  Frozen, hashable, with the
  defaults defined exactly once; every entry point builds or receives
  one, so an option cannot be dropped on the way down.
* :class:`QueryRequest` — *what* to answer: a validated
  :class:`~repro.core.query.KOSRQuery` plus its options.  Requests are
  hashable value objects whose :attr:`~QueryRequest.key` is the
  canonical coalescing identity used by the async serving front-end
  (:mod:`repro.server`): two requests with equal keys must produce the
  same answer within one index epoch, so one plan execution can serve
  both.

The response type stays :class:`~repro.core.engine.KOSRResult` (answer
set + ``QueryStats``) — it already carries everything a response needs.

Contract: the coalescing identity
---------------------------------

:attr:`QueryRequest.key` is the *only* notion of request equality the
serving stack may coalesce on, and it is deliberately strict: the full
``(s, t, C, k)`` tuple plus every execution option.  Soundness comes
from the service layer's epoch semantics (within one index epoch,
identical requests produce bit-identical results and counters — see
:mod:`repro.service`); anything looser (ignoring ``profile``, say)
would hand one caller another caller's observably different answer.
The same strictness makes keys safe across process boundaries: the
sharded workers (:mod:`repro.shard`) receive the frozen
``(KOSRQuery, QueryOptions)`` pair by pickle and can never drift from
the in-process interpretation.

``KOSREngine.query(source, target, categories, ...)`` keeps its keyword
sugar (it is the documented one-liner and builds a :class:`QueryOptions`
internally), and also accepts ``options=``; every other entry point
takes the options object only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.core.query import KOSRQuery
from repro.exceptions import QueryError
from repro.types import CategoryId, Vertex

__all__ = ["DEFAULT_OPTIONS", "QueryOptions", "QueryRequest"]


@dataclass(frozen=True)
class QueryOptions:
    """Execution options for one KOSR query (frozen value object).

    ``method`` / ``nn_backend`` pick the algorithm and NN oracle (the
    vocabulary lives in :mod:`repro.service.planner`; unknown names are
    rejected by :meth:`plan_for` exactly as before).  ``budget`` caps
    examined routes, ``time_budget_s`` caps wall time; ``strict_budget``
    escalates either guard into
    :class:`~repro.exceptions.BudgetExceededError` instead of a partial
    result.  ``restore_routes`` materialises witness routes;
    ``profile`` opts into the Table X per-operation timers.
    """

    method: str = "SK"
    nn_backend: str = "label"
    budget: Optional[int] = None
    time_budget_s: Optional[float] = None
    restore_routes: bool = False
    strict_budget: bool = False
    profile: bool = False

    def __post_init__(self):
        if self.budget is not None and self.budget < 0:
            raise QueryError(f"budget must be >= 0, got {self.budget}")
        # ``not >=`` so that NaN, which compares false, is rejected too
        if self.time_budget_s is not None and not self.time_budget_s >= 0:
            raise QueryError(
                f"time_budget_s must be >= 0, got {self.time_budget_s}")

    def replace(self, **changes) -> "QueryOptions":
        """A copy with ``changes`` applied (options are immutable)."""
        return replace(self, **changes)

    def plan_for(self):
        """The :class:`~repro.service.planner.MethodSpec` row these
        options select (what routing and admission read).

        This is the single validation point for the method / NN-backend
        vocabulary (raises :class:`~repro.exceptions.QueryError` on
        unknown names); :func:`~repro.service.execution.execute_plan`
        resolves the same row itself.
        """
        from repro.service.planner import resolve_plan

        return resolve_plan(self.method, self.nn_backend)


#: The library-wide defaults, defined once.
DEFAULT_OPTIONS = QueryOptions()


def require_options(options) -> QueryOptions:
    """``options`` itself, or a ``TypeError`` when it is not a
    :class:`QueryOptions`: ``run(q, "PK")`` has to fail at the call,
    naming the fix, not as an ``AttributeError`` inside the planner."""
    if not isinstance(options, QueryOptions):
        raise TypeError(
            f"options must be a QueryOptions, got {type(options).__name__} "
            f"({options!r}); pass QueryOptions(method=...)")
    return options


@dataclass(frozen=True)
class QueryRequest:
    """One serving-layer request: a validated query plus its options.

    Requests are frozen and hashable, so they key coalescing maps
    directly.  Build the query with ``engine.make_query(...)`` (which
    validates against the graph) or any :class:`KOSRQuery` constructor.
    """

    query: KOSRQuery
    options: QueryOptions = DEFAULT_OPTIONS

    @property
    def key(self) -> Tuple[Vertex, Vertex, Tuple[CategoryId, ...], int,
                           QueryOptions]:
        """Canonical coalescing identity: ``(s, t, C, k)`` + options.

        Within one index epoch, equal keys are guaranteed to produce
        byte-identical results, so the async front-end answers all
        concurrent holders of a key from one plan execution.
        """
        q = self.query
        return (q.source, q.target, q.categories, q.k, self.options)
