"""Query planning: the paper's methods as a table.

Algorithm 2 is one best-first skeleton
(:func:`~repro.core.search.sequenced_route_search`) whose methods differ
in two switches — dominance filtering (PruningKOSR, Sec. IV-A) and
A*-style estimation through FindNEN (StarKOSR, Sec. IV-B) — plus where
the index lives (SK-DB reads the saved file, Sec. IV-C); GSP is the
k = 1 dynamic program, optionally over a contraction hierarchy.  A
method is therefore a row of :data:`METHOD_TABLE`, not code:
:func:`~repro.service.execution.execute_plan` reads the row and calls
the search directly, and the shard router and admission read
``needs_finder`` / ``needs_ch`` from the same row.

This module owns the method / NN-oracle vocabulary; the engine re-exports
``METHODS`` / ``NN_BACKENDS``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import QueryError

#: NN oracle backends: "label" = FindNN over the inverted label index;
#: "dij-restart" = the paper's from-scratch Dijkstra (the ``*-Dij`` curves);
#: "dij-resume" = resumable Dijkstra cursors (ablation).
NN_BACKENDS = ("label", "dij-restart", "dij-resume")


@dataclass(frozen=True)
class MethodSpec:
    """One method of the paper, as the switches that define it.

    ``needs_finder`` — the method is the sequenced-route search over an
    NN oracle (and therefore takes a valid ``nn_backend``); its variant
    is ``use_dominance`` × ``estimated``, and ``index_file`` makes the
    oracle a fresh label finder over the saved index file instead of
    ``nn_backend``'s.  Without ``needs_finder`` the method is the GSP
    dynamic program, over the lazy contraction hierarchy when
    ``needs_ch``.
    """

    method: str
    needs_finder: bool = False
    use_dominance: bool = False
    estimated: bool = False
    index_file: bool = False
    needs_ch: bool = False


#: The paper's legend: KPNE (baseline), PK (PruningKOSR), SK (StarKOSR),
#: SK-NODOM (heuristic-only ablation), SK-DB (StarKOSR over the
#: disk-resident index file), GSP / GSP-CH (k = 1 only).
METHOD_TABLE = {spec.method: spec for spec in (
    MethodSpec("KPNE", needs_finder=True),
    MethodSpec("PK", needs_finder=True, use_dominance=True),
    MethodSpec("SK", needs_finder=True, use_dominance=True, estimated=True),
    MethodSpec("SK-NODOM", needs_finder=True, estimated=True),
    MethodSpec("SK-DB", needs_finder=True, use_dominance=True,
               estimated=True, index_file=True),
    MethodSpec("GSP"),
    MethodSpec("GSP-CH", needs_ch=True),
)}

#: Method identifiers, in the table's order.
METHODS = tuple(METHOD_TABLE)


@dataclass(frozen=True)
class QueryPlan:
    """A resolved execution plan for one ``(method, nn_backend)``.

    Plans are value objects: the same pair always resolves to an equal
    plan (the same object, for a vocabulary backend), so they can key
    caches and be shared across a batch.
    """

    method: str
    nn_backend: str
    spec: MethodSpec


_PLANS = {(method, nn_backend): QueryPlan(method, nn_backend, spec)
          for method, spec in METHOD_TABLE.items()
          for nn_backend in NN_BACKENDS}


def resolve_plan(method: str, nn_backend: str = "label") -> QueryPlan:
    """Resolve ``(method, nn_backend)`` into a :class:`QueryPlan`.

    Raises :class:`~repro.exceptions.QueryError` on an unknown method.
    ``nn_backend`` is validated only for methods that declare
    ``needs_finder``: GSP and friends ignore the oracle axis, so a
    free-form backend resolves to a fresh plan there.
    """
    plan = _PLANS.get((method, nn_backend))
    if plan is not None:
        return plan
    spec = METHOD_TABLE.get(method)
    if spec is None:
        raise QueryError(f"unknown method {method!r}; choose from {METHODS}")
    if spec.needs_finder:
        raise QueryError(
            f"unknown NN backend {nn_backend!r}; choose from {NN_BACKENDS}"
        )
    return QueryPlan(method, nn_backend, spec)
