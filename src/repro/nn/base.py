"""The nearest-neighbor oracle interface shared by all KOSR algorithms.

An oracle answers ``find`` (the x-th nearest member of a category) and
``distance``.  The two per-query entry points the query runtime calls —
``make_dest_distance(target)`` and ``make_estimated(estimate, ...)`` —
have defaults here over those two, so a finder defines them only to
specialise (the packed finder's ``Lin(t)`` kernel and fused FindNEN, the
session view's shared kernel and retained streams); nothing probes for
them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Tuple

from repro.types import CategoryId, Cost, Vertex


class NearestNeighborFinder(ABC):
    """Answers x-th-nearest-member queries and point-to-point distances.

    ``queries`` counts *executed* nearest-neighbor computations; repeated
    requests served from a cursor's already-found list (the paper's ``NL``
    hits) are excluded, matching the evaluation criteria of Sec. V-A.
    """

    def __init__(self) -> None:
        self.queries: int = 0

    @abstractmethod
    def find(
        self, source: Vertex, category: CategoryId, x: int
    ) -> Optional[Tuple[Vertex, Cost]]:
        """The ``x``-th (1-based) nearest member of ``category`` from ``source``.

        Returns ``(vertex, dis(source, vertex))`` or ``None`` when the
        category has fewer than ``x`` reachable members.
        """

    @abstractmethod
    def distance(self, s: Vertex, t: Vertex) -> Cost:
        """``dis(s, t)`` (used for the destination leg and the A* heuristic)."""

    def make_dest_distance(self, target: Vertex) -> Callable[[Vertex], Cost]:
        """``dis(·, target)`` for one fixed target (the destination leg
        and the A* heuristic of one query).  Subclasses may return a
        kernel specialised for the target; the default closes over
        :meth:`distance`."""
        distance = self.distance
        return lambda v: distance(v, target)

    def make_estimated(self, estimate, cache=None, target=None):
        """A FindNEN (Algorithm 4) view over this oracle.

        Returns an object answering ``find(source, category, x) ->
        (member, leg, leg + estimate(member)) | None`` and ``booked()``
        (see :mod:`repro.nn.estimated`).  ``cache`` may pass the caller's
        ``estimate`` memo (vertex -> estimate) so implementations can skip
        the call for already-known vertices.  ``target``, when given,
        states that ``estimate`` is ``dis(·, target)``; a session-backed
        finder then serves the streams it keeps for that target.
        Subclasses may return a fused implementation; the default wraps
        the generic :class:`~repro.nn.estimated.EstimatedNNFinder`.
        """
        from repro.nn.estimated import EstimatedNNFinder

        return EstimatedNNFinder(self, estimate, cache)

    def reset_stats(self) -> None:
        self.queries = 0
