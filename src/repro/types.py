"""Shared primitive types for the KOSR reproduction.

The paper (Definitions 1-5) works with directed weighted graphs whose
vertices carry *categories* and with *witnesses*: sequences of category
representatives whose cost is the sum of shortest-path distances between
consecutive vertices.  This module defines the small value types that every
other package builds on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

#: Vertices are dense non-negative integers; graph builders remap arbitrary
#: identifiers onto this range.
Vertex = int

#: Category identifiers are small integers managed by :class:`repro.graph.Graph`.
CategoryId = int

#: Edge weights / route costs.  Non-negative floats; ``INFINITY`` denotes
#: "unreachable".
Cost = float

#: Sentinel cost for unreachable pairs.
INFINITY: Cost = math.inf


@dataclass(frozen=True)
class Witness:
    """A (partial or complete) witness ``⟨s, v1, ..., vi⟩`` (Definition 4).

    ``vertices[0]`` is the query source; ``vertices[i]`` for ``i >= 1`` is the
    chosen representative of the ``i``-th category of the query's category
    sequence (with the destination occupying the final dummy category).

    ``cost`` is the sum of shortest-path distances between consecutive
    witness vertices, *not* the number of edges of any underlying route.
    """

    vertices: Tuple[Vertex, ...]
    cost: Cost

    @property
    def last(self) -> Vertex:
        """The most recently appended vertex."""
        return self.vertices[-1]

    @property
    def size(self) -> int:
        """Number of vertices in the witness (``|P|`` in the paper)."""
        return len(self.vertices)

    def extend(self, vertex: Vertex, leg_cost: Cost) -> "Witness":
        """Return a new witness with ``vertex`` appended.

        ``leg_cost`` is ``dis(self.last, vertex)``.
        """
        return Witness(self.vertices + (vertex,), self.cost + leg_cost)

    def replace_last(self, vertex: Vertex, prefix_cost: Cost, leg_cost: Cost) -> "Witness":
        """Return a sibling witness whose final vertex is swapped.

        Implements the PNE "candidate route" derivation: the prefix
        ``⟨v0..v_{q-1}⟩`` is kept and extended via another neighbor in the
        same category.  ``prefix_cost`` is the cost of the prefix witness and
        ``leg_cost`` is ``dis(v_{q-1}, vertex)``.
        """
        prefix = self.vertices[:-1]
        if not prefix:
            raise ValueError("cannot replace the source of a witness")
        return Witness(prefix + (vertex,), prefix_cost + leg_cost)


@dataclass(frozen=True)
class Route:
    """A fully materialised route (Definition 2): consecutive vertices are
    connected by graph edges.

    Produced by restoring a witness through
    :meth:`repro.labeling.PackedLabelIndex.path` or Dijkstra parents.
    """

    vertices: Tuple[Vertex, ...]
    cost: Cost
    #: The witness this route realises, if it was restored from one.
    witness: Optional[Witness] = None

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass
class SequencedResult:
    """One entry of a KOSR answer set: a witness plus optional restored route."""

    witness: Witness
    route: Optional[Route] = None

    @property
    def cost(self) -> Cost:
        return self.witness.cost


def is_strictly_sorted(costs: Sequence[Cost]) -> bool:
    """True when ``costs`` is non-decreasing (top-k answer sets must be)."""
    return all(a <= b for a, b in zip(costs, costs[1:]))
