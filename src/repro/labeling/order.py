"""Vertex orderings for pruned landmark labeling.

Label size is extremely sensitive to the hub order; processing
high-centrality vertices first lets their searches prune almost everything
later.  Degree order is the cheap, effective default used by Akiba et al.
"""

from __future__ import annotations

from typing import List

from repro.graph.graph import Graph
from repro.types import Vertex


def degree_order(graph: Graph) -> List[Vertex]:
    """Vertices by decreasing total degree (ties by id for determinism)."""
    return sorted(range(graph.num_vertices), key=lambda v: (-graph.degree(v), v))

