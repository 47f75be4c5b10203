"""Nearest-neighbor-in-category oracles.

Every KOSR algorithm extends partial witnesses through an oracle answering
"the x-th nearest member of category ``Ci`` from vertex ``v``".  Three
implementations are provided:

* :class:`~repro.nn.label_nn.LabelNNFinder` — the paper's FindNN
  (Algorithm 3) over per-entry objects: SK-DB's finder and the tests'
  reference;
* :class:`~repro.nn.label_nn.PackedLabelNNFinder` — the same algorithm
  over the packed RPLI-section indexes (what every engine serves from);
* :class:`~repro.nn.estimated.EstimatedNNFinder` — FindNEN (Algorithm 4),
  ordering neighbors by ``dis(v, u) + dis(u, t)`` for StarKOSR;
* :class:`~repro.nn.dijkstra_nn.DijkstraNNFinder` — graph-search oracle
  behind the ``*-Dij`` variants (restart or resumable mode).
"""

from repro.nn.base import NearestNeighborFinder
from repro.nn.label_nn import LabelNNFinder, PackedLabelNNFinder
from repro.nn.dijkstra_nn import DijkstraNNFinder
from repro.nn.estimated import EstimatedNNFinder

__all__ = [
    "NearestNeighborFinder",
    "LabelNNFinder",
    "PackedLabelNNFinder",
    "DijkstraNNFinder",
    "EstimatedNNFinder",
]
