"""Nearest-neighbor-in-category oracles.

Every KOSR algorithm extends partial witnesses through an oracle answering
"the x-th nearest member of category ``Ci`` from vertex ``v``"
(:class:`~repro.nn.base.NearestNeighborFinder`: ``find``, ``distance``,
and the per-query ``make_dest_distance`` / ``make_estimated`` every
oracle answers, by default or specialised).  Two oracles are provided:

* :class:`~repro.nn.label_nn.PackedLabelNNFinder` — the paper's FindNN
  (Algorithm 3) over the packed RPLI-section indexes: what every engine
  serves from, and SK-DB's finder over the saved file;
* :class:`~repro.nn.dijkstra_nn.DijkstraNNFinder` — graph-search oracle
  behind the ``*-Dij`` variants (restart or resumable mode);

and FindNEN (Algorithm 4, :mod:`repro.nn.estimated`), which orders an
oracle's neighbors by ``dis(v, u) + dis(u, t)`` for StarKOSR: fused onto
the packed finder's cursors (``EstStream``), and as the generic wrapper
:class:`~repro.nn.estimated.EstimatedNNFinder` over any other oracle.
"""

from repro.nn.base import NearestNeighborFinder
from repro.nn.label_nn import PackedLabelNNFinder
from repro.nn.dijkstra_nn import DijkstraNNFinder
from repro.nn.estimated import EstimatedNNFinder

__all__ = [
    "NearestNeighborFinder",
    "PackedLabelNNFinder",
    "DijkstraNNFinder",
    "EstimatedNNFinder",
]
