"""Index assembly: packed labels → inverted indexes.

Every place that needs a queryable index — a fresh build, prebuilt
labels, an attached index file, a shard worker's category subset, a
fleet's staged edge update, a structure-update rebuild — goes through
:func:`assemble_index`, so "which labels, which categories, from the
file or built privately, with which compaction threshold" is decided in
one function.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, NamedTuple, Optional, Sequence

from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_index,
)
from repro.labeling.pll import build_labels_auto
from repro.types import CategoryId, Vertex


class AssembledIndex(NamedTuple):
    """What :func:`assemble_index` hands back (Table IX times included)."""

    labels: PackedLabelIndex
    inverted: Dict[CategoryId, PackedInvertedIndex]
    #: PLL build time; 0.0 when the labels were supplied
    label_seconds: float
    inverted_seconds: float


def assemble_index(
    graph: Graph,
    labels=None,
    *,
    order: Optional[Sequence[Vertex]] = None,
    categories: Optional[Iterable[CategoryId]] = None,
    overlay_ratio: Optional[float] = None,
    index_file=None,
) -> AssembledIndex:
    """Assemble the label index and the inverted indexes of ``categories``.

    Labels come from ``index_file`` (an open
    :class:`~repro.labeling.mmap_index.MmapIndexFile`) when given, else
    from ``labels`` when given, else from a PLL build over ``graph`` in
    ``order``.  ``categories`` defaults to every category of the graph;
    each one is taken from ``index_file`` when the file stores it and
    built privately from ``graph`` + the labels otherwise.
    ``overlay_ratio`` overrides the per-category compaction threshold.
    """
    built = labels is None and index_file is None
    t0 = perf_counter()
    if index_file is not None:
        labels = index_file.labels
    elif built:
        labels = build_labels_auto(graph, order)
    t1 = perf_counter()
    if categories is None:
        categories = range(graph.num_categories)
    inverted: Dict[CategoryId, PackedInvertedIndex] = {}
    for cid in categories:
        if index_file is not None and index_file.has_category(cid):
            il = index_file.inverted_view(cid)
        else:
            il = build_packed_inverted_index(graph, labels, cid)
        if overlay_ratio is not None:
            il.overlay_ratio = overlay_ratio
        inverted[cid] = il
    return AssembledIndex(labels, inverted, t1 - t0 if built else 0.0,
                          perf_counter() - t1)
