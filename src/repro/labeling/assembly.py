"""Index assembly: packed labels → inverted indexes.

Every place that needs a queryable index — a fresh build, prebuilt
labels, an attached index file, a shard worker's category subset, a
structure-update rebuild — goes through
:func:`assemble_index`, so "which labels, which categories, from the
file or built privately" is decided in one function.
"""

from __future__ import annotations

from typing import Dict, Iterable, NamedTuple, Optional

from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_index,
)
from repro.labeling.pll import build_labels_auto
from repro.types import CategoryId


class AssembledIndex(NamedTuple):
    """What :func:`assemble_index` hands back."""

    labels: PackedLabelIndex
    inverted: Dict[CategoryId, PackedInvertedIndex]


def assemble_index(
    graph: Graph,
    labels=None,
    *,
    categories: Optional[Iterable[CategoryId]] = None,
    index_file=None,
) -> AssembledIndex:
    """Assemble the label index and the inverted indexes of ``categories``.

    Labels come from ``index_file`` (an open
    :class:`~repro.labeling.mmap_index.MmapIndexFile`) when given, else
    from ``labels`` when given, else from a PLL build over ``graph``
    (:func:`~repro.labeling.pll.build_labels_auto`, which chooses the
    hub order).  ``categories`` defaults to every category of the graph;
    each one is taken from ``index_file`` when the file stores it and
    built privately from ``graph`` + the labels otherwise.  It reads no
    clock: the engine times its Table IX build steps around it.
    """
    if index_file is not None:
        labels = index_file.labels
    elif labels is None:
        labels = build_labels_auto(graph)
    if categories is None:
        categories = range(graph.num_categories)
    inverted: Dict[CategoryId, PackedInvertedIndex] = {}
    for cid in categories:
        if index_file is not None and index_file.has_category(cid):
            inverted[cid] = index_file.inverted_view(cid)
        else:
            inverted[cid] = build_packed_inverted_index(graph, labels, cid)
    return AssembledIndex(labels, inverted)
