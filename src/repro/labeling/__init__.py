"""2-hop / hub labeling substrate (Sec. IV-A of the paper).

* :mod:`repro.labeling.pll` — pruned landmark labeling construction
  (Akiba et al., SIGMOD 2013), extended to directed weighted graphs with
  pruned Dijkstra searches; one columnar search writes the packed
  sections' columns directly.  :func:`build_labels_auto` is the one
  builder entry point: it picks the frontier from the weights (BFS on
  unit weights, Dijkstra otherwise), and the hub order is chosen inside
  it — no layer above takes an order.
* :mod:`repro.labeling.order` — that choice, :func:`hub_order`: the
  iterative tree-descendant order (:func:`tree_order`, sampled
  shortest-path trees with a constant seed) on weighted graphs, where it
  cuts label entries by about a third; :func:`degree_order` on unit
  weights, where the tree order does not pay.
* :mod:`repro.labeling.packed` / :mod:`repro.labeling.packed_inverted` —
  the label index (``Lin``/``Lout``, merge-join distance queries,
  actual-route restoration via parent pointers) and the paper's
  per-category inverted label index ``IL(Ci)`` that makes FindNN
  incremental, in the one representation every engine serves from: the
  RPLI v2 section layout, as typed views over a private buffer (fresh
  build) or over a read-only ``mmap`` of a saved index file
  (:mod:`repro.labeling.mmap_index`: build once, attach from any number
  of processes, share one physical copy through the OS page cache).
  The saved file is also the one persisted form: SK-DB reads it per query.
  It has one writer, :func:`write_index_file`, and one reader,
  :meth:`MmapIndexFile.open`; :class:`IndexFileLayout` validates it.
  The per-entry object form these are tested against lives with the
  tests (``tests/reference_{labels,inverted,nn,pll}.py``).
* :mod:`repro.labeling.assembly` — :func:`assemble_index`, the one
  "packed labels → inverted" function behind every engine constructor.
* :mod:`repro.labeling.updates` — dynamic category/structure updates
  (Sec. IV-C): a category update edits the hub runs it touches, with
  threshold compaction; a structure update rebuilds the labels.
"""

from repro.labeling.order import (
    degree_order,
    graph_is_unit_weight,
    hub_order,
    tree_order,
)
from repro.labeling.pll import build_labels_auto
from repro.labeling.mmap_index import MmapIndexFile
from repro.labeling.packed import (
    IndexFileLayout,
    PackedLabelIndex,
    write_index_file,
)
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_index,
)
from repro.labeling.assembly import AssembledIndex, assemble_index
from repro.labeling.updates import (
    add_vertex_to_category,
    remove_vertex_from_category,
)

__all__ = [
    "degree_order",
    "tree_order",
    "hub_order",
    "graph_is_unit_weight",
    "build_labels_auto",
    "PackedLabelIndex",
    "PackedInvertedIndex",
    "MmapIndexFile",
    "IndexFileLayout",
    "write_index_file",
    "build_packed_inverted_index",
    "AssembledIndex",
    "assemble_index",
    "add_vertex_to_category",
    "remove_vertex_from_category",
]
