"""2-hop / hub labeling substrate (Sec. IV-A of the paper).

* :mod:`repro.labeling.pll` — pruned landmark labeling construction
  (Akiba et al., SIGMOD 2013), extended to directed weighted graphs with
  pruned Dijkstra searches; one columnar search writes the packed
  sections' columns directly.
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
  The per-entry object form these are tested against lives with the
  tests (``tests/reference_{labels,inverted,nn,pll}.py``).
* :mod:`repro.labeling.assembly` — :func:`assemble_index`, the one
  "packed labels → inverted" function behind every engine constructor.
* :mod:`repro.labeling.updates` — dynamic category/structure updates
  (Sec. IV-C): category updates land in per-category delta overlays with
  threshold compaction.
"""

from repro.labeling.order import degree_order, random_order
from repro.labeling.pll import (
    build_bfs_labels,
    build_labels_auto,
    build_pruned_landmark_labels,
    graph_is_unit_weight,
)
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
    rebuild_after_structure_update,
    remove_vertex_from_category,
    update_edge,
)

__all__ = [
    "degree_order",
    "random_order",
    "build_pruned_landmark_labels",
    "build_bfs_labels",
    "build_labels_auto",
    "graph_is_unit_weight",
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
    "rebuild_after_structure_update",
    "update_edge",
]
