"""The label index: RPLI v2 sections as the in-memory format.

For every vertex ``v`` the 2-hop index keeps ``Lin(v)`` — entries
``(hub, dis(hub, v))`` — and ``Lout(v)`` — entries ``(hub, dis(v, hub))``
— satisfying the *cover property*: some hub on a shortest ``s → t`` path
appears in both ``Lout(s)`` and ``Lin(t)``, so ``dis(s, t)`` is the
minimum of ``d_s,h + d_h,t`` over the common hubs, a merge join over
entries sorted by hub rank.  Each entry also stores a *parent* vertex (one
step closer to the hub), which makes witness-to-route restoration a chain
of label lookups — the technique the paper cites from Akiba et al. [2].

Sec. V-A notes that on large graphs "the index sizes may be too large to
fit into main memory" and points at hub-label compression [12].  The
label index is therefore kept flat: each side (``Lin`` / ``Lout``) is
four parallel sections — offsets, hub ranks, distances, parents — of 8
bytes per element, and :class:`PackedLabelIndex` serves queries straight
off typed ``memoryview`` slices of those sections.  The sections are the
same whether they sit in a private buffer (a fresh build concatenates
PLL's per-vertex columns into them; an unpickled index owns its bytes)
or in a read-only ``mmap`` of an index file shared
by every process that attaches it
(:class:`~repro.labeling.mmap_index.MmapIndexFile`).

Hot-loop strategy
-----------------

``memoryview.__getitem__`` boxes a new object on every access, so a loop
that reads every element of a label run — a merge join, a ``dis(·, t)``
probe, a FindNN seeding's ``Lout`` scan — decodes the run with
``view[lo:hi].tolist()``, a single C-level pass, and then runs over a
plain list.  FindNN's merge reads only a few elements of each inverted
run, so it indexes the inverted sections in place
(:mod:`repro.labeling.packed_inverted`).

RPLI v2 index file format
-------------------------

A *zero-decode* layout that a reader can ``mmap`` and slice in place::

    header   48 B   magic "RPLI", version u16, flags u16,
                    num_vertices u64, num_categories u64,
                    section_count u64, 16 B reserved
    table    16 B x section_count   (byte offset u64, element count u64)
    sections raw little-endian arrays, 8 B per element
             ("q" int64 everywhere, "d" float64 for distances)

Sections, in order: ``order``; per label side (``Lin`` then ``Lout``)
``offsets``, ``hub_ranks``, ``dists``, ``parents``.  When the
``inverted`` flag is set they are followed by a sorted ``category_ids``
section and, per category, five sections — ``hubs``, ``hub_ranks``
(ascending), ``run_starts`` (R+1 boundaries), ``dists``, ``members`` —
with the hub runs concatenated in ascending-rank order.  Every section
is a multiple of 8 bytes, so all offsets stay naturally aligned for
``memoryview.cast``.

The per-entry object form of the same index lives with the tests
(``tests/reference_labels.py``, built by ``tests/reference_pll.py``);
they assert full parity of ``distance``, ``distance_with_hub``, ``path``
and ``restore_witness_route``, and convert through :meth:`sections` /
:meth:`from_columns`.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.exceptions import IndexBuildError, IndexStorageError
from repro.types import CategoryId, Cost, INFINITY, Vertex

PathLike = Union[str, Path]

#: parent sentinel for hub self-entries (in the sections and in PLL's columns)
NO_PARENT = -1

_MAGIC = b"RPLI"
_VERSION = 2

#: header flag: the file carries per-category inverted-index sections
_FLAG_INVERTED = 0x1

#: magic, version, flags, num_vertices, num_categories, section_count,
#: 16 reserved bytes — 48 bytes total, an 8-byte multiple so the section
#: table and every section stay naturally aligned
_HEADER = struct.Struct("<4sHHQQQ16x")

#: one section-table entry: absolute byte offset + element count
_TABLE_ENTRY = struct.Struct("<QQ")

#: sections 1-8: Lin then Lout, each (offsets, hub_ranks, dists, parents)
_SIDE_SECTION_CODES = ("q", "q", "d", "q")

#: the nine label sections: order, then the two sides
_LABEL_SECTION_CODES = ("q",) + 2 * _SIDE_SECTION_CODES

#: per-category sections: hubs, hub_ranks, run_starts, dists, members
_CATEGORY_SECTION_CODES = ("q", "q", "q", "d", "q")


def sections_resident_bytes(views, shared: bool) -> int:
    """Live-process footprint of a group of section views.

    A view over an mmap'ed index file costs only the view object — the
    backing pages are shared with every other process mapping the file;
    a view over a private buffer also owns its 8 bytes per element.
    """
    total = sum(sys.getsizeof(view) for view in views)
    if not shared:
        total += sum(view.nbytes for view in views)
    return total


class _PackedSide:
    """One direction's labels (all vertices) as four parallel sections."""

    __slots__ = ("offsets", "hub_ranks", "dists", "parents")

    def __init__(self, offsets, hub_ranks, dists, parents) -> None:
        self.offsets = offsets
        self.hub_ranks = hub_ranks
        self.dists = dists
        self.parents = parents

    @classmethod
    def pack(cls, hub_ranks, dists, parents) -> "_PackedSide":
        """Concatenate per-vertex columns into private sections."""
        offsets = array("q", accumulate(map(len, hub_ranks), initial=0))
        flat = (array(code, chain.from_iterable(column)) for code, column
                in zip(_SIDE_SECTION_CODES[1:], (hub_ranks, dists, parents)))
        return cls(memoryview(offsets), *map(memoryview, flat))

    def sections(self) -> Tuple:
        return self.offsets, self.hub_ranks, self.dists, self.parents

    def slice(self, v: Vertex) -> Tuple[int, int]:
        return self.offsets[v], self.offsets[v + 1]


class PackedLabelIndex:
    """The 2-hop label index over RPLI sections (private or file-backed)."""

    def __init__(self, order, lin: _PackedSide, lout: _PackedSide,
                 shared: bool = False):
        self._order = order
        self._lin = lin
        self._lout = lout
        #: True when the sections are views into an mmap'ed index file.
        #: The views keep the mapping alive; the index does not point
        #: back at the file, which caches it (no cycle to collect).
        self.shared = shared

    # ------------------------------------------------------------------
    @classmethod
    def from_sections(cls, sections, shared: bool = False
                      ) -> "PackedLabelIndex":
        """Wrap the nine label sections (typed views, file order)."""
        return cls(sections[0], _PackedSide(*sections[1:5]),
                   _PackedSide(*sections[5:9]), shared)

    @classmethod
    def from_columns(cls, order, lin, lout) -> "PackedLabelIndex":
        """Flatten PLL's output into a private buffer.

        Each side is ``(hub_ranks, dists, parents)``: three lists of
        per-vertex lists, entries in ascending rank, ``NO_PARENT`` on a
        hub's own entry.  ``lout is lin`` (a symmetric graph) shares one
        set of sections between the sides.
        """
        lin_side = _PackedSide.pack(*lin)
        lout_side = lin_side if lout is lin else _PackedSide.pack(*lout)
        return cls(memoryview(array("q", order)), lin_side, lout_side)

    def sections(self) -> Tuple:
        """The nine label sections in file order."""
        return (self._order,) + self._lin.sections() + self._lout.sections()

    def __reduce__(self):
        # Sections travel as raw bytes (a shard worker's start-up
        # arguments under the spawn start method); the receiver owns a
        # private copy.
        return (_labels_from_bytes,
                ([view.tobytes() for view in self.sections()],))

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._lin.offsets) - 1

    @property
    def order(self):
        """Hub construction order (a typed view; ``order[rank]`` is the hub)."""
        return self._order

    def hub_vertex(self, hub_rank: int) -> Vertex:
        return self._order[hub_rank]

    def lin_side(self) -> _PackedSide:
        """The raw ``Lin`` sections (hot-path consumers slice these)."""
        return self._lin

    def lout_side(self) -> _PackedSide:
        """The raw ``Lout`` sections (hot-path consumers slice these)."""
        return self._lout

    @property
    def nbytes_serialized(self) -> int:
        """At-rest byte size of the label sections in the index file."""
        return sum(view.nbytes for view in self.sections())

    @property
    def nbytes_resident(self) -> int:
        """Live in-process footprint: near zero for file-backed sections."""
        sections = self.sections()
        if self._lout is self._lin:  # one set of sections serves both sides
            sections = sections[:5]
        return sections_resident_bytes(sections, self.shared)

    @property
    def nbytes(self) -> int:
        """Actual in-memory footprint (alias of :attr:`nbytes_resident`)."""
        return self.nbytes_resident

    def size_entries(self) -> int:
        return len(self._lin.hub_ranks) + len(self._lout.hub_ranks)

    def average_label_sizes(self) -> Tuple[float, float]:
        n = max(1, self.num_vertices)
        return len(self._lin.hub_ranks) / n, len(self._lout.hub_ranks) / n

    # ------------------------------------------------------------------
    def distance(self, s: Vertex, t: Vertex) -> Cost:
        """``dis(s, t)`` by merge join over the two decoded label runs."""
        if s == t:
            return 0.0
        return self._merge(s, t)[0]

    def distance_with_hub(self, s: Vertex, t: Vertex) -> Tuple[Cost, Optional[int]]:
        if s == t:
            return 0.0, None
        return self._merge(s, t)

    def _merge(self, s: Vertex, t: Vertex) -> Tuple[Cost, Optional[int]]:
        out, ins = self._lout, self._lin
        lo_o, hi_o = out.slice(s)
        lo_i, hi_i = ins.slice(t)
        ranks_o = out.hub_ranks[lo_o:hi_o].tolist()
        ranks_i = ins.hub_ranks[lo_i:hi_i].tolist()
        dists_o = out.dists[lo_o:hi_o].tolist()
        dists_i = ins.dists[lo_i:hi_i].tolist()
        best = INFINITY
        best_hub: Optional[int] = None
        i, i_end = 0, len(ranks_o)
        j, j_end = 0, len(ranks_i)
        while i < i_end and j < j_end:
            a, b = ranks_o[i], ranks_i[j]
            if a == b:
                total = dists_o[i] + dists_i[j]
                if total < best:
                    best = total
                    best_hub = a
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        return best, best_hub

    def path(self, s: Vertex, t: Vertex) -> Tuple[Cost, List[Vertex]]:
        """Restore one shortest path from ``s`` to ``t``.

        Returns ``(INFINITY, [])`` when unreachable.  Pruned landmark
        labeling guarantees each labelled vertex's parent is labelled with
        the same hub, so the parent chains always terminate at the hub.
        """
        if s == t:
            return 0.0, [s]
        dist, hub_rank = self.distance_with_hub(s, t)
        if hub_rank is None or dist == INFINITY:
            return INFINITY, []
        hub = self._order[hub_rank]
        left = [s]
        cur = s
        while cur != hub:
            parent = self._find_parent(self._lout, cur, hub_rank)
            if parent is None:
                break
            cur = parent
            left.append(cur)
        right: List[Vertex] = []
        cur = t
        while cur != hub:
            parent = self._find_parent(self._lin, cur, hub_rank)
            if parent is None:
                break
            right.append(cur)
            cur = parent
        right.reverse()
        return dist, left + right

    def _find_parent(self, side: _PackedSide, v: Vertex, hub_rank: int) -> Optional[Vertex]:
        lo, hi = side.slice(v)
        ranks = side.hub_ranks
        while lo < hi:
            mid = (lo + hi) // 2
            if ranks[mid] < hub_rank:
                lo = mid + 1
            else:
                hi = mid
        if lo >= side.slice(v)[1] or ranks[lo] != hub_rank:
            raise IndexBuildError(
                f"hub rank {hub_rank} missing from packed label of {v}"
            )
        parent = side.parents[lo]
        return None if parent == NO_PARENT else parent

    def restore_witness_route(
        self, witness_vertices: List[Vertex]
    ) -> Tuple[Cost, List[Vertex]]:
        """Concatenate shortest paths between consecutive witness vertices.

        This converts a KOSR witness into an *actual route* (Definition 2),
        as described at the end of Sec. IV-A.  Consecutive duplicates in the
        witness (a vertex covering two adjacent categories) contribute no
        edges.
        """
        if not witness_vertices:
            return 0.0, []
        total = 0.0
        route: List[Vertex] = [witness_vertices[0]]
        for a, b in zip(witness_vertices, witness_vertices[1:]):
            if a == b:
                continue
            d, sub = self.path(a, b)
            if d == INFINITY:
                return INFINITY, []
            total += d
            route.extend(sub[1:])
        return total, route


def _labels_from_bytes(blobs) -> PackedLabelIndex:
    """Unpickle hook: rebuild the label index over received section bytes."""
    return PackedLabelIndex.from_sections(
        [memoryview(blob).cast(code)
         for code, blob in zip(_LABEL_SECTION_CODES, blobs)])


def write_index_file(path: PathLike, labels: PackedLabelIndex,
                     inverted=None) -> int:
    """Write ``labels`` (+ optional inverted indexes) as an RPLI v2 file.

    Returns the total bytes written.
    """
    blobs = [view.tobytes() for view in labels.sections()]
    flags = 0
    num_categories = 0
    if inverted is not None:
        flags |= _FLAG_INVERTED
        cids = sorted(inverted)
        num_categories = len(cids)
        blobs.append(array("q", cids).tobytes())
        for cid in cids:
            blobs.extend(view.tobytes() for view in inverted[cid].sections())
    table = bytearray()
    pos = _HEADER.size + _TABLE_ENTRY.size * len(blobs)
    for blob in blobs:
        table += _TABLE_ENTRY.pack(pos, len(blob) // 8)
        pos += len(blob)
    header = _HEADER.pack(_MAGIC, _VERSION, flags, labels.num_vertices,
                          num_categories, len(blobs))
    # Engines and fleets may have ``path`` mmap'ed: never truncate it in
    # place.  Write beside it and rename over it, so readers of the old
    # file keep their inode and a new attach sees either the old file or
    # the complete new one.
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(header)
            f.write(table)
            for blob in blobs:
                f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return pos


class IndexFileLayout:
    """Parsed + validated section layout of one RPLI v2 index file.

    Every malformed input raises :class:`IndexStorageError` naming the
    offending path *and* byte offset, so a corrupt or truncated file is
    diagnosable without a hex editor.  The layout never copies section
    payloads — :meth:`section` returns a typed ``memoryview`` into the
    caller's buffer, which is what makes the mmap reader zero-copy.
    """

    #: label sections: order + 2 x (offsets, hub_ranks, dists, parents)
    LABEL_SECTIONS = len(_LABEL_SECTION_CODES)

    def __init__(self, path: PathLike, view: memoryview):
        self.path = str(path)
        self.view = view
        if len(view) < _HEADER.size:
            self._fail(len(view), f"truncated header "
                       f"({len(view)} of {_HEADER.size} bytes)")
        magic, version, flags, n, ncat, nsec = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            self._fail(0, f"bad magic {bytes(magic)!r} "
                       f"(not an RPLI index file)")
        if version != _VERSION:
            self._fail(4, f"unsupported index version {version} "
                       f"(this reader handles {_VERSION})")
        self.num_vertices = n
        self.num_categories = ncat
        self.section_count = nsec
        self.has_inverted = bool(flags & _FLAG_INVERTED)
        expected = self.LABEL_SECTIONS
        if self.has_inverted:
            expected += 1 + len(_CATEGORY_SECTION_CODES) * ncat
        if nsec != expected:
            self._fail(24, f"section count {nsec} does not match header "
                       f"({expected} expected for {ncat} categories)")
        table_end = _HEADER.size + _TABLE_ENTRY.size * nsec
        if len(view) < table_end:
            self._fail(len(view), f"truncated section table "
                       f"({len(view)} of {table_end} bytes)")
        self._sections: List[Tuple[int, int]] = []
        for i in range(nsec):
            entry_off = _HEADER.size + _TABLE_ENTRY.size * i
            off, count = _TABLE_ENTRY.unpack_from(view, entry_off)
            if off < table_end or off % 8 or off + 8 * count > len(view):
                self._fail(entry_off, f"section {i} spans bytes "
                           f"[{off}, {off + 8 * count}) outside the "
                           f"file of {len(view)} bytes")
            self._sections.append((off, count))

    def _fail(self, offset: int, message: str) -> None:
        raise IndexStorageError(
            f"{self.path}: {message} (byte offset {offset})")

    def section_offset(self, i: int) -> int:
        return self._sections[i][0]

    def section_count_of(self, i: int) -> int:
        return self._sections[i][1]

    def section(self, i: int, code: str) -> memoryview:
        """Section ``i`` as a typed zero-copy view (``'q'`` or ``'d'``)."""
        off, count = self._sections[i]
        return self.view[off: off + 8 * count].cast(code)

    def label_sections(self) -> List[memoryview]:
        """The nine label sections as typed views, in file order."""
        return [self.section(i, code)
                for i, code in enumerate(_LABEL_SECTION_CODES)]

    def category_sections(self, position: int) -> List[memoryview]:
        """The five sections of the ``position``-th stored category."""
        base = self.category_base(position)
        return [self.section(base + i, code)
                for i, code in enumerate(_CATEGORY_SECTION_CODES)]

    def check_label_sections(self) -> None:
        """Cross-check the label sections against the header counts."""
        n = self.num_vertices
        for base, name in ((1, "Lin"), (5, "Lout")):
            off_count = self.section_count_of(base)
            if off_count != n + 1:
                self._fail(self.section_offset(base),
                           f"{name} offsets section has {off_count} "
                           f"entries, expected {n + 1}")
            offsets = self.section(base, "q")
            entries = self.section_count_of(base + 1)
            if offsets[0] != 0 or offsets[n] != entries:
                self._fail(self.section_offset(base),
                           f"{name} offsets cover [{offsets[0]}, "
                           f"{offsets[n]}) but the section holds "
                           f"{entries} entries")
            for extra in (2, 3):
                if self.section_count_of(base + extra) != entries:
                    self._fail(self.section_offset(base + extra),
                               f"{name} parallel buffers disagree on "
                               f"entry count")

    # ------------------------------------------------------------------
    # Inverted sections (present when ``has_inverted``)
    # ------------------------------------------------------------------
    def category_ids(self) -> List[CategoryId]:
        if not self.has_inverted:
            return []
        return self.section(self.LABEL_SECTIONS, "q").tolist()

    def category_base(self, position: int) -> int:
        """First section index of the ``position``-th stored category."""
        return (self.LABEL_SECTIONS + 1
                + len(_CATEGORY_SECTION_CODES) * position)

    def check_category_sections(self, position: int) -> None:
        base = self.category_base(position)
        hubs = self.section_count_of(base)
        if self.section_count_of(base + 1) != hubs:
            self._fail(self.section_offset(base + 1),
                       f"category #{position} hub/rank sections disagree")
        if self.section_count_of(base + 2) != hubs + 1:
            self._fail(self.section_offset(base + 2),
                       f"category #{position} run-starts section has "
                       f"{self.section_count_of(base + 2)} entries, "
                       f"expected {hubs + 1}")
        entries = self.section_count_of(base + 4)
        if self.section_count_of(base + 3) != entries:
            self._fail(self.section_offset(base + 3),
                       f"category #{position} dist/member sections "
                       f"disagree on entry count")
        starts = self.section(base + 2, "q")
        if hubs and (starts[0] != 0 or starts[hubs] != entries):
            self._fail(self.section_offset(base + 2),
                       f"category #{position} run starts cover "
                       f"[{starts[0]}, {starts[hubs]}) but the section "
                       f"holds {entries} entries")
