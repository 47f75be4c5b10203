"""Read-only mmap attachment of RPLI v2 index files.

The motivating wall is Sec. V-A's observation that "the index sizes may
be too large to fit into main memory": our sharded fleet (one engine per
worker process) multiplies that by N when every worker rebuilds and
privately owns a full label + inverted index.  :class:`MmapIndexFile`
opens a saved index file read-only via ``mmap``, validates its layout,
and hands the label and per-category sections — typed ``memoryview``
slices **in place**, no parse, no copy — to the same
:class:`~repro.labeling.packed.PackedLabelIndex` /
:class:`~repro.labeling.packed_inverted.PackedInvertedIndex` classes a
fresh build uses.  Every process attaching the same file shares one
physical copy of the index through the OS page cache, so worker spawn
becomes an ``open`` + ``mmap`` instead of a PLL build, and fleet memory
stays ~one index regardless of worker count.

Why this works where naive ``fork`` sharing does not: CPython reference
counting writes into every object header it touches, so copy-on-write
pages holding Python objects go private almost immediately.  The index
file's pages hold *no* Python objects — just flat little-endian arrays —
and are mapped ``ACCESS_READ``, so they can never be dirtied: queries
read the inverted runs in place, and a category update copies the
category's runs into private arrays, on top of the mapped base.
"""

from __future__ import annotations

import mmap
from typing import Dict, List, Optional

from repro.exceptions import IndexStorageError
from repro.labeling.packed import (
    IndexFileLayout,
    PackedLabelIndex,
    PathLike,
)
from repro.labeling.packed_inverted import PackedInvertedIndex
from repro.types import CategoryId

__all__ = ["MmapIndexFile"]


class MmapIndexFile:
    """One open, validated RPLI v2 index file mapped read-only.

    The cheap handle every worker opens at spawn: parsing is just the
    48-byte header plus the section table; the label index and the
    per-category inverted indexes wrap zero-copy slices on demand.
    """

    def __init__(self, path: str, mm: mmap.mmap, view: memoryview,
                 layout: IndexFileLayout):
        self.path = path
        self._mm = mm
        self._view = view
        self.layout = layout
        self._labels: Optional[PackedLabelIndex] = None
        self._cid_pos: Optional[Dict[CategoryId, int]] = None

    @classmethod
    def open(cls, path: PathLike) -> "MmapIndexFile":
        """mmap ``path`` read-only and validate its layout."""
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise IndexStorageError(
                f"{path}: cannot open index file ({exc.strerror})") from exc
        with f:
            try:
                mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as exc:  # zero-length file cannot be mapped
                raise IndexStorageError(
                    f"{path}: truncated header (0 of 48 bytes) "
                    f"(byte offset 0)") from exc
        view = memoryview(mm)
        try:
            layout = IndexFileLayout(path, view)
            layout.check_label_sections()
        except Exception:
            view.release()
            mm.close()
            raise
        return cls(str(path), mm, view, layout)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.layout.num_vertices

    @property
    def num_categories(self) -> int:
        return self.layout.num_categories

    @property
    def has_inverted(self) -> bool:
        return self.layout.has_inverted

    @property
    def size_bytes(self) -> int:
        return len(self._view)

    # ------------------------------------------------------------------
    @property
    def labels(self) -> PackedLabelIndex:
        """The label index over the mapped sections (built once, cached)."""
        if self._labels is None:
            self._labels = PackedLabelIndex.from_sections(
                self.layout.label_sections(), shared=True)
        return self._labels

    def _positions(self) -> Dict[CategoryId, int]:
        if self._cid_pos is None:
            self._cid_pos = {cid: i for i, cid
                             in enumerate(self.layout.category_ids())}
        return self._cid_pos

    def category_ids(self) -> List[CategoryId]:
        """Categories whose inverted sections are stored in the file."""
        return sorted(self._positions())

    def has_category(self, cid: CategoryId) -> bool:
        return cid in self._positions()

    def inverted_view(self, cid: CategoryId) -> PackedInvertedIndex:
        """One stored category's inverted index over the mapped sections."""
        pos = self._positions().get(cid)
        if pos is None:
            raise IndexStorageError(
                f"{self.path}: category {cid!r} has no inverted sections "
                f"in this index file")
        self.layout.check_category_sections(pos)
        return PackedInvertedIndex(cid, *self.layout.category_sections(pos),
                                   shared=True)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping (tolerant of still-exported views).

        ``mmap.close`` raises ``BufferError`` while any section view is
        alive; in that case the mapping simply stays open until the last
        view is garbage-collected — on Linux the parent may even unlink
        the file while workers keep serving from the mapped pages.
        """
        self._labels = None
        try:
            self._view.release()
        except BufferError:
            pass
        try:
            self._mm.close()
        except BufferError:
            pass
