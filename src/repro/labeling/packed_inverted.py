"""Per-category inverted label index ``IL(Ci)`` over RPLI sections.

A category's inverted lists are five parallel sections (the RPLI v2
per-category layout, :mod:`repro.labeling.packed`): ``hubs``,
``hub_ranks`` (ascending), ``run_starts``, and the concatenated hub runs
``dists`` / ``members``, each run sorted by ``(dist, member)``.  The
sections are typed ``memoryview`` slices of either a private buffer (a
fresh build) or a read-only ``mmap`` of an index file that every
attaching process shares through the OS page cache; the class below
neither knows nor cares which.

Lazy run decode
---------------

``memoryview.__getitem__`` re-boxes its element on every access, so the
FindNN cursors never index a section per step.  Instead a hub run is
decoded on first touch — two ``view[lo:hi].tolist()`` calls, one
C-level pass each — into the process-local ``dists`` / ``members`` lists,
and ``rank_slices`` maps its hub rank to the ``(lo, hi)`` positions of
the decoded run.  A FindNN cursor is then just integer positions into
two lists of already-boxed numbers.  Decoded runs are the only
per-process copy of the index, proportional to the runs a process's
queries actually touch.

Category updates
----------------

A category update (Sec. IV-C) is applied as soon as it arrives: one
binary insert of ``(d, v)`` into ``IL(u)`` for each ``(u, d) ∈ Lin(v)``,
or the matching delete.  :meth:`PackedInvertedIndex.insert` /
:meth:`~PackedInvertedIndex.remove` copy the hub's run (from the decoded
lists, or straight from the base sections when the run was never
decoded), edit the copy with ``bisect``, append it to the decoded lists
and repoint the slice maps.  The base sections, and so a shared index
file, are never written.  The old region stays behind as garbage, and
once the edits since the last compaction exceed :data:`COMPACT_RATIO` of
the live entry count, :meth:`~PackedInvertedIndex.compact` rebuilds the
decoded lists garbage-free and lets go of the base.  Because the lists
only grow between compactions, and a compaction builds new ones, a live
FindNN merge keeps reading the runs it was seeded over.  A cursor
re-seeded after a suspension reads the current runs; a serving session
has dropped the cursors of every category whose ``version`` moved.

Decodes and edits all run under one per-index lock, and each publishes
its slice only after the data it points at, so threads sharing an index
read already-settled runs without taking it.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex, sections_resident_bytes
from repro.types import CategoryId, Cost, Vertex

#: shared empty-slice sentinel for hubs absent from a category
_EMPTY_SLICE = (0, 0)

#: compaction threshold: rebuild a category's buffers once the edits
#: since its last compaction exceed this fraction of its live entries
COMPACT_RATIO = 0.25

Run = List[Tuple[Cost, Vertex]]


def _list_resident_bytes(buf: list) -> int:
    """Estimated footprint of one decoded list: a pointer per element plus
    one boxed number each, the box size sampled from the first element."""
    if not buf:
        return sys.getsizeof(buf)
    return sys.getsizeof(buf) + len(buf) * sys.getsizeof(buf[0])


def _encode_runs(runs: Iterable[Tuple[int, Vertex, Run]]) -> Tuple:
    """Five private category sections from ``(rank, hub, sorted run)``
    triples given in ascending rank order."""
    hubs, ranks, starts = array("q"), array("q"), array("q", [0])
    dists, members = array("d"), array("q")
    for rank, hub, run in runs:
        ranks.append(rank)
        hubs.append(hub)
        for d, m in run:
            dists.append(d)
            members.append(m)
        starts.append(len(members))
    return tuple(memoryview(a)
                 for a in (hubs, ranks, starts, dists, members))


class PackedInvertedIndex:
    """One category's inverted label lists over its RPLI sections."""

    __slots__ = ("category", "dists", "members", "slices", "rank_slices",
                 "hub_ranks", "version", "_base", "shared",
                 "_undecoded", "_lock", "_live", "_num_hubs", "_dead",
                 "_edits", "_member_count")

    def __init__(self, category: CategoryId, hubs, ranks, starts, dists,
                 members, shared: bool = False):
        self.category = category
        #: the five base sections (typed views), None once :meth:`compact`
        #: has folded them into the decoded lists
        self._base: Optional[Tuple] = (hubs, ranks, starts, dists, members)
        #: True while the base sections are views into an index file
        #: (the views keep the mapping alive; no edge back to the file)
        self.shared = shared
        # Decoded runs (process-local, grow-only between compactions).
        self.dists: List[Cost] = []
        self.members: List[Vertex] = []
        #: hub vertex -> (lo, hi) half-open decoded run
        self.slices: Dict[Vertex, Tuple[int, int]] = {}
        #: the same runs keyed by hub *rank* — FindNN cursors probe this
        #: with ranks straight off the Lout section, skipping the
        #: rank -> vertex translation per label entry
        self.rank_slices: Dict[int, Tuple[int, int]] = {}
        #: hub vertex -> rank of every decoded or edited hub
        self.hub_ranks: Dict[Vertex, int] = {}
        #: rank -> (hub, lo, hi) of base runs not decoded yet (None until
        #: the hub-level sections are first read)
        self._undecoded: Optional[Dict[int, Tuple[Vertex, int, int]]] = None
        self._lock = threading.Lock()
        #: bumped by every edit and by :meth:`compact` (the engine's
        #: ``index_epoch`` sums these; lazy query-time decodes are
        #: physical-only and intentionally do *not* bump it)
        self.version = 0
        #: live entry count
        self._live = len(members)
        #: hubs with a non-empty run
        self._num_hubs = len(ranks)
        #: list elements orphaned by edits (reclaimed by compact)
        self._dead = 0
        #: edits since the last compaction (threshold feed)
        self._edits = 0
        #: distinct members in the runs (None until first read)
        self._member_count: Optional[int] = None

    @classmethod
    def empty(cls, category: CategoryId) -> "PackedInvertedIndex":
        """A fresh index with no entries (new categories start here)."""
        index = cls(category, *_encode_runs(()))
        index._member_count = 0
        return index

    # ------------------------------------------------------------------
    # Lazy run decode
    # ------------------------------------------------------------------
    def _directory(self) -> Dict[int, Tuple[Vertex, int, int]]:
        """The still-undecoded base runs, reading the hub sections once
        (caller holds ``_lock``)."""
        undecoded = self._undecoded
        if undecoded is None:
            hubs, ranks, starts = (view.tolist() for view in self._base[:3])
            undecoded = self._undecoded = {
                rank: (hub, starts[i], starts[i + 1])
                for i, (rank, hub) in enumerate(zip(ranks, hubs))}
        return undecoded

    def _decode_run(self, rank: int) -> None:
        """Decode one base run; no-op when already decoded or absent
        (caller holds ``_lock``)."""
        entry = self._directory().get(rank)
        if entry is None:
            return
        hub, lo, hi = entry
        new_lo = len(self.members)
        self.dists.extend(self._base[3][lo:hi].tolist())
        self.members.extend(self._base[4][lo:hi].tolist())
        sl = (new_lo, len(self.members))
        self.hub_ranks[hub] = rank
        self.slices[hub] = sl
        self.rank_slices[rank] = sl
        # Last, so a lock-free reader that finds nothing left to decode
        # also finds every slice (and the data behind it) in place.
        del self._undecoded[rank]

    def decode_ranks(self, ranks) -> None:
        """Decode the runs of ``ranks`` that are still only in the base.

        Called by cursor seeding right before a scan; hub runs the query
        never touches stay undecoded.  Once every run is decoded this is
        two attribute reads.
        """
        if self._undecoded is not None and not self._undecoded:
            return
        with self._lock:
            for rank in self._directory().keys() & ranks:
                self._decode_run(rank)

    def _decode_all(self) -> None:
        """Decode every base run."""
        if self._undecoded is None or self._undecoded:
            with self._lock:
                for rank in list(self._directory()):
                    self._decode_run(rank)

    # ------------------------------------------------------------------
    # Category updates (Sec. IV-C)
    # ------------------------------------------------------------------
    def insert(self, hub: Vertex, rank: int, dist: Cost,
               member: Vertex) -> None:
        """Binary-insert ``(dist, member)`` into the run of ``hub``."""
        with self._lock:
            self._edit(hub, rank, dist, member, True)

    def remove(self, hub: Vertex, rank: int, dist: Cost,
               member: Vertex) -> bool:
        """Delete ``(dist, member)`` from the run of ``hub``; returns False
        (no-op) when the entry is absent."""
        with self._lock:
            return self._edit(hub, rank, dist, member, False)

    def _edit(self, hub: Vertex, rank: int, dist: Cost, member: Vertex,
              insert: bool) -> bool:
        """Copy the run of ``rank``, insert or delete one entry in the copy,
        append it and repoint the slices (caller holds ``_lock``).

        The copy is read from the decoded lists, or from the base sections
        when the run was never decoded; a decoded original becomes garbage
        (counted in ``_dead``) until :meth:`compact`.
        """
        base_run = self._directory().get(rank)
        if base_run is None:
            lo, hi = self.rank_slices.get(rank, _EMPTY_SLICE)
            dists, members = self.dists, self.members
        else:
            _, lo, hi = base_run
            dists, members = self._base[3], self._base[4]
        # A run is sorted by dist, and by member among equal dists.
        pos = bisect_left(dists, dist, lo, hi)
        pos = bisect_left(members, member, pos,
                          bisect_right(dists, dist, pos, hi))
        if not insert and (pos == hi or dists[pos] != dist
                           or members[pos] != member):
            return False
        dists, members = dists[lo:hi], members[lo:hi]
        if base_run is not None:
            dists, members = dists.tolist(), members.tolist()
        if insert:
            dists.insert(pos - lo, dist)
            members.insert(pos - lo, member)
        else:
            del dists[pos - lo], members[pos - lo]
        if members:
            new_lo = len(self.members)
            self.dists.extend(dists)
            self.members.extend(members)
            sl = (new_lo, len(self.members))
            self.rank_slices[rank] = sl
            self.slices[hub] = sl
        else:
            self.rank_slices.pop(rank, None)
            self.slices.pop(hub, None)
        self.hub_ranks[hub] = rank
        if base_run is None:
            self._dead += hi - lo
        else:
            # Last, as in _decode_run: the run's slice is already in place.
            del self._undecoded[rank]
        self._num_hubs += bool(members) - (hi > lo)
        self._live += 1 if insert else -1
        self._edits += 1
        self.version += 1
        return True

    def compact(self) -> None:
        """Rebuild the decoded lists garbage-free.

        Purely physical: the per-hub runs — and therefore every query
        result — are unchanged (property-tested).  A category that saw
        edits ends up fully decoded and lets go of its base sections; one
        that saw none keeps them.  Resets the compaction-threshold
        accounting.
        """
        if self._edits:
            self._decode_all()
            if self._dead:
                dists: List[Cost] = []
                members: List[Vertex] = []
                slices: Dict[Vertex, Tuple[int, int]] = {}
                rank_slices: Dict[int, Tuple[int, int]] = {}
                for hub in sorted(self.slices):
                    lo, hi = self.slices[hub]
                    new_lo = len(dists)
                    dists.extend(self.dists[lo:hi])
                    members.extend(self.members[lo:hi])
                    sl = (new_lo, len(dists))
                    slices[hub] = sl
                    rank_slices[self.hub_ranks[hub]] = sl
                self.dists, self.members = dists, members
                self.slices, self.rank_slices = slices, rank_slices
                self._dead = 0
            self._base = None
            self.shared = False
            self._edits = 0
        self.version += 1

    def maybe_compact(self) -> bool:
        """Compact when the edits exceed :data:`COMPACT_RATIO` of live
        size."""
        if self._edits > COMPACT_RATIO * max(1, self._live):
            self.compact()
            return True
        return False

    # ------------------------------------------------------------------
    # Whole-index views (decode everything; not on any query path)
    # ------------------------------------------------------------------
    def hub_slice(self, hub: Vertex) -> Tuple[int, int]:
        """``(lo, hi)`` run of ``hub`` (``(0, 0)`` when the hub is unused)."""
        self._decode_all()
        return self.slices.get(hub, _EMPTY_SLICE)

    def hub_list(self, hub: Vertex) -> Run:
        """Materialise one hub's sorted ``(dist, member)`` list (compat view)."""
        lo, hi = self.hub_slice(hub)
        return list(zip(self.dists[lo:hi], self.members[lo:hi]))

    def as_lists(self) -> Dict[Vertex, Run]:
        """Hub -> sorted ``(dist, member)`` lists of the index."""
        self._decode_all()
        return {hub: list(zip(self.dists[lo:hi], self.members[lo:hi]))
                for hub, (lo, hi) in self.slices.items()}

    def sections(self) -> Tuple:
        """The five RPLI sections of the index as it is (what a save writes).

        An index that was never edited hands back its base sections as
        they are; otherwise the runs are re-encoded.
        """
        if self._base is not None and not self._edits:
            return self._base
        lists = self.as_lists()
        return _encode_runs(
            (rank, hub, lists[hub])
            for rank, hub in sorted((self.hub_ranks[hub], hub)
                                    for hub in lists))

    @property
    def member_count(self) -> int:
        """Distinct members in the runs: the most neighbours a FindNN
        cursor over this category can produce.

        Read from the members section on first use, then kept by
        :meth:`adjust_member_count` (physical work — decodes and
        :meth:`compact` — never changes it).
        """
        if self._member_count is None:
            self._member_count = len(set(self.sections()[4].tolist()))
        return self._member_count

    def adjust_member_count(self, delta: int) -> None:
        """Count one member in (+1) or out (-1).  Call it *before* the
        member's entries are edited, so a first read does not count them
        too."""
        self._member_count = self.member_count + delta

    # ------------------------------------------------------------------
    # Table IX statistics
    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        """``|IL(Ci)|`` — total label entries in this category's index."""
        return self._live

    @property
    def num_hubs(self) -> int:
        return self._num_hubs

    def average_list_length(self) -> float:
        """Avg ``|IL(v)|`` per hub — the Table IX statistic."""
        hubs = self.num_hubs
        return self._live / hubs if hubs else 0.0

    # ------------------------------------------------------------------
    # Memory accounting
    # ------------------------------------------------------------------
    @property
    def nbytes_serialized(self) -> int:
        """At-rest byte size if written to an index file right now.

        Per category the file stores the live ``(dist, member)`` pairs
        plus hub, rank, and run-boundary directories, 8 bytes each.
        """
        return 8 * (2 * self._live + 3 * self._num_hubs + 1)

    @property
    def nbytes_resident(self) -> int:
        """Estimated live in-process footprint.

        The decoded lists as held — including edit garbage not yet
        reclaimed by :meth:`compact` — plus the slice directories, plus
        the base sections when they are a private buffer (views into a
        shared index file cost only the view objects).
        """
        total = (_list_resident_bytes(self.dists)
                 + _list_resident_bytes(self.members)
                 + sys.getsizeof(self.slices)
                 + sys.getsizeof(self.rank_slices)
                 + sys.getsizeof(self.hub_ranks))
        if self._base is not None:
            total += sections_resident_bytes(self._base, self.shared)
        return total


def build_packed_inverted_index(
    graph: Graph, labels: PackedLabelIndex, category: CategoryId
) -> PackedInvertedIndex:
    """Build one category's ``IL(Ci)`` into a private buffer.

    Collects every member's ``Lin`` entries by hub rank first and sorts
    each hub run once — O(L log L) total.
    """
    side = labels.lin_side()
    offsets, ranks, dists = side.offsets, side.hub_ranks, side.dists
    order = labels.order
    runs: Dict[int, Run] = {}
    for member in sorted(graph.members(category)):
        lo, hi = offsets[member], offsets[member + 1]
        for rank, d in zip(ranks[lo:hi].tolist(), dists[lo:hi].tolist()):
            run = runs.get(rank)
            if run is None:
                run = runs[rank] = []
            run.append((d, member))
    return PackedInvertedIndex(category, *_encode_runs(
        (rank, order[rank], sorted(runs[rank])) for rank in sorted(runs)))
