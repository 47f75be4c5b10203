"""Per-category inverted label index ``IL(Ci)`` over RPLI sections.

A category's inverted lists are five parallel sections (the RPLI v2
per-category layout, :mod:`repro.labeling.packed`): ``hubs``,
``hub_ranks`` (ascending), ``run_starts``, and the concatenated hub runs
``dists`` / ``members``, each run sorted by ``(dist, member)``.  The
sections are typed ``memoryview`` slices of either a private buffer (a
fresh build) or a read-only ``mmap`` of an index file that every
attaching process shares through the OS page cache; the class below
neither knows nor cares which.

Read state
----------

FindNN reads the runs where they lie.  :meth:`PackedInvertedIndex.runs`
hands out one tuple ``(dists, members, directory)``: the two run
sequences, and a dict from hub rank to the ``(lo, hi)`` positions of
that hub's run.  Until the category's first edit the sequences are the
base views themselves.  The directory is read from the hub sections the
first time the category is read; it is all the read path allocates, one
dict entry and one tuple per hub run and nothing per label entry.

Category updates
----------------

A category update (Sec. IV-C) is applied as soon as it arrives: one
binary insert of ``(d, v)`` into ``IL(u)`` for each ``(u, d) ∈ Lin(v)``,
or the matching delete.  The category's first edit copies its run and
hub sections into private ``array`` s of the same layout and publishes
them with a copy of the directory.  Each edit then copies the hub's run,
edits the copy with ``bisect``, appends it to the private arrays and
repoints the rank in the directory.  The base sections, and so a shared
index file, are never written.  The old region stays behind as garbage,
and once the edits since the last compaction exceed
:data:`COMPACT_RATIO` of the live entry count,
:meth:`~PackedInvertedIndex.compact` rebuilds the arrays garbage-free,
publishes them with a new directory and lets go of the base.

Readers take no lock.  The read-state tuple is swapped only by a first
edit or a compaction, a FindNN seeding reads it once, and an in-place
edit appends its data before it repoints the rank, so a live merge keeps
reading the runs it was seeded over.  A cursor re-seeded after a
suspension reads the current runs; a serving session has dropped the
cursors of every category whose ``version`` moved.  Edits, compactions,
the first read and the whole-index views run under one per-index lock.
No view of a private array is ever handed out (an ``array`` cannot grow
while one exists), so :meth:`~PackedInvertedIndex.sections` re-encodes
an edited index.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex, sections_resident_bytes
from repro.types import CategoryId, Cost, Vertex

#: shared empty-slice sentinel for ranks absent from a category
_EMPTY_SLICE = (0, 0)

#: compaction threshold: rebuild a category's buffers once the edits
#: since its last compaction exceed this fraction of its live entries
COMPACT_RATIO = 0.25

#: estimated bytes of one directory entry beyond the dict's own table: its
#: tuple, its rank and one position (adjacent base runs share the other)
_DIRECTORY_ENTRY_BYTES = sys.getsizeof((0, 0)) + 2 * sys.getsizeof(1 << 20)

Run = List[Tuple[Cost, Vertex]]
#: the read state: ``(dists, members, rank -> (lo, hi) directory)``
Runs = Tuple[Sequence[Cost], Sequence[Vertex], Dict[int, Tuple[int, int]]]
#: one run as the whole-index views see it: ``(rank, hub, dists, members)``
RunRecord = Tuple[int, Vertex, Sequence[Cost], Sequence[Vertex]]


def _encode_runs(runs: Iterable[RunRecord]) -> Tuple[array, ...]:
    """Five private category sections from run records given in
    ascending rank order."""
    hubs, ranks, starts = array("q"), array("q"), array("q", [0])
    dists, members = array("d"), array("q")
    for rank, hub, run_dists, run_members in runs:
        ranks.append(rank)
        hubs.append(hub)
        dists.extend(run_dists)
        members.extend(run_members)
        starts.append(len(members))
    return hubs, ranks, starts, dists, members


def _sections(runs: Iterable[RunRecord]) -> Tuple[memoryview, ...]:
    """:func:`_encode_runs` as five typed views over fresh arrays."""
    return tuple(map(memoryview, _encode_runs(runs)))


def _run_directory(ranks, starts) -> Dict[int, Tuple[int, int]]:
    """``rank -> (lo, hi)`` of every run in a hub/run-starts section pair."""
    starts = starts.tolist()
    return dict(zip(ranks.tolist(), zip(starts, starts[1:])))


def _private(section) -> array:
    """A private, growable copy of one typed section view."""
    return array(section.format, section.tobytes())


class PackedInvertedIndex:
    """One category's inverted label lists over its RPLI sections."""

    __slots__ = ("category", "version", "shared", "_base", "_hubs",
                 "_runs", "_lock", "_live", "_num_hubs", "_edits",
                 "_member_count")

    def __init__(self, category: CategoryId, hubs, ranks, starts, dists,
                 members, shared: bool = False):
        self.category = category
        #: the five base sections (typed views), None once :meth:`compact`
        #: has rebuilt the runs into private arrays
        self._base: Optional[Tuple] = (hubs, ranks, starts, dists, members)
        #: True while the base sections are views into an index file
        #: (the views keep the mapping alive; no edge back to the file)
        self.shared = shared
        #: ``(hubs, ranks)``: the base hub sections until the first edit,
        #: then private arrays that every new run appends its pair to
        #: (read by the whole-index views only)
        self._hubs = (hubs, ranks)
        #: the published read state (None until the first read)
        self._runs: Optional[Runs] = None
        self._lock = threading.RLock()
        #: bumped by every edit and by :meth:`compact` (the engine's
        #: ``index_epoch`` sums these)
        self.version = 0
        #: live entry count
        self._live = len(members)
        #: hubs with a non-empty run
        self._num_hubs = len(ranks)
        #: edits since the last compaction (threshold feed)
        self._edits = 0
        #: distinct members in the runs (None until first read)
        self._member_count: Optional[int] = None

    @classmethod
    def empty(cls, category: CategoryId) -> "PackedInvertedIndex":
        """A fresh index with no entries (new categories start here)."""
        index = cls(category, *_sections(()))
        index._member_count = 0
        return index

    def runs(self) -> Runs:
        """``(dists, members, directory)``: the run sequences and the
        ``rank -> (lo, hi)`` run of every hub with a non-empty run.

        Lock-free once published; the first call reads the directory from
        the hub sections.  Keep the tuple you got for as long as you read
        positions from it: a first edit and :meth:`compact` publish a new
        one, and an in-place edit only appends to the sequences.
        """
        runs = self._runs
        if runs is None:
            with self._lock:
                runs = self._runs
                if runs is None:
                    _, ranks, starts, dists, members = self._base
                    runs = self._runs = (dists, members,
                                         _run_directory(ranks, starts))
        return runs

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
        append it and repoint the directory (caller holds ``_lock``).

        The original run stays behind as garbage until :meth:`compact`.
        """
        dists, members, directory = self.runs()
        lo, hi = directory.get(rank, _EMPTY_SLICE)
        # A run is sorted by dist, and by member among equal dists.
        pos = bisect_left(dists, dist, lo, hi)
        pos = bisect_left(members, member, pos,
                          bisect_right(dists, dist, pos, hi))
        if not insert and (pos == hi or dists[pos] != dist
                           or members[pos] != member):
            return False
        if type(members) is memoryview:
            # The first edit: private copies of the same layout, so every
            # position a reader holds stays valid in both states.
            dists, members = _private(dists), _private(members)
            self._hubs = tuple(map(_private, self._hubs))
            directory = dict(directory)
            self._runs = (dists, members, directory)
        run_dists, run_members = dists[lo:hi], members[lo:hi]
        if insert:
            run_dists.insert(pos - lo, dist)
            run_members.insert(pos - lo, member)
        else:
            del run_dists[pos - lo], run_members[pos - lo]
        if run_members:
            new_lo = len(members)
            dists.extend(run_dists)
            members.extend(run_members)
            # Last, so a reader that finds the new run finds its data.
            directory[rank] = (new_lo, len(members))
        else:
            del directory[rank]
        if lo == hi:  # a new run: record its hub
            self._hubs[0].append(hub)
            self._hubs[1].append(rank)
        self._num_hubs += bool(run_members) - (hi > lo)
        self._live += 1 if insert else -1
        self._edits += 1
        self.version += 1
        return True

    def compact(self) -> None:
        """Rebuild the runs of an edited category garbage-free.

        Purely physical: the per-hub runs — and therefore every query
        result — are unchanged (property-tested).  A category that saw
        edits ends up in private arrays and lets go of its base sections;
        one that saw none keeps them.  Resets the compaction-threshold
        accounting.
        """
        with self._lock:
            if self._edits:
                hubs, ranks, starts, dists, members = _encode_runs(
                    self._run_records())
                self._hubs = (hubs, ranks)
                self._runs = (dists, members, _run_directory(ranks, starts))
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
    # Whole-index views (not on any query path)
    # ------------------------------------------------------------------
    def _run_records(self) -> List[RunRecord]:
        """Every non-empty run as a ``(rank, hub, dists, members)`` record,
        ascending by rank."""
        with self._lock:
            dists, members, directory = self.runs()
            hubs, ranks = self._hubs
            hub_of = dict(zip(ranks.tolist(), hubs.tolist()))
            return [(rank, hub_of[rank], dists[lo:hi], members[lo:hi])
                    for rank, (lo, hi) in sorted(directory.items())]

    def hub_list(self, hub: Vertex) -> Run:
        """Materialise one hub's sorted ``(dist, member)`` list (compat view)."""
        return self.as_lists().get(hub, [])

    def as_lists(self) -> Dict[Vertex, Run]:
        """Hub -> sorted ``(dist, member)`` lists of the index."""
        return {hub: list(zip(run_dists, run_members))
                for _, hub, run_dists, run_members in self._run_records()}

    def sections(self) -> Tuple:
        """The five RPLI sections of the index as it is (what a save writes).

        An index that was never edited hands back its base sections as
        they are; otherwise the runs are re-encoded.
        """
        if self._base is not None and not self._edits:
            return self._base
        return _sections(self._run_records())

    @property
    def member_count(self) -> int:
        """Distinct members in the runs: the most neighbours a FindNN
        cursor over this category can produce.

        Read from the runs on first use, then kept by
        :meth:`adjust_member_count` (:meth:`compact` never changes it).
        """
        if self._member_count is None:
            with self._lock:
                if self._member_count is None:
                    _, members, directory = self.runs()
                    self._member_count = len({
                        member for lo, hi in directory.values()
                        for member in members[lo:hi]})
        return self._member_count

    def adjust_member_count(self, delta: int) -> None:
        """Count one member in (+1) or out (-1).  Call it *before* the
        member's entries are edited, so a first read does not count them
        too."""
        with self._lock:
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

        The base sections when they are a private buffer (views into a
        shared index file cost only the view objects), the directory once
        the category has been read, and after an edit the private arrays
        as held, including edit garbage not yet reclaimed by
        :meth:`compact`.
        """
        total = 0
        if self._base is not None:
            total += sections_resident_bytes(self._base, self.shared)
        runs = self._runs
        if runs is not None:
            dists, members, directory = runs
            total += (sys.getsizeof(directory)
                      + len(directory) * _DIRECTORY_ENTRY_BYTES)
            if type(members) is not memoryview:
                total += sum(map(sys.getsizeof,
                                 (dists, members) + self._hubs))
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
    return PackedInvertedIndex(category, *_sections(
        (rank, order[rank], *zip(*sorted(runs[rank])))
        for rank in sorted(runs)))
