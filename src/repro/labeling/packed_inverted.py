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

Delta overlay
-------------

Dynamic category updates (Sec. IV-C) land in a small LSM-style overlay
on top of that base: per hub rank a sorted list of pending inserts plus
a tombstone set for deletions.  Mutations only touch the overlay
(``O(|Lin(v)| log |Ci|)`` per category update) — the base sections, and
so a shared index file, are never written.  Query cursors *lazily patch*
any dirty hub run they are about to scan: the merged run is appended to
the decoded lists in one append-then-sort pass and the slice maps are
repointed, so the hot merge loop keeps running over plain list positions
with zero per-advance overhead.  When the accumulated overlay traffic
exceeds ``overlay_ratio`` of the live entry count, :meth:`compact`
rebuilds the decoded lists garbage-free and lets go of the base.

Decode and patch both run under one per-index lock, and each publishes
its slice only after the data it points at, so threads sharing an index
read already-settled runs without taking it.
"""

from __future__ import annotations

import sys
import threading
from array import array
from bisect import insort
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.graph import Graph
from repro.labeling.packed import PackedLabelIndex, sections_resident_bytes
from repro.types import CategoryId, Cost, Vertex

#: shared empty-slice sentinel for hubs absent from a category
_EMPTY_SLICE = (0, 0)

#: default compaction threshold: rebuild a category's buffers once the
#: cumulative overlay mutations exceed this fraction of its live entries
DEFAULT_OVERLAY_RATIO = 0.25

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
    """One category's inverted label lists: RPLI sections + delta overlay."""

    __slots__ = ("category", "dists", "members", "slices", "rank_slices",
                 "hub_ranks", "overlay_ratio", "version", "_base", "_file",
                 "_undecoded", "_lock", "_pending", "_tombstones",
                 "_hub_of_rank", "_live", "_num_hubs", "_dead",
                 "_overlay_ops")

    def __init__(self, category: CategoryId, hubs, ranks, starts, dists,
                 members, index_file=None):
        self.category = category
        #: the five base sections (typed views), None once :meth:`compact`
        #: has folded them into the decoded lists
        self._base: Optional[Tuple] = (hubs, ranks, starts, dists, members)
        #: the open index file the base is a view into (kept so the
        #: mapping outlives it), or None for a private buffer
        self._file = index_file
        # Decoded runs (process-local, grow-only between compactions).
        self.dists: List[Cost] = []
        self.members: List[Vertex] = []
        #: hub vertex -> (lo, hi) half-open decoded run
        self.slices: Dict[Vertex, Tuple[int, int]] = {}
        #: the same runs keyed by hub *rank* — FindNN cursors probe this
        #: with ranks straight off the Lout section, skipping the
        #: rank -> vertex translation per label entry
        self.rank_slices: Dict[int, Tuple[int, int]] = {}
        #: hub vertex -> rank of every decoded or overlay-touched hub
        self.hub_ranks: Dict[Vertex, int] = {}
        #: rank -> (hub, lo, hi) of base runs not decoded yet (None until
        #: the hub-level sections are first read)
        self._undecoded: Optional[Dict[int, Tuple[Vertex, int, int]]] = None
        self._lock = threading.Lock()
        self.overlay_ratio: float = DEFAULT_OVERLAY_RATIO
        #: bumped by every overlay mutation and by :meth:`compact` (the
        #: engine's ``index_epoch`` sums these; lazy query-time decodes and
        #: patches are physical-only and intentionally do *not* bump it)
        self.version = 0
        # ---- delta overlay ------------------------------------------------
        #: hub rank -> sorted pending (dist, member) inserts
        self._pending: Dict[int, Run] = {}
        #: hub rank -> (dist, member) keys deleted from the base run
        self._tombstones: Dict[int, Set[Tuple[Cost, Vertex]]] = {}
        #: rank -> hub vertex for every overlay-touched rank
        self._hub_of_rank: Dict[int, Vertex] = {}
        #: logical entry count (base − tombstones + pending)
        self._live = len(members)
        #: hubs with a non-empty effective run (pending deltas excluded)
        self._num_hubs = len(ranks)
        #: list elements orphaned by lazy patches (reclaimed by compact)
        self._dead = 0
        #: overlay mutations since the last compaction (threshold feed)
        self._overlay_ops = 0

    @classmethod
    def empty(cls, category: CategoryId,
              overlay_ratio: Optional[float] = None) -> "PackedInvertedIndex":
        """A fresh index with no entries (new categories start here)."""
        index = cls(category, *_encode_runs(()))
        if overlay_ratio is not None:
            index.overlay_ratio = overlay_ratio
        return index

    @property
    def shared(self) -> bool:
        """True while the base sections are views into an index file."""
        return self._file is not None

    # ------------------------------------------------------------------
    # Lazy run decode (caller holds ``_lock``)
    # ------------------------------------------------------------------
    def _directory(self) -> Dict[int, Tuple[Vertex, int, int]]:
        """The still-undecoded base runs, reading the hub sections once."""
        undecoded = self._undecoded
        if undecoded is None:
            hubs, ranks, starts = (view.tolist() for view in self._base[:3])
            undecoded = self._undecoded = {
                rank: (hub, starts[i], starts[i + 1])
                for i, (rank, hub) in enumerate(zip(ranks, hubs))}
        return undecoded

    def _decode_run(self, rank: int) -> None:
        """Decode one base run; no-op when already decoded or absent."""
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

    # ------------------------------------------------------------------
    # Delta overlay: incremental category updates (Sec. IV-C)
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True when overlay entries are waiting to be merged into runs."""
        return bool(self._pending) or bool(self._tombstones)

    @property
    def overlay_entries(self) -> int:
        """Pending inserts + tombstones currently sitting in the overlay."""
        return (sum(len(p) for p in self._pending.values())
                + sum(len(t) for t in self._tombstones.values()))

    def overlay_insert(self, hub: Vertex, rank: int, dist: Cost,
                       member: Vertex) -> None:
        """Stage one ``(dist, member)`` insert under ``hub`` in the overlay.

        A pending insert that matches an outstanding tombstone cancels it
        (the net effect of remove-then-re-add is the base entry itself).
        """
        self._hub_of_rank[rank] = hub
        self.hub_ranks[hub] = rank
        key = (dist, member)
        tombs = self._tombstones.get(rank)
        if tombs and key in tombs:
            tombs.remove(key)
            if not tombs:
                del self._tombstones[rank]
        else:
            insort(self._pending.setdefault(rank, []), key)
        self._live += 1
        self._overlay_ops += 1
        self.version += 1

    def overlay_remove(self, hub: Vertex, rank: int, dist: Cost,
                       member: Vertex) -> bool:
        """Stage one deletion; returns False (no-op) when the entry is absent.

        Pending inserts are cancelled directly; base entries get a
        tombstone that the lazy patch and :meth:`compact` filter out.
        """
        key = (dist, member)
        pend = self._pending.get(rank)
        if pend and key in pend:
            pend.remove(key)
            if not pend:
                del self._pending[rank]
        else:
            tombs = self._tombstones.get(rank)
            if tombs and key in tombs:
                return False  # already deleted
            if not self._base_run_contains(rank, dist, member):
                return False
            self._hub_of_rank[rank] = hub
            self.hub_ranks[hub] = rank
            self._tombstones.setdefault(rank, set()).add(key)
        self._live -= 1
        self._overlay_ops += 1
        self.version += 1
        return True

    def _base_run_contains(self, rank: int, dist: Cost, member: Vertex) -> bool:
        """Binary-search ``(dist, member)`` inside the rank's decoded run."""
        with self._lock:
            self._decode_run(rank)
        lo, end = self.rank_slices.get(rank, _EMPTY_SLICE)
        dists, members = self.dists, self.members
        key = (dist, member)
        hi = end
        while lo < hi:
            mid = (lo + hi) // 2
            if (dists[mid], members[mid]) < key:
                lo = mid + 1
            else:
                hi = mid
        return lo < end and (dists[lo], members[lo]) == key

    def patch_ranks(self, ranks) -> None:
        """Settle the runs of ``ranks``: decode them, fold their deltas in.

        Called by cursor creation right before a scan; hub runs the query
        never touches stay undecoded and keep their deltas pending.  Once
        every run is decoded and the overlay is empty this is three
        attribute reads.
        """
        if self._undecoded is not None and not (
                self._undecoded or self._pending or self._tombstones):
            return
        with self._lock:
            for rank in self._directory().keys() & ranks:
                self._decode_run(rank)
            overlay = self._pending.keys() | self._tombstones.keys()
            for rank in overlay.intersection(ranks):
                self._patch_rank(rank)

    def fold_overlay(self) -> None:
        """Merge every outstanding overlay delta into the decoded runs.

        Purely physical (no version change, identical results); only the
        overlay-touched runs get decoded.  Afterwards cursor creation
        never patches, just decodes.
        """
        if not self.dirty:
            return
        with self._lock:
            for rank in list(self._pending.keys() | self._tombstones.keys()):
                self._patch_rank(rank)

    def _patch_all(self) -> None:
        """Decode every base run and fold the whole overlay in."""
        if self._undecoded is None or self._undecoded:
            with self._lock:
                for rank in list(self._directory()):
                    self._decode_run(rank)
        self.fold_overlay()

    def _patch_rank(self, rank: int) -> None:
        """Append-then-sort the effective run of ``rank`` and repoint slices.

        Caller holds ``_lock``.  The old region stays behind as garbage
        (counted in ``_dead``) until :meth:`compact`; live cursors holding
        positions into other runs are unaffected because lists only grow.
        """
        self._decode_run(rank)
        pend = self._pending.get(rank)
        tombs = self._tombstones.get(rank)
        lo, hi = self.rank_slices.get(rank, _EMPTY_SLICE)
        dists, members = self.dists, self.members
        if tombs:
            run = [(dists[i], members[i]) for i in range(lo, hi)
                   if (dists[i], members[i]) not in tombs]
        else:
            run = list(zip(dists[lo:hi], members[lo:hi]))
        if pend:
            run += pend
            run.sort()
        self._dead += hi - lo
        self._num_hubs += bool(run) - (hi > lo)
        hub = self._hub_of_rank[rank]
        if run:
            new_lo = len(dists)
            for d, m in run:
                dists.append(d)
                members.append(m)
            sl = (new_lo, len(dists))
            self.rank_slices[rank] = sl
            self.slices[hub] = sl
        else:
            self.rank_slices.pop(rank, None)
            self.slices.pop(hub, None)
        # Last, so a lock-free reader that sees a clean overlay also sees
        # the repointed slices.
        self._pending.pop(rank, None)
        self._tombstones.pop(rank, None)

    def compact(self) -> None:
        """Fold the overlay in and rebuild the decoded lists garbage-free.

        Purely physical: the effective per-hub runs — and therefore every
        query result — are unchanged (property-tested).  A category that
        saw overlay traffic ends up fully decoded and lets go of its base
        sections; one that saw none has nothing to fold and keeps them.
        Resets the compaction-threshold accounting.
        """
        if self._overlay_ops:
            self._patch_all()
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
            self._file = None
            self._overlay_ops = 0
        self.version += 1

    def maybe_compact(self) -> bool:
        """Compact when overlay traffic exceeds ``overlay_ratio`` of live size."""
        if self._overlay_ops > self.overlay_ratio * max(1, self._live):
            self.compact()
            return True
        return False

    # ------------------------------------------------------------------
    # Whole-index views (decode everything; not on any query path)
    # ------------------------------------------------------------------
    def hub_slice(self, hub: Vertex) -> Tuple[int, int]:
        """``(lo, hi)`` run of ``hub`` (``(0, 0)`` when the hub is unused)."""
        self._patch_all()
        return self.slices.get(hub, _EMPTY_SLICE)

    def hub_list(self, hub: Vertex) -> Run:
        """Materialise one hub's sorted ``(dist, member)`` list (compat view)."""
        lo, hi = self.hub_slice(hub)
        return list(zip(self.dists[lo:hi], self.members[lo:hi]))

    def as_lists(self) -> Dict[Vertex, Run]:
        """Hub -> sorted ``(dist, member)`` lists of the effective index."""
        self._patch_all()
        return {hub: list(zip(self.dists[lo:hi], self.members[lo:hi]))
                for hub, (lo, hi) in self.slices.items()}

    def sections(self) -> Tuple:
        """The five RPLI sections of the effective index (what a save writes).

        An index that never saw overlay traffic hands back its base
        sections as they are; otherwise the effective runs are re-encoded.
        """
        if self._base is not None and not self._overlay_ops:
            return self._base
        lists = self.as_lists()
        return _encode_runs(
            (rank, hub, lists[hub])
            for rank, hub in sorted((self.hub_ranks[hub], hub)
                                    for hub in lists))

    # ------------------------------------------------------------------
    # Table IX statistics
    # ------------------------------------------------------------------
    @property
    def total_entries(self) -> int:
        """``|IL(Ci)|`` — total label entries in this category's index."""
        return self._live

    @property
    def num_hubs(self) -> int:
        self.fold_overlay()
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

        The decoded lists as held — including overlay garbage not yet
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
