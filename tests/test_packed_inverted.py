"""Unit tests for one category's read state in ``PackedInvertedIndex``.

A small hand-written category is laid out over read-only typed views (as
an attached index file's sections are), so every test also checks that
no edit ever writes its base sections.  The engine-level behaviour over
real graphs is covered in ``test_mmap_index.py``, ``test_backend_parity.py``
and ``test_overlay_properties.py``; these tests pin the state transitions
themselves: the first read, the first edit, in-place edits, compaction
and the whole-index views.
"""

from array import array

import pytest

from repro.labeling.packed_inverted import COMPACT_RATIO, PackedInvertedIndex

#: ``(rank, hub, [(dist, member), ...])`` in ascending rank order
RUNS = [
    (0, 10, [(1.0, 3), (2.0, 1), (2.0, 5)]),
    (2, 12, [(0.5, 4)]),
    (5, 15, [(3.0, 1), (4.0, 2)]),
]


def _readonly(values, typecode):
    """A read-only typed view, like a section of a mapped index file."""
    return memoryview(array(typecode, values).tobytes()).cast(typecode)


def _index(runs=RUNS, shared=True):
    hubs, ranks, starts, dists, members = [], [], [0], [], []
    for rank, hub, entries in runs:
        ranks.append(rank)
        hubs.append(hub)
        dists.extend(d for d, _ in entries)
        members.extend(m for _, m in entries)
        starts.append(len(members))
    return PackedInvertedIndex(
        7, _readonly(hubs, "q"), _readonly(ranks, "q"),
        _readonly(starts, "q"), _readonly(dists, "d"),
        _readonly(members, "q"), shared=shared)


def _lists(runs=RUNS):
    return {hub: list(entries) for _, hub, entries in runs}


def _tiles(directory, length):
    """The directory's runs are non-empty and cover ``[0, length)``
    exactly once, in rank order."""
    spans = [directory[rank] for rank in sorted(directory)]
    return (all(lo < hi for lo, hi in spans)
            and [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
            and (spans[-1][1] if spans else 0) == length)


def test_directory_is_read_once_from_the_hub_sections():
    index = _index()
    runs = index.runs()
    dists, members, directory = runs
    assert directory == {0: (0, 3), 2: (3, 4), 5: (4, 6)}
    assert _tiles(directory, len(members))
    assert index.runs() is runs  # published, not rebuilt per read


def test_reads_stay_on_the_base_views():
    index = _index()
    base = index.sections()
    dists, members, _ = index.runs()
    assert dists is base[3] and members is base[4]
    assert index.sections() is base  # never edited: handed back as is
    assert index.shared and index.version == 0


def test_whole_index_views_match_the_runs():
    index = _index()
    assert index.as_lists() == _lists()
    assert index.hub_list(15) == [(3.0, 1), (4.0, 2)]
    assert index.hub_list(99) == []
    assert index.total_entries == 6 and index.num_hubs == 3
    assert index.average_list_length() == pytest.approx(2.0)
    assert index.member_count == 5
    assert index.nbytes_serialized == 8 * (2 * 6 + 3 * 3 + 1)


def test_first_edit_goes_to_private_arrays_and_leaves_the_base_unwritten():
    index = _index()
    views = index.sections()
    base = tuple(view.tobytes() for view in views)
    before = index.runs()
    index.insert(10, 0, 1.5, 2)
    after = index.runs()
    assert after is not before
    assert all(type(seq) is array for seq in after[:2])
    # the tuple a live merge was seeded over still reads the old runs
    assert before[2] == {0: (0, 3), 2: (3, 4), 5: (4, 6)}
    assert list(zip(*(seq[0:3] for seq in before[:2]))) == RUNS[0][2]
    assert tuple(view.tobytes() for view in views) == base
    assert index.hub_list(10) == [(1.0, 3), (1.5, 2), (2.0, 1), (2.0, 5)]
    assert index.version == 1 and index.total_entries == 7


def test_later_edits_append_and_repoint_in_place():
    index = _index()
    index.insert(10, 0, 1.5, 2)
    runs = index.runs()
    dists, members, directory = runs
    old_lo, old_hi = directory[0]
    old_run = list(zip(dists[old_lo:old_hi], members[old_lo:old_hi]))
    length = len(members)
    index.remove(10, 0, 2.0, 1)
    assert index.runs() is runs  # no new state: the arrays grew
    # the replaced run stays behind as garbage at its old positions
    assert list(zip(dists[old_lo:old_hi], members[old_lo:old_hi])) == old_run
    lo, hi = directory[0]
    assert lo == length and hi == len(members)
    assert list(zip(dists[lo:hi], members[lo:hi])) == [
        (1.0, 3), (1.5, 2), (2.0, 5)]


def test_equal_distances_are_ordered_by_member():
    index = _index()
    index.insert(10, 0, 2.0, 4)
    index.insert(10, 0, 2.0, 0)
    assert index.hub_list(10) == [
        (1.0, 3), (2.0, 0), (2.0, 1), (2.0, 4), (2.0, 5)]
    assert index.remove(10, 0, 2.0, 4)
    assert index.hub_list(10) == [(1.0, 3), (2.0, 0), (2.0, 1), (2.0, 5)]


def test_removing_an_absent_entry_changes_nothing():
    index = _index()
    runs = index.runs()
    assert not index.remove(10, 0, 9.0, 1)   # no such distance
    assert not index.remove(10, 0, 2.0, 9)   # distance present, member not
    assert not index.remove(11, 1, 1.0, 3)   # no such run
    assert index.runs() is runs and type(runs[1]) is memoryview
    assert index.version == 0 and index.total_entries == 6


def test_removing_the_last_entry_of_a_run_drops_its_hub():
    index = _index()
    assert index.remove(12, 2, 0.5, 4)
    assert 2 not in index.runs()[2]
    assert index.num_hubs == 2 and index.hub_list(12) == []
    hubs, ranks = index.sections()[:2]
    assert hubs.tolist() == [10, 15] and ranks.tolist() == [0, 5]
    assert index.nbytes_serialized == 8 * (2 * 5 + 3 * 2 + 1)


def test_inserting_under_a_new_rank_records_its_hub():
    index = _index()
    index.insert(11, 1, 0.25, 6)
    assert index.num_hubs == 4
    assert index.hub_list(11) == [(0.25, 6)]
    hubs, ranks, starts, dists, members = index.sections()
    assert hubs.tolist() == [10, 11, 12, 15]
    assert ranks.tolist() == [0, 1, 2, 5]
    assert starts.tolist() == [0, 3, 4, 5, 7]
    assert members.tolist() == [3, 1, 5, 6, 4, 1, 2]


def test_sections_of_an_edited_index_round_trip_and_leave_it_growable():
    index = _index()
    index.insert(11, 1, 0.25, 6)
    index.remove(10, 0, 1.0, 3)
    copy = PackedInvertedIndex(7, *index.sections())
    assert copy.as_lists() == index.as_lists()
    assert _tiles(copy.runs()[2], len(copy.runs()[1]))
    # no view of the private arrays escaped, so they can still grow
    index.insert(15, 5, 5.0, 6)
    assert index.hub_list(15) == [(3.0, 1), (4.0, 2), (5.0, 6)]


def test_compact_rebuilds_without_garbage_and_drops_the_base():
    index = _index()
    for member in (6, 7, 8):
        index.insert(10, 0, 1.5, member)
    index.remove(15, 5, 3.0, 1)
    lists = index.as_lists()
    assert len(index.runs()[1]) > index.total_entries  # garbage held
    version = index.version
    index.compact()
    dists, members, directory = index.runs()
    assert len(members) == len(dists) == index.total_entries == 8
    assert _tiles(directory, len(members))
    assert index.as_lists() == lists
    assert type(members) is array and not index.shared
    assert index.version == version + 1
    # a compacted index still takes edits
    index.insert(12, 2, 0.75, 9)
    assert index.hub_list(12) == [(0.5, 4), (0.75, 9)]


def test_compact_without_edits_keeps_the_base():
    index = _index()
    base = index.sections()
    index.compact()
    assert index.runs()[1] is base[4] and index.sections() is base
    assert index.shared and index.version == 1


def test_maybe_compact_follows_the_ratio():
    index = _index()
    edits = 0
    for member in range(6, 20):
        index.insert(10, 0, 5.0, member)
        edits += 1
        due = edits > COMPACT_RATIO * index.total_entries
        assert index.maybe_compact() is due
        if due:
            edits = 0
            assert len(index.runs()[1]) == index.total_entries
    assert index.as_lists()[10][3:] == [(5.0, m) for m in range(6, 20)]


def test_empty_index_takes_its_first_entries():
    index = PackedInvertedIndex.empty(3)
    dists, members, directory = index.runs()
    assert len(dists) == len(members) == 0 and directory == {}
    assert index.member_count == 0 and index.num_hubs == 0
    assert index.average_list_length() == 0.0
    index.adjust_member_count(+1)
    index.insert(4, 1, 2.5, 8)
    assert index.as_lists() == {4: [(2.5, 8)]}
    assert index.member_count == 1 and index.num_hubs == 1


def test_member_count_is_kept_by_adjustments_not_recounted():
    index = _index()
    assert index.member_count == 5
    index.adjust_member_count(+1)  # before the new member's entries land
    index.insert(10, 0, 0.5, 6)
    index.insert(15, 5, 0.5, 6)
    assert index.member_count == 6
    index.compact()
    assert index.member_count == 6


def test_resident_bytes_count_the_directory_then_the_private_arrays():
    index = _index()
    views_only = index.nbytes_resident
    # a private build also owns its 22 section elements; shared views don't
    assert _index(shared=False).nbytes_resident - views_only == 8 * 22
    index.runs()
    with_directory = index.nbytes_resident
    assert with_directory > views_only
    index.insert(10, 0, 1.5, 2)
    private = index.nbytes_resident
    assert private - with_directory >= 8 * (2 * len(index.runs()[1]))
