"""The single-file packed index: format, zero-copy views, shared fleets.

Covers the RPLI v2 on-disk format (fixed layout, offset-indexed — no
per-entry decode on load), the read-only mmap attachment path
(:mod:`repro.labeling.mmap_index`), hardened load error paths
(truncated/corrupted files fail with the offending path and byte
offset), resident-vs-serialized memory accounting, updates editing
private run copies on top of the never-written file, and the sharded
build-once/attach-many worker fleet.
"""

import gc
import hashlib
import os
import pickle
import random
import struct
import sys
import threading
import tracemalloc

import pytest

from conftest import reference_engine
from reference_labels import lin, lout
from repro import KOSREngine, QueryOptions, make_query
from repro.exceptions import IndexStorageError, QueryError
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.mmap_index import MmapIndexFile
from repro.labeling.packed import PackedLabelIndex, write_index_file
from repro.labeling.packed_inverted import (
    PackedInvertedIndex,
    build_packed_inverted_index,
)
from repro.nn.label_nn import PackedLabelNNFinder
from test_backend_parity import assert_same_outcome

SK = QueryOptions(method="SK")


def _graph(seed: int, n: int = 36, cats: int = 4, size: int = 6):
    g = random_graph(n, avg_out_degree=2.7, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A built packed engine plus its saved single-file index."""
    g = _graph(7)
    engine = KOSREngine.build(g)
    path = tmp_path_factory.mktemp("idx") / "index.rpli"
    written = engine.save_index(path)
    return g, engine, path, written


# ---------------------------------------------------------------------------
# Format round-trips (both readers over both writers)
# ---------------------------------------------------------------------------
class TestFormatRoundTrip:
    def test_write_size_matches_file(self, built):
        _, _, path, written = built
        assert written == os.path.getsize(path)

    def test_mmap_labels_match_engine_save(self, built):
        """The reader's labels over a file written with inverted sections."""
        g, engine, path, _ = built
        loaded = MmapIndexFile.open(path).labels
        assert list(loaded.order) == list(engine.labels.order)
        for v in (0, 1, g.num_vertices - 1):
            assert lin(loaded, v) == lin(engine.labels, v)
            assert lout(loaded, v) == lout(engine.labels, v)

    def test_mmap_reader_opens_labels_only_save(self, built, tmp_path):
        """A labels-only `write_index_file` opens through the mmap reader."""
        g, engine, _, _ = built
        path = tmp_path / "labels_only.rpli"
        write_index_file(path, engine.labels)
        f = MmapIndexFile.open(path)
        try:
            assert not f.has_inverted
            assert f.num_vertices == g.num_vertices
            assert f.category_ids() == []
            assert list(f.labels.order) == list(engine.labels.order)
        finally:
            f.close()

    def test_mmap_views_match_builder(self, built):
        g, engine, path, _ = built
        f = MmapIndexFile.open(path)
        try:
            assert f.has_inverted
            assert f.size_bytes == os.path.getsize(path)
            assert sorted(f.category_ids()) == sorted(engine.inverted)
            for cid, il in engine.inverted.items():
                view = f.inverted_view(cid)
                assert isinstance(view, PackedInvertedIndex) and view.shared
                assert view.total_entries == il.total_entries
                assert view.num_hubs == il.num_hubs
                assert view.as_lists() == il.as_lists()
        finally:
            f.close()

    def test_missing_category_view_raises(self, built):
        _, _, path, _ = built
        f = MmapIndexFile.open(path)
        try:
            with pytest.raises(IndexStorageError):
                f.inverted_view(999)
        finally:
            f.close()


# ---------------------------------------------------------------------------
# Hardened load error paths (satellite: corrupted files)
# ---------------------------------------------------------------------------
class TestCorruptFiles:
    def _save(self, tmp_path, name="base.rpli"):
        g = _graph(13, n=18, cats=2, size=4)
        engine = KOSREngine.build(g)
        path = tmp_path / name
        engine.save_index(path)
        return path

    def _open(self, reader, path):
        """Open ``path`` with the file reader or the engine's attach path."""
        if reader == "mmap":
            return MmapIndexFile.open(path)
        return KOSREngine.from_index_file(_graph(13, n=18, cats=2, size=4),
                                          path)

    def _assert_storage_error(self, path, excinfo):
        message = str(excinfo.value)
        assert str(path) in message
        assert "byte offset" in message

    @pytest.mark.parametrize("reader", ["mmap", "engine"])
    def test_truncated_header(self, tmp_path, reader):
        path = tmp_path / "short.rpli"
        path.write_bytes(b"RPLI\x02\x00")
        with pytest.raises(IndexStorageError) as excinfo:
            self._open(reader, path)
        self._assert_storage_error(path, excinfo)
        assert "truncated header" in str(excinfo.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.rpli"
        path.write_bytes(b"")
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    @pytest.mark.parametrize("reader", ["mmap", "engine"])
    def test_wrong_magic(self, tmp_path, reader):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            self._open(reader, path)
        self._assert_storage_error(path, excinfo)
        assert "(byte offset 0)" in str(excinfo.value)

    def test_future_version(self, tmp_path):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)
        assert "unsupported index version 99" in str(excinfo.value)

    def test_corrupt_offsets_table(self, tmp_path):
        """A section offset pointing past EOF names the table entry."""
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        # Entry 0 of the section table lives right after the header.
        struct.pack_into("<Q", data, 48, len(data) + 4096)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)
        assert "(byte offset 48)" in str(excinfo.value)

    def test_misaligned_section_offset(self, tmp_path):
        path = self._save(tmp_path)
        data = bytearray(path.read_bytes())
        off = struct.unpack_from("<Q", data, 48)[0]
        struct.pack_into("<Q", data, 48, off + 3)
        path.write_bytes(bytes(data))
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    def test_truncated_payload(self, tmp_path):
        path = self._save(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    def test_truncated_section_table(self, tmp_path):
        path = self._save(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:52])
        with pytest.raises(IndexStorageError) as excinfo:
            MmapIndexFile.open(path)
        self._assert_storage_error(path, excinfo)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        path = self._save(tmp_path)
        other = _graph(99, n=30, cats=2, size=4)
        with pytest.raises(IndexStorageError) as excinfo:
            KOSREngine.from_index_file(other, path)
        assert "vertices" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Zero-copy attachment semantics
# ---------------------------------------------------------------------------
class TestAttachedEngine:
    def test_attach_is_mmap_backed(self, built):
        g, builder, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        # one label-index and one inverted-index class serve both backings
        assert type(engine.labels) is type(builder.labels) is PackedLabelIndex
        assert engine.labels.shared and not builder.labels.shared
        for cid, il in engine.inverted.items():
            assert type(il) is type(builder.inverted[cid]) is PackedInvertedIndex
            assert il.shared and not builder.inverted[cid].shared

    def test_first_write_to_attached_category_never_touches_the_file(
            self, built):
        """Add/remove on an attached category: private copies, file intact.

        No materialise step: the category keeps its index object, its
        file-backed base and its version counter's continuity; answers
        *and* counters equal a fresh reference engine's; the file's bytes
        are unchanged and a second engine attached to the same file still
        serves the pre-update lists.
        """
        g0, _, path, _ = built
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        g = g0.copy()
        engine = KOSREngine.from_index_file(g, path)
        bystander = KOSREngine.from_index_file(g0.copy(), path)
        before = {cid: il.as_lists()
                  for cid, il in bystander.inverted.items()}
        rng = random.Random(19)

        def check_against_reference():
            ref = reference_engine(g)
            for _ in range(6):
                s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
                q = make_query(g, s, t, rng.sample(range(2), 2) + [2], k=3)
                for method in ("SK", "PK", "KPNE"):
                    options = QueryOptions(method=method)
                    assert_same_outcome(engine.run(q, options),
                                        ref.run(q, options))

        added_to, removed_from = 0, 1
        il_added, il_removed = engine.inverted[0], engine.inverted[1]
        outsider = next(v for v in range(g.num_vertices)
                        if not g.has_category(v, added_to))
        engine.add_vertex_to_category(outsider, added_to)
        check_against_reference()
        member = sorted(g.members(removed_from))[0]
        engine.remove_vertex_from_category(member, removed_from)
        check_against_reference()

        versions = engine.category_versions()
        assert versions[added_to] == len(lin(engine.labels, outsider))
        assert versions[removed_from] == len(lin(engine.labels, member))
        assert versions[2] == versions[3] == 0
        assert engine.inverted[0] is il_added and il_added.shared
        assert engine.inverted[1] is il_removed and il_removed.shared
        for cid in (0, 1):
            fresh = build_packed_inverted_index(g, engine.labels, cid)
            assert engine.inverted[cid].as_lists() == fresh.as_lists()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        for cid, il in bystander.inverted.items():
            assert il.as_lists() == before[cid]
        fresh_attach = KOSREngine.from_index_file(g0.copy(), path)
        assert fresh_attach.inverted[0].as_lists() == before[0]

    def test_resaving_over_an_attached_file_leaves_its_readers_intact(
            self, built, tmp_path):
        """``write_index_file`` replaces the target, it never truncates
        it: an engine still mapped to the old file keeps answering from
        it, and a fresh attach sees the complete new content."""
        g, builder, _, _ = built
        path = tmp_path / "index.rpli"
        builder.save_index(path)
        attached = KOSREngine.from_index_file(g, path)
        queries = [make_query(g, s, t, [0, 2, 1], k=3)
                   for s, t in ((0, 30), (5, 12), (20, 3), (9, 33))]
        before = [attached.run(q) for q in queries]
        # a different graph's (smaller) index lands on the same path
        other = _graph(99, n=12, cats=2, size=3)
        KOSREngine.build(other).save_index(path)
        for q, want in zip(queries, before):
            assert_same_outcome(attached.run(q), want)
        fresh = MmapIndexFile.open(path)
        try:
            assert fresh.num_vertices == other.num_vertices
            assert fresh.size_bytes == os.path.getsize(path)
        finally:
            fresh.close()
        assert os.listdir(tmp_path) == ["index.rpli"]  # no temp left over

    def test_update_edge_detaches_and_releases_the_index_file(self, built):
        """A structure update rebuilds everything privately: the engine
        must stop reporting (and holding) a file nothing is served from."""
        g0, _, path, _ = built
        g = g0.copy()
        engine = KOSREngine.from_index_file(g, path)
        index_file = engine._index_file
        assert engine.index_memory()["index_file"] == str(path)
        engine.update_edge(0, g.num_vertices - 1, 0.5)
        mem = engine.index_memory()
        assert mem["shared"] is False and mem["inverted_shared"] == 0
        assert "index_file" not in mem and "index_file_bytes" not in mem
        assert engine._index_file is None
        assert index_file._mm.closed  # mapping released, not just forgotten
        q = make_query(g, 1, g.num_vertices - 2, [0, 1], k=3)
        assert_same_outcome(engine.run(q, SK),
                            reference_engine(g).run(q, SK))

    def test_readers_racing_edits_and_compaction_match_serial(self, built):
        """Three threads seed FindNN cursors while one edits the category.

        The editor inserts an entry into every run (the first insert is
        the category's first edit, which publishes private copies),
        compacts, and removes every entry again.  Every run slice a
        reader gets lies inside the sequences it read it with, a seeding
        never fails, and the end state equals a serial one.  Repeated
        under a shortened switch interval over fresh attached views,
        since the first edit happens once per view.
        """
        _, _, path, _ = built
        index_file = MmapIndexFile.open(path)
        labels = index_file.labels
        serial = index_file.inverted_view(0)
        expected = serial.as_lists()
        hubs, ranks = (view.tolist() for view in serial.sections()[:2])
        extra = list(enumerate(zip(hubs, ranks), 10 ** 6))
        errors = []

        def read(racing, barrier, seed):
            try:
                rng = random.Random(seed)
                barrier.wait(timeout=10)
                for _ in range(40):
                    dists, members, directory = racing.runs()
                    for rank in ranks:
                        lo, hi = directory.get(rank, (0, 0))
                        assert 0 <= lo <= hi <= min(len(dists),
                                                    len(members))
                    finder = PackedLabelNNFinder(labels, {0: racing})
                    finder.find(rng.randrange(labels.num_vertices), 0, 2)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def edit(racing, barrier):
            try:
                barrier.wait(timeout=10)
                for member, (hub, rank) in extra:
                    racing.insert(hub, rank, 0.5, member)
                racing.compact()
                for member, (hub, rank) in extra:
                    assert racing.remove(hub, rank, 0.5, member)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(8):
                racing = index_file.inverted_view(0)
                barrier = threading.Barrier(4)
                threads = [threading.Thread(target=read,
                                            args=(racing, barrier, seed))
                           for seed in range(3 * round_, 3 * round_ + 3)]
                threads.append(threading.Thread(target=edit,
                                                args=(racing, barrier)))
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert not errors
                assert racing.as_lists() == expected
                assert racing.total_entries == serial.total_entries
                assert sorted(racing.runs()[2]) == sorted(ranks)
        finally:
            sys.setswitchinterval(interval)

    def test_interleaved_queries_identical_on_builder_and_attachment(
            self, built):
        """Interleaved queries on builder vs attachment stay identical."""
        g, builder, path, _ = built
        attached = KOSREngine.from_index_file(g, path)
        rng = random.Random(3)
        for _ in range(10):
            s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), rng.choice((1, 2)))
            q = make_query(g, s, t, cats, k=3)
            for method in ("SK", "PK", "KPNE"):
                a = attached.run(q, QueryOptions(method=method))
                b = builder.run(q, QueryOptions(method=method))
                assert a.witnesses == b.witnesses
                assert a.costs == pytest.approx(b.costs)
                assert a.stats.nn_queries == b.stats.nn_queries
                assert a.stats.examined_routes == b.stats.examined_routes


# ---------------------------------------------------------------------------
# Memory accounting (satellite: resident vs serialized)
# ---------------------------------------------------------------------------
class TestMemoryAccounting:
    def test_built_resident_exceeds_serialized(self, built):
        """A private buffer costs its sections plus its run directories."""
        _, engine, _, _ = built
        labels = engine.labels
        assert labels.nbytes_serialized > 0
        assert labels.nbytes_resident > labels.nbytes_serialized
        assert labels.nbytes == labels.nbytes_resident
        for il in engine.inverted.values():
            assert il.nbytes_resident > il.nbytes_serialized > 0

    def test_mmap_resident_is_tiny(self, built):
        g, _, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        labels = engine.labels
        # memoryview slices into the file: resident cost is bookkeeping,
        # not data.
        assert labels.nbytes_resident < labels.nbytes_serialized / 4
        mem = engine.index_memory()
        assert mem["shared"] is True
        assert "backend" not in mem
        assert mem["inverted_shared"] == mem["inverted_categories"]
        assert mem["index_file_bytes"] == os.path.getsize(path)
        assert mem["total_resident"] < mem["total_serialized"]

    def test_builder_index_memory_not_shared(self, built):
        _, engine, _, _ = built
        mem = engine.index_memory()
        assert mem["shared"] is False
        assert mem["inverted_shared"] == 0
        assert mem["total_resident"] > mem["total_serialized"]

    def test_query_never_makes_an_attached_category_private(self, built):
        """Queries read the runs in the mapped sections: no category of an
        attached engine holds a private copy afterwards."""
        g, _, path, _ = built
        engine = KOSREngine.from_index_file(g, path)
        for s, t in ((0, g.num_vertices - 1), (3, 17), (20, 5)):
            q = make_query(g, s, t, list(range(g.num_categories)), k=3)
            engine.run(q, SK)
        mem = engine.index_memory()
        assert mem["shared"] is True
        assert mem["inverted_shared"] == mem["inverted_categories"]
        for il in engine.inverted.values():
            assert il.shared
            dists, members, _ = il.runs()
            assert type(dists) is type(members) is memoryview

    def test_touching_every_run_allocates_nothing_per_entry(self, tmp_path):
        """Seeding a cursor from every vertex of an attached engine touches
        every run of a category (each hub is its own ``Lout`` hub).  What
        the category keeps afterwards, and what the pass allocates at its
        peak, are bounded by the size of a ``rank -> (lo, hi)`` directory
        of its runs, measured here on a same-shaped dict: no object per
        label entry, kept or passing through."""
        g = _graph(41, n=240, cats=2, size=60)
        path = tmp_path / "dense.rpli"
        KOSREngine.build(g).save_index(path)
        index_file = MmapIndexFile.open(path)
        labels = index_file.labels

        def touch_every_run(view):
            for source in range(g.num_vertices):
                PackedLabelNNFinder(labels, {0: view}).find(source, 0, 1)

        touch_every_run(index_file.inverted_view(0))  # warm the free lists
        view = index_file.inverted_view(0)
        runs, entries = view.num_hubs, view.total_entries
        assert entries > 3 * runs  # a per-entry copy would dominate
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            # rank -> (lo, hi), every rank and position its own int
            starts = list(range(10 ** 6, 10 ** 6 + runs + 1))
            directory = dict(zip(range(10 ** 7, 10 ** 7 + runs),
                                 zip(starts, starts[1:])))
            directory_bytes = tracemalloc.get_traced_memory()[0] - base
            del directory, starts
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            touch_every_run(view)
            gc.collect()
            grown, peak = (size - base
                           for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        # kept: the directory; passing through: it, its two section lists
        # and one seeding's state, never a copy of the runs
        assert grown <= directory_bytes, (grown, directory_bytes, entries)
        assert peak <= 2 * directory_bytes, (peak, directory_bytes, entries)


# ---------------------------------------------------------------------------
# Sharded fleet: build once in the parent, attach in every worker
# ---------------------------------------------------------------------------
class TestMmapFleet:
    @pytest.fixture(scope="class")
    def workload(self):
        g = _graph(31)
        engine = KOSREngine.build(g)
        rng = random.Random(17)
        queries = []
        for _ in range(10):
            s, t = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            cats = rng.sample(range(g.num_categories), 2)
            queries.append((s, t, cats))
        expected = [engine.run(make_query(g, s, t, cats, k=3), SK)
                    for s, t, cats in queries]
        return g, engine, queries, expected

    def _check_fleet(self, service, g, queries, expected):
        for (s, t, cats), want in zip(queries, expected):
            got = service.run(service.make_query(s, t, cats, k=3))
            assert got.witnesses == want.witnesses
            assert got.costs == pytest.approx(want.costs)
            assert got.stats.nn_queries == want.stats.nn_queries

    def test_attach_fleet_to_prebuilt_file(self, workload):
        from repro.shard import ShardedQueryService

        g, engine, queries, expected = workload
        import tempfile

        fd, path = tempfile.mkstemp(suffix=".rpli")
        os.close(fd)
        try:
            engine.save_index(path)
            service = ShardedQueryService(g, 2, index_path=path)
            try:
                assert service.index_path == path
                self._check_fleet(service, g, queries, expected)
                mem = service.index_memory()
                assert mem["shared"] is True
                assert mem["num_shards"] == 2
                assert len(mem["shards"]) == 2
                for shard in mem["shards"]:
                    assert shard["shared"] is True
                    assert shard["rss_bytes"] >= 0
            finally:
                service.close()
            assert os.path.exists(path)  # caller-owned file survives close
        finally:
            os.unlink(path)

    def test_fleet_updates_stay_correct(self, workload, tmp_path):
        from repro.shard import ShardedQueryService

        g0, engine, _, _ = workload
        # Private graph copy: updates here must not leak into `workload`.
        g = _graph(31)
        path = tmp_path / "fleet.rpli"
        engine.save_index(path)
        service = ShardedQueryService(g, 2, index_path=path)
        try:
            cid = 0
            v = next(v for v in range(g.num_vertices)
                     if not g.has_category(v, cid))
            service.add_vertex_to_category(v, cid)
            reference = KOSREngine.build(g)
            q = service.make_query(0, g.num_vertices - 1, [0, 1], k=3)
            got = service.run(q)
            want = reference.run(q, SK)
            assert got.witnesses == want.witnesses
            assert got.costs == pytest.approx(want.costs)
            assert got.stats.nn_queries == want.stats.nn_queries
        finally:
            service.close()
        assert g0.num_vertices == g.num_vertices

    def test_mismatched_graph_rejected(self, workload, tmp_path):
        from repro.shard import ShardedQueryService

        g, engine, _, _ = workload
        path = tmp_path / "fleet.rpli"
        engine.save_index(path)
        other = _graph(99, n=12, cats=2, size=3)
        with pytest.raises(QueryError):
            ShardedQueryService(other, 2, index_path=str(path))

    def test_parent_built_temp_index_knob_is_gone(self, workload):
        """The fleet has two bootstraps — labels over the pipe or
        ``index_path=`` — and no third."""
        from repro.shard import ShardedQueryService

        with pytest.raises(TypeError, match="mmap_index"):
            ShardedQueryService(workload[0], 2, mmap_index=True)


# ---------------------------------------------------------------------------
# Pipe framing (satellite: pinned pickle protocol)
# ---------------------------------------------------------------------------
class TestPipeFraming:
    def test_protocol_is_highest(self):
        from repro.shard.worker import PIPE_PICKLE_PROTOCOL

        assert PIPE_PICKLE_PROTOCOL == pickle.HIGHEST_PROTOCOL

    def test_round_trip_over_real_pipe(self):
        import multiprocessing as mp

        from repro.shard.worker import pipe_recv, pipe_send

        a, b = mp.Pipe()
        payload = {"rows": [[float(i), i] for i in range(100)], "ok": True}
        pipe_send(a, payload)
        assert pipe_recv(b) == payload
        a.close()
        b.close()

    @pytest.mark.parametrize("backing", ["built", "attached"])
    def test_labels_survive_a_worker_pipe(self, built, backing):
        """Section-backed labels pickled over a pipe, as a spawn-method
        shard worker's start-up arguments are.

        The receiver gets a private copy (never a handle on the sender's
        buffer or file) that answers ``distance``, ``path`` and
        ``restore_witness_route`` identically.
        """
        import multiprocessing as mp

        from repro.shard.worker import pipe_recv, pipe_send

        g, engine, path, _ = built
        if backing == "attached":
            engine = KOSREngine.from_index_file(g, path)
        sent = engine.labels
        a, b = mp.Pipe()
        try:
            pipe_send(a, sent)
            received = pipe_recv(b)
        finally:
            a.close()
            b.close()
        assert type(received) is PackedLabelIndex and not received.shared
        assert list(received.order) == list(sent.order)
        n = g.num_vertices
        for s in range(n):
            for t in range(n):
                assert received.distance(s, t) == sent.distance(s, t)
                assert received.path(s, t) == sent.path(s, t)
        witness = [0, n // 3, n // 3, n // 2, n - 1]
        assert received.restore_witness_route(witness) == \
            sent.restore_witness_route(witness)
