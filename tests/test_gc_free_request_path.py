"""The request path leaves nothing for the garbage collector.

FindNEN streams (:class:`~repro.nn.estimated.EstStream`) and FindNN
cursors (:class:`~repro.nn.label_nn.PackedLabelNNFinder`'s merges) run
their state machines in generators.  A generator whose frame holds the
object that holds the generator is a reference cycle: reference
counting never frees it, and a collection frees it by *finalising* the
generator, so ``gc.collect()``'s return value does not even count it.  An SK-DB attachment's index file
and its cached labels were such a pair too.

Each test runs SK, PK, KPNE, SK-NODOM and SK-DB queries with the
collector off — cold through ``KOSREngine.run``, warm through a
``QueryService`` whose small caps evict, and through the TCP front door
— then counts the live objects of the watched types, runs one
collection and counts again.  The counts must be equal: what a path
keeps is reachable, and what it dropped was freed when its last
reference went.  What a warm session keeps per FindNN cursor, its
``NL`` buffer, is not even a container the collector tracks, and no
merge generator or FindNEN producer outlives the session's
between-queries suspension.
"""

import asyncio
import gc
import json
import mmap
import random
import types
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import KOSREngine, QueryOptions, QueryService
from repro.graph import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.labeling.mmap_index import MmapIndexFile
from repro.nn.estimated import EstStream
from repro.nn.label_nn import PackedLabelNNFinder

METHODS = ("SK", "PK", "KPNE", "SK-NODOM", "SK-DB")

#: the objects whose cycles this file pins: FindNEN streams, the
#: generators of streams and FindNN merges, and SK-DB's per-query index
#: mappings
WATCHED = (EstStream, types.GeneratorType, MmapIndexFile, mmap.mmap)


def _census() -> Counter:
    """Live objects of the watched types, counted by type name."""
    counts: Counter = Counter()
    for obj in gc.get_objects():
        if type(obj) in WATCHED:
            counts[type(obj).__name__] += 1
    return counts


@contextmanager
def _collector_off():
    """Start from a collected heap, with automatic collection off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _assert_cursors_untracked_and_suspendable(session) -> None:
    """Every warm ``NL`` is invisible to the collector, and once the
    session passes its between-queries seam (the next query's
    :meth:`~repro.service.cache.SessionCache.finder_view`) no FindNN
    merge generator and no FindNEN producer is alive: every kept stream
    holds only what it produced."""
    finder = session._label_finder
    assert finder._cursors
    assert not any(gc.is_tracked(nl) for nl in finder._cursors.values())
    session.finder_view()
    assert not finder._live
    kept = [stream for kernel in session._dest_kernels.values()
            for by_source in kernel.streams.values()
            for stream in by_source.values() if stream is not None]
    assert kept
    assert all(stream.advance is None for stream in kept)
    codes = {PackedLabelNNFinder._stream.__code__,
             EstStream._produce.__code__}
    assert not [obj for obj in gc.get_objects()
                if type(obj) is types.GeneratorType and obj.gi_code in codes]


def _left_for_the_collector() -> Counter:
    """What one collection frees of the watched types (empty when the
    path left nothing behind)."""
    before = _census()
    gc.collect()
    after = _census()
    return before - after


@pytest.fixture(scope="module")
def setting(tmp_path_factory):
    """An engine with its index saved (SK-DB reads the file) and a
    request mix: every method over the same few (s, t, C, k)."""
    g = random_graph(60, avg_out_degree=2.8, rng=random.Random(5))
    assign_uniform_categories(g, 6, 8, random.Random(6))
    engine = KOSREngine.build(g)
    engine.save_index(tmp_path_factory.mktemp("gc") / "index.rpli")
    rng = random.Random(7)
    requests = []
    for _ in range(20):
        source, target = rng.randrange(60), rng.randrange(60)
        categories = rng.sample(range(6), rng.randint(1, 3))
        for method in METHODS:
            requests.append((source, target, categories, 3, method))
    return engine, requests


def test_cold_queries_leave_nothing(setting):
    engine, requests = setting
    with _collector_off():
        for source, target, categories, k, method in requests:
            engine.run(engine.make_query(source, target, categories, k=k),
                       QueryOptions(method=method))
        leftover = _left_for_the_collector()
    assert not leftover, leftover


def test_warm_session_with_evictions_leaves_nothing(setting):
    engine, requests = setting
    service = QueryService(engine, max_dest_kernels=2, max_finders=16)
    with _collector_off():
        for source, target, categories, k, method in requests:
            # Three in a row: the third reads back the streams the
            # second kept; the next group evicts them.
            for _ in range(3):
                service.run(engine.make_query(source, target, categories,
                                              k=k),
                            QueryOptions(method=method))
        leftover = _left_for_the_collector()
        _assert_cursors_untracked_and_suspendable(service.session)
    stats = service.session.stats
    assert stats.cursor_evictions and stats.dest_kernel_evictions
    assert stats.est_stream_hits  # streams were kept and read back
    assert not leftover, leftover


def test_tcp_front_door_leaves_nothing(setting):
    """Counted while the server is up: whatever its session retains is
    reachable from it, and the counts are taken once the execution
    thread has let go of the last request."""
    from repro.server.tcp import serve

    engine, requests = setting

    async def settled_census():
        counts = _census()
        for _ in range(100):
            await asyncio.sleep(0.01)
            again = _census()
            if again == counts:
                return counts
            counts = again
        return counts

    async def scenario():
        server = await serve(engine, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            for source, target, categories, k, method in requests:
                writer.write(json.dumps(
                    {"source": source, "target": target,
                     "categories": categories, "k": k, "method": method,
                     "stream": method == "SK"}).encode() + b"\n")
                await writer.drain()
                while True:
                    reply = json.loads(await reader.readline())
                    assert "error" not in reply, reply
                    if "costs" in reply:
                        break
            before = await settled_census()
            gc.collect()
            after = _census()
            _assert_cursors_untracked_and_suspendable(
                server.query_service.service.session)
            writer.close()
            await writer.wait_closed()
            return before - after
        finally:
            server.close()
            await server.wait_closed()
            await server.query_service.close()

    with _collector_off():
        leftover = asyncio.run(scenario())
    assert not leftover, leftover
