"""Fault-injection suite: kill or hang workers mid-mutation.

Each test runs a 2-shard fleet over the fake transport of
``tests/fleet_fakes.py`` (in-thread workers behind in-memory pipes,
plugged in through ``ShardedQueryService._spawn``) and arms a fault that
makes one worker die or hang at a precise protocol point — before a
message is applied (the message is lost) or after (applied, but the ack
is lost).  The recovery ladder (retry → quarantine-and-respawn →
resend) must bring the fleet back to a state whose answers are
bit-identical to a fresh unsharded engine — results AND ``QueryStats``
counters — or, when recovery itself is made to fail, the fleet must
poison and fail fast rather than serve divergent state.  An edge update
starts replacement workers instead of messaging the old ones; one that
fails to start must roll the update back.  The production code carries
no fault hook: parent and ``worker_main`` run unchanged.
"""

import random

import pytest

from repro import KOSREngine, QueryOptions
from repro.graph.builders import random_graph
from repro.graph.categories import assign_uniform_categories

from fleet_fakes import FakeContext, InThreadFleet, ThreadProcess
from test_backend_parity import assert_same_outcome


def _graph(seed: int, n: int = 40, cats: int = 4, size: int = 7):
    g = random_graph(n, avg_out_degree=2.8, rng=random.Random(seed))
    assign_uniform_categories(g, cats, size, random.Random(seed + 1))
    return g


def _assert_parity(sharded, q):
    """The fleet's answer matches a fresh unsharded engine, counters too."""
    fresh = KOSREngine.build(sharded.graph.copy())
    assert_same_outcome(sharded.run(q, QueryOptions()),
                        fresh.run(q))


def _recovered(sharded, *, respawns=1):
    assert sharded.respawns == respawns
    assert sharded._diverged is None


class TestCategoryUpdateFaults:
    def test_worker_dies_before_update_applies(self):
        """The broadcast message is lost with the worker.

        The retry hits a dead pipe, so recovery respawns shard 1 from
        the parent's state and resends the (idempotent) update.
        """
        g = _graph(11)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.arm(1, "update", "before", "die")
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 1))
            sharded.add_vertex_to_category(moved, 1)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_worker_dies_after_update_applies(self):
        """The update lands but the ack is lost with the worker.

        The respawned worker is built from the parent's already-updated
        graph, and the resent update is an idempotent no-op on it.
        """
        g = _graph(13)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.arm(0, "update", "after", "die")
        try:
            q = sharded.make_query(1, 25, [0, 2], k=3)
            sharded.run(q, QueryOptions())
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 0))
            sharded.add_vertex_to_category(moved, 0)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_worker_hangs_mid_update(self):
        """A hung worker trips the request timeout, then is replaced.

        The respawn path terminates the hung worker outright, so
        recovery is bounded by the timeout, not by the hang.
        """
        g = _graph(17)
        sharded = InThreadFleet(g.copy(), 2, timeout_s=0.3)
        sharded.arm(1, "update", "before", "hang")
        try:
            q = sharded.make_query(2, 20, [1, 3], k=2)
            sharded.run(q, QueryOptions())
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 3))
            sharded.add_vertex_to_category(moved, 3)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_mmap_fleet_respawn_after_updates_starts_from_private_state(
            self, tmp_path):
        """A respawned mmap worker must not trust the pre-update file.

        The fleet was spawned attach-only from a saved index; the first
        update retires that file, so the replacement worker starts from
        the parent's graph and labels and builds its categories
        privately — serving the file's old sections would be divergence.
        """
        g = _graph(19)
        first_move = next(v for v in range(g.num_vertices)
                          if not g.has_category(v, 2))
        path = tmp_path / "fleet.rpli"
        KOSREngine.build(g).save_index(path)
        sharded = InThreadFleet(g.copy(), 2, index_path=path)
        try:
            q = sharded.make_query(0, 30, [0, 2], k=3)
            sharded.run(q, QueryOptions())
            sharded.add_vertex_to_category(first_move, 2)
            assert sharded.respawns == 0 and sharded.index_path is None
            # Armed only now: the worker survived the first update and
            # dies on the second, so the file went before the respawn.
            sharded.arm(0, "update", "before", "die")
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 0))
            sharded.add_vertex_to_category(moved, 0)
            _recovered(sharded)
            respawned = sharded.index_memory()["shards"][0]
            assert "index_file" not in respawned
            assert respawned["inverted_shared"] == 0
            _assert_parity(sharded, q)
        finally:
            sharded.close()


class _RecordingFleet(InThreadFleet):
    """An in-thread fleet that keeps every worker it ever started."""

    def __init__(self, *args, **kwargs):
        self.started: list = []
        super().__init__(*args, **kwargs)

    def _spawn(self, shard: int) -> None:
        super()._spawn(shard)
        self.started.append(self._procs[shard])


class TestEdgeUpdateFaults:
    def test_unrecoverable_prepare_aborts_without_poisoning(
            self, monkeypatch):
        """A replacement that fails to start rolls back: the old
        workers keep serving.

        The edge update starts one replacement per shard; shard 1's
        fails its startup handshake (its engine build raises, so the
        unchanged ``worker_main`` answers exchange 0 with the error).
        The update raises, the replacement started for shard 0 is
        reaped, and the fleet keeps serving the pre-update state from
        the same workers, unpoisoned and with no respawn counted.  A
        retried update then goes through.
        """
        from repro.shard import worker

        g = _graph(31)
        sharded = _RecordingFleet(g.copy(), 2)
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            before = sharded.run(q, QueryOptions())
            serving = list(sharded._procs)
            build = worker._build_shard_engine

            def failing(graph, labels, owned, index_path=None):
                if 1 in owned:  # shard 1 owns categories 1 and 3
                    raise RuntimeError("replacement build failed by test")
                return build(graph, labels, owned, index_path)

            monkeypatch.setattr(worker, "_build_shard_engine", failing)
            with pytest.raises(RuntimeError, match="failed by test"):
                sharded.update_edge(0, 1, 0.5)
            monkeypatch.undo()

            assert sharded._diverged is None  # rolled back, not poisoned
            assert sharded.respawns == 0
            assert sharded._procs == serving
            assert all(proc.is_alive() for proc in serving)
            assert len(sharded.started) == 4
            assert not any(proc.is_alive()
                           for proc in sharded.started[2:])
            assert_same_outcome(sharded.run(q, QueryOptions()), before)
            _assert_parity(sharded, q)  # graph never moved either

            sharded.update_edge(0, 1, 0.5)  # retried update succeeds
            assert sharded.respawns == 0
            assert not any(proc.is_alive() for proc in serving)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_replacement_that_dies_rolls_back(self):
        """A replacement that dies before its handshake rolls back too.

        Shard 1's replacement is terminated as it starts, so it never
        answers exchange 0: the parent sees its pipe close, not an error
        reply.  The update raises :class:`ShardError`, and the old
        workers keep serving, unpoisoned and with no respawn counted.
        """
        from repro.shard.service import ShardError

        class Stillborn(ThreadProcess):
            def start(self):
                self.terminate()  # gone before it can send a frame
                super().start()

        class StillbornContext(FakeContext):
            Process = Stillborn

        class DyingReplacement(_RecordingFleet):
            kill_shard = None

            def _spawn(self, shard):
                self.context = (StillbornContext if shard == self.kill_shard
                                else FakeContext)
                super()._spawn(shard)

        g = _graph(37)
        sharded = DyingReplacement(g.copy(), 2)
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            before = sharded.run(q, QueryOptions())
            serving = list(sharded._procs)

            sharded.kill_shard = 1
            with pytest.raises(ShardError):
                sharded.update_edge(0, 1, 0.5)
            sharded.kill_shard = None

            assert sharded._diverged is None
            assert sharded.respawns == 0
            assert sharded._procs == serving
            assert all(proc.is_alive() for proc in serving)
            assert len(sharded.started) == 4
            assert not any(proc.is_alive()
                           for proc in sharded.started[2:])
            assert_same_outcome(sharded.run(q, QueryOptions()), before)
            _assert_parity(sharded, q)

            sharded.update_edge(0, 1, 0.5)
            assert sharded.respawns == 0
            _assert_parity(sharded, q)
        finally:
            sharded.close()


def _respawn_metric(sharded):
    """``repro_shard_respawns_total`` per shard, from the fleet snapshot."""
    return {m["labels"]["shard"]: m["value"]
            for m in sharded.metrics_snapshot()["metrics"]
            if m["name"] == "repro_shard_respawns_total"}


def _respawn_shard_1(g):
    sharded = InThreadFleet(g.copy(), 2)
    sharded.arm(1, "update", "before", "die")
    moved = next(v for v in range(g.num_vertices)
                 if not sharded.graph.has_category(v, 1))
    sharded.add_vertex_to_category(moved, 1)
    return sharded


class TestRecoveryAccounting:
    def test_respawn_counter_and_metric(self, enabled_registry):
        """Each quarantine-and-respawn is counted, per shard."""
        sharded = _respawn_shard_1(_graph(41))
        try:
            assert sharded.respawns == 1
            assert sharded.shard_respawns == [0, 1]
            assert _respawn_metric(sharded) == {"1": 1}
        finally:
            sharded.close()

    def test_respawn_before_the_registry_is_enabled_is_counted(self):
        """The metric is read from the router's count at snapshot time,
        so a respawn while metrics were off still shows once they are
        on."""
        from repro.obs.metrics import REGISTRY

        was_enabled = REGISTRY.enabled
        REGISTRY.reset()
        REGISTRY.disable()
        sharded = _respawn_shard_1(_graph(41))
        try:
            REGISTRY.enable()
            assert _respawn_metric(sharded) == {"1": 1}
        finally:
            sharded.close()
            REGISTRY.enabled = was_enabled
            REGISTRY.reset()

    def test_replacement_worker_is_spawned_healthy(self):
        """The fault dies with the faulty worker, not the shard.

        ``times=2`` would fire twice on one worker; after the first
        death the replacement comes up through the same ``_spawn`` as
        any worker, with nothing armed, so the very next broadcast to
        the same shard succeeds first try.
        """
        g = _graph(43)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.arm(1, "update", "before", "die", times=2)
        try:
            q = sharded.make_query(0, 30, [0, 1], k=2)
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 1))
            sharded.add_vertex_to_category(moved, 1)
            assert sharded.respawns == 1
            sharded.remove_vertex_from_category(moved, 1)
            assert sharded.respawns == 1  # replacement never faulted
            _assert_parity(sharded, q)
        finally:
            sharded.close()
