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
poison and fail fast rather than serve divergent state.  The production
code carries no fault hook: parent and ``worker_main`` run unchanged.
"""

import random

import pytest

from repro import (
    KOSREngine,
    QueryOptions,
    ShardedQueryService,
    make_query,
)
from repro.exceptions import ShardError
from repro.graph.builders import random_graph
from repro.graph.categories import assign_uniform_categories
from repro.obs.metrics import REGISTRY

from fleet_fakes import InThreadFleet
from test_backend_parity import assert_same_outcome


@pytest.fixture()
def enabled_registry():
    was_enabled = REGISTRY.enabled
    REGISTRY.reset()
    REGISTRY.enable()
    yield REGISTRY
    REGISTRY.enabled = was_enabled
    REGISTRY.reset()


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

    def test_mmap_fleet_replays_pending_updates_on_respawn(self, tmp_path):
        """A respawned mmap worker must not trust the pre-update file.

        The fleet was spawned attach-only from a saved index; updates
        since then live only in worker memory.  The replacement worker
        re-attaches the file, then the parent's stale-category replay
        forces it to rebuild the touched categories from the updated
        graph — serving the file's old sections would be divergence.
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
            assert sharded.respawns == 0
            # Armed only now: the worker survived the first update and
            # dies on the second, so by respawn time TWO categories are
            # pending replay.
            sharded.arm(0, "update", "before", "die")
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 0))
            sharded.add_vertex_to_category(moved, 0)
            _recovered(sharded)
            assert sharded._stale_log == {0, 2}
            _assert_parity(sharded, q)
        finally:
            sharded.close()


class TestEdgeUpdateFaults:
    def test_worker_dies_mid_prepare(self):
        """Losing a worker during the prepare phase aborts nothing.

        Prepare is recoverable: the respawned worker (built from the
        still-pre-update parent state) receives the resent prepare, and
        the commit then fences the whole fleet as usual.
        """
        g = _graph(23)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.arm(1, "prepare_edge", "before", "die")
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())
            sharded.update_edge(0, 1, 0.5)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_worker_dies_mid_commit(self):
        """Losing a worker during the epoch-fenced swap still converges.

        The parent adopts the post-update state before fencing, so the
        replacement worker is built post-update and needs no resend —
        its first answer is already from the new index.
        """
        g = _graph(29)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.arm(0, "commit_edge", "before", "die")
        try:
            q = sharded.make_query(1, 25, [0, 2], k=3)
            sharded.run(q, QueryOptions())
            sharded.update_edge(1, 2, 0.75)
            _recovered(sharded)
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_unrecoverable_prepare_aborts_without_poisoning(
            self, monkeypatch):
        """A failed prepare rolls back: old index keeps serving.

        One shard's prepare exchange fails past recovery (simulated at
        the parent's exchange layer, so the workers themselves stay
        healthy): the update aborts fleet-wide — the other shard's
        staged state is discarded — the error surfaces to the caller,
        and the fleet keeps serving the pre-update state consistently.
        No poison, and a later update still goes through cleanly.
        """
        g = _graph(31)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.update_retries = 0
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            before = sharded.run(q, QueryOptions())
            original = ShardedQueryService._update_exchange

            def failing(self, shard, msg, resend_after_respawn=True):
                if msg[0] == "prepare_edge" and shard == 1:
                    raise ShardError(shard, "prepare lost by test")
                return original(self, shard, msg,
                                resend_after_respawn=resend_after_respawn)

            monkeypatch.setattr(ShardedQueryService, "_update_exchange",
                                failing)
            with pytest.raises(ShardError, match="prepare lost"):
                sharded.update_edge(0, 1, 0.5)
            monkeypatch.undo()

            assert sharded._diverged is None  # aborted, not poisoned
            assert_same_outcome(sharded.run(q, QueryOptions()), before)
            _assert_parity(sharded, q)  # graph never moved either

            sharded.update_edge(0, 1, 0.5)  # retried update succeeds
            _assert_parity(sharded, q)
        finally:
            sharded.close()

    def test_unrecoverable_commit_poisons_the_fleet(self, monkeypatch):
        """Past the fence there is no rollback: divergence fails fast."""
        g = _graph(37)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.update_retries = 0
        sharded.arm(1, "commit_edge", "before", "die")
        try:
            q = sharded.make_query(0, 30, [0, 1], k=3)
            sharded.run(q, QueryOptions())

            def denied(self, shard):
                raise ShardError(shard, "respawn denied by test")

            monkeypatch.setattr(ShardedQueryService,
                                "_respawn_worker_locked", denied)
            with pytest.raises(ShardError, match="respawn denied"):
                sharded.update_edge(0, 1, 0.5)
            monkeypatch.undo()

            assert sharded._diverged is not None
            with pytest.raises(ShardError, match="diverged"):
                sharded.run(q, QueryOptions())
        finally:
            sharded.close()


class TestRecoveryAccounting:
    def test_respawn_counter_and_metric(self, enabled_registry):
        """Each quarantine-and-respawn is counted, per shard."""
        g = _graph(41)
        sharded = InThreadFleet(g.copy(), 2)
        sharded.arm(1, "update", "before", "die")
        try:
            moved = next(v for v in range(g.num_vertices)
                         if not sharded.graph.has_category(v, 1))
            sharded.add_vertex_to_category(moved, 1)
            assert sharded.respawns == 1
            counter = enabled_registry.counter(
                "repro_shard_respawns_total", shard=1)
            assert counter.value == 1
        finally:
            sharded.close()

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
