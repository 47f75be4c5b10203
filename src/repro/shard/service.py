"""Category-partitioned multi-process serving: :class:`ShardedQueryService`.

The ROADMAP's "sharded indexes" scaling layer: N worker processes, each
owning an engine + warm :class:`~repro.service.service.QueryService`
over the category subset a :class:`~repro.shard.router.CategoryShardRouter`
assigns it.  The parent process keeps only the graph and hub labels (for
request validation and worker bootstrap) — no inverted indexes — and
routes each request to one shard via the resolved plan's declared
needs.  A request whose category set spans shards runs once, on the
owner of its first category, which faults in the others' indexes.

Because workers are separate processes, this is the layer that makes the
serving stack truly parallel on stock CPython: the thread-pool path
(``AsyncQueryService``) overlaps only IO/allocation under the GIL, while
shards overlap the pure-Python search itself — one core per shard.

Contract highlights (pinned by ``tests/test_sharded.py``):

* **Cold-equivalence survives sharding** — every answer (results *and*
  ``QueryStats`` counters) is bit-identical to a fresh unsharded cold
  engine, including spanning requests and post-update runs.
* **Epoch-synchronized updates** — category updates broadcast to every
  worker and return only once all have acknowledged, so the next request
  (to any shard) observes the update exactly like a cold engine would;
  each worker's own epoch-versioned session cache handles invalidation.
  ``update_edge`` works live too: a parent-side background label rebuild,
  then one replacement worker per shard started from the post-update
  state and swapped in once all have answered (queries keep serving the
  old workers until then).  Either kind of update retires the index file.
* **Broadcast recovery** — a worker that fails an update exchange gets a
  bounded retry, then is quarantined and respawned from the parent's
  current state (its graph, and its index file or labels); only when
  recovery itself fails is the fleet poisoned, and then every later
  query fails fast.
* **Lifecycle** — workers are spawned on construction and health-checked
  via :meth:`ping`; :meth:`close` drains in-flight requests (the
  per-shard request/response protocol is synchronous), asks each worker
  to exit, and escalates to ``terminate()``, then ``kill()``, only
  after a grace period.

One of each mechanism: :meth:`_spawn` creates a worker,
:meth:`_start_workers` starts a whole fleet (construction and the edge
update's replacements), :meth:`_reap` ends one, :meth:`_dispatch` is a
query's one exchange, :meth:`_fan_out` runs a broadcast's exchange on
several shards at once.
``_spawn`` is also where tests plug in a fake transport
(``tests/fleet_fakes.py``): faults are injected there, never here.

Thread safety: one lock per shard serialises that worker's pipe; calls
for *different* shards proceed concurrently (this is what the async
front-end's thread pool exploits).
"""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing as mp
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial, reduce
from typing import Callable, Dict, List, Optional, Sequence

from repro.api import DEFAULT_OPTIONS, QueryOptions, require_options
from repro.core.query import KOSRQuery, make_query
from repro.exceptions import QueryError, ShardError
from repro.labeling.assembly import assemble_index
from repro.labeling.mmap_index import MmapIndexFile
from repro.labeling.updates import apply_edge_mutation
from repro.obs import MetricsRegistry, clock
from repro.obs.metrics import REGISTRY as _METRICS, merge_snapshots
from repro.service.service import BatchResult, QueryService
from repro.shard.router import CategoryShardRouter
from repro.shard.worker import pipe_recv, pipe_send, worker_main
from repro.types import CategoryId, Vertex

#: default seconds to wait for one worker response before declaring it dead
DEFAULT_TIMEOUT_S = 120.0


def _summed(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    """Two counter dicts added name by name, as a new dict."""
    totals = dict(a)
    for name, value in b.items():
        totals[name] = totals.get(name, 0) + value
    return totals


class ShardedQueryService:
    """Category-partitioned engines behind a plan-aware router.

    ``graph`` is shared by every shard (topology + category membership);
    ``labels`` (topology-only, so shard-agnostic) are built once here
    when not supplied and shipped to each worker, which materialises
    inverted indexes for its owned categories only.  ``max_dest_kernels``
    / ``max_finders`` apply to each worker's session cache, exactly as on
    an unsharded :class:`QueryService`.

    ``index_path`` switches worker bootstrap to build-once/attach-many:
    each worker attaches the pre-saved RPLI file
    (``KOSREngine.save_index`` / the CLI's ``index build``) read-only
    via ``mmap`` — spawn is an open+mmap instead of any index build, and
    the whole fleet shares a single physical index through the OS page
    cache.  It is also the file the workers answer SK-DB from, until
    the first category or edge update retires it (``index_path = None``).

    Use as a context manager or call :meth:`close`; workers are daemonic,
    so they can never outlive the parent even on an unclean exit.
    """

    #: resends of a failed update exchange before the worker is
    #: quarantined and respawned (see :meth:`_update_exchange`)
    update_retries = 1

    def __init__(self, graph, num_shards: int, labels=None,
                 max_dest_kernels: Optional[int] = None,
                 max_finders: Optional[int] = None,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 start_method: Optional[str] = None,
                 build_labels: bool = True,
                 index_path=None):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.graph = graph
        self.router = CategoryShardRouter(num_shards)
        self.timeout_s = timeout_s
        self._rr = itertools.count()
        # Spawn configuration is kept so a quarantined worker can be
        # respawned mid-life with the same shape as its fleet-mates.
        self._worker_config = (max_dest_kernels, max_finders)
        #: per shard, workers replaced by the quarantine-and-respawn
        #: recovery path (:attr:`respawns` is their fleet total)
        self.shard_respawns = [0] * num_shards
        #: per shard, the session-cache counters of the workers edge
        #: updates replaced (see :meth:`cache_stats`)
        self._retired_stats: List[Dict[str, int]] = [
            {} for _ in range(num_shards)]
        #: serialises the mutation entry points (category updates,
        #: update_edge, compact) against each other; queries only take
        #: the per-shard locks
        self._update_lock = threading.Lock()
        self._closed = False
        self._diverged: Optional[str] = None
        self._epoch = 0
        #: runs :meth:`_fan_out`'s exchanges; its threads start on first
        #: use, so query traffic never pays for them
        self._fanout_pool = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="repro-shard-fanout")
        self._index_file = None
        self.index_path: Optional[str] = None
        if index_path is not None:
            self.index_path = str(index_path)
            self._index_file = MmapIndexFile.open(index_path)
            if self._index_file.num_vertices != graph.num_vertices:
                file_vertices = self._index_file.num_vertices
                self._cleanup_index_file()
                raise QueryError(
                    f"{index_path}: index file covers {file_vertices} "
                    f"vertices but the graph has {graph.num_vertices}")
            labels = self._index_file.labels
        elif labels is not None or build_labels:
            # build_labels=False ships a topology-only fleet: workers hold
            # no label/inverted indexes and serve only finder-free plans
            # (GSP family) — the same label-build skip the unsharded CLI
            # path applies to all-GSP workloads.
            labels = assemble_index(graph, labels, categories=()).labels
        self.labels = labels

        self._ctx = mp.get_context(start_method)
        self._conns: List = [None] * num_shards
        self._procs: List = [None] * num_shards
        self._locks = [threading.Lock() for _ in range(num_shards)]
        #: per-shard request sequence numbers (guarded by the shard lock);
        #: workers echo them so stale replies from abandoned (timed-out)
        #: exchanges are discarded instead of answering a later request
        self._seqs = [0] * num_shards
        try:
            self._start_workers()
        except BaseException:
            self._closed = True
            self._cleanup_index_file()
            raise

    # ------------------------------------------------------------------
    # Worker lifecycle: one way in, one way out
    # ------------------------------------------------------------------
    def _spawn(self, shard: int) -> None:
        """Create and start ``shard``'s pipe + worker process, from the
        parent's *current* graph and labels.

        The only place either is created (construction and respawn),
        and the seam tests substitute a fake transport at.  Awaiting
        the startup handshake is the caller's separate step, so a
        fleet's workers all start before any is waited for.
        """
        owned = self.router.owned_categories(shard,
                                             self.graph.num_categories)
        # mmap workers attach the file themselves: ship them the path,
        # not a private copy of the mapped labels.
        labels = None if self.index_path is not None else self.labels
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # The registry's enable state travels explicitly: spawn-method
        # children re-import modules and would come up with metrics off.
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.graph, labels, owned,
                  *self._worker_config, self.index_path, _METRICS.enabled,
                  shard),
            name=f"repro-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = proc

    def _start_workers(self) -> None:
        """Start a worker on every shard, then await every handshake.

        Every worker is started before the first startup handshake is
        awaited, so the fleet's index builds overlap.  Each worker
        reports health (or its build error) as exchange 0 once its
        engine + service exist; the request timeout does not apply —
        index builds legitimately take minutes on large graphs, so the
        handshake waits as long as the worker process lives.  On any
        failure the workers started here are reaped before re-raising —
        a caller that catches and retries must not accumulate orphaned
        resident fleets.
        """
        started = []
        try:
            for shard in range(self.num_shards):
                self._spawn(shard)
                started.append(shard)
            for shard in started:
                self._recv(shard, 0, timeout_s=float("inf"))
        except BaseException:
            for shard in started:
                self._reap(shard)
            raise

    def _reap(self, shard: int, grace_s: float = 2.0) -> None:
        """End ``shard``'s worker process (if spawned) and close its pipe.

        The only terminate → join → kill ladder (failed startup,
        quarantine, the workers an edge update replaced, :meth:`close`).
        SIGTERM can be lost — it is when it lands in the first instants
        after fork of a process with a Python-level handler; SIGKILL
        cannot.
        """
        proc, conn = self._procs[shard], self._conns[shard]
        if proc is None:
            return
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=grace_s)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=grace_s)
        try:
            conn.close()
        except OSError:
            pass

    def _cleanup_index_file(self) -> None:
        """Release the parent's mapping of the fleet's index file."""
        if self._index_file is not None:
            self._index_file.close()
            self._index_file = None

    @classmethod
    def from_engine(cls, engine, num_shards: int,
                    **kwargs) -> "ShardedQueryService":
        """Partition an existing engine's graph + labels across shards.

        The graph is *copied*: the sharded service owns its own category
        membership (update broadcasts mutate it), and must not invalidate
        the donor engine's indexes behind its back.  The labels are
        shared as-is — they are topology-only and read-only here.
        """
        return cls(engine.graph.copy(), num_shards, labels=engine.labels,
                   **kwargs)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    @property
    def respawns(self) -> int:
        """Workers replaced by the recovery path, fleet-wide."""
        return sum(self.shard_respawns)

    @property
    def index_epoch(self) -> int:
        """Router-level update counter (bumped per synchronized broadcast
        and per edge update)."""
        return self._epoch

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _recv(self, shard: int, seq: int,
              timeout_s: Optional[float] = None, on_route=None):
        """Receive the reply to exchange ``seq``, discarding stale ones.

        A reply whose echoed sequence number is lower than ``seq``
        belongs to an exchange that already timed out — its caller got a
        :class:`ShardError` long ago, so it is dropped here rather than
        desynchronizing the pipe and answering the wrong request (a dead
        stream's leftover ``"route"`` frames are discarded the same way).
        ``on_route`` consumes this exchange's interim ``"route"`` frames
        (streamed queries); the final ``"ok"`` still ends the exchange.
        ``timeout_s`` overrides the service-wide request timeout (the
        startup handshake passes ``inf``: only worker death ends it).
        """
        timeout = self.timeout_s if timeout_s is None else timeout_s
        conn = self._conns[shard]
        deadline = clock.now() + timeout
        while True:
            while not conn.poll(min(0.2, timeout)):
                if not self._procs[shard].is_alive():
                    raise ShardError(shard, "worker process died")
                if clock.now() > deadline:
                    raise ShardError(
                        shard, f"no response within {timeout:.0f}s")
            try:
                kind, reply_seq, payload = pipe_recv(conn)
            except (EOFError, OSError) as exc:
                raise ShardError(shard, f"worker pipe closed ({exc!r})")
            if reply_seq < seq:
                continue  # stale reply from a timed-out exchange
            if kind == "route":
                if on_route is not None:
                    on_route(payload)
                continue
            if kind == "err":
                raise payload
            return payload

    def _exchange_locked(self, shard: int, msg: tuple, on_route=None):
        """One sequence-stamped send/recv; the caller holds the shard lock."""
        if self._closed:
            raise ShardError(shard, "service is closed")
        self._seqs[shard] += 1
        seq = self._seqs[shard]
        try:
            pipe_send(self._conns[shard], (msg[0], seq, *msg[1:]))
        except (BrokenPipeError, OSError) as exc:
            raise ShardError(shard, f"worker pipe closed ({exc!r})")
        return self._recv(shard, seq, on_route=on_route)

    def _dispatch(self, shard: int, msg: tuple, on_route=None):
        """One synchronous request/response exchange with a worker.

        A ``stats`` reply gains the counts of the workers edge updates
        replaced on this shard, read under the lock the swap holds.
        """
        metrics = _METRICS
        timed = metrics.enabled
        if timed:
            t0 = clock.now()
        with self._locks[shard]:
            payload = self._exchange_locked(shard, msg, on_route=on_route)
            if msg[0] == "stats":
                payload = _summed(self._retired_stats[shard], payload)
        if timed:
            metrics.counter("repro_shard_requests_total",
                            shard=shard).inc()
            metrics.histogram("repro_shard_roundtrip_seconds",
                              shard=shard).observe(clock.now() - t0)
        return payload

    def _update_exchange(self, shard: int, msg: tuple):
        """One update exchange with bounded retry, then respawn recovery.

        Holds the shard lock across the *whole* recovery, so no query
        can reach a half-recovered worker.  The ladder:

        1. ordinary exchange; on failure, up to ``update_retries``
           resends.  Every update message is idempotent — category
           updates early-return when membership already matches — and
           the sequence protocol discards a slow first reply, so a
           retry after a *timeout* (rather than a death) cannot
           double-apply or cross wires.
        2. quarantine-and-respawn: the worker process is terminated
           (killing a hung one) and replaced from the parent's current
           state (:meth:`_respawn_worker_locked`), then the message is
           resent once.
        3. failure past that propagates; the caller poisons the fleet.
        """
        with self._locks[shard]:
            for _ in range(1 + self.update_retries):
                try:
                    return self._exchange_locked(shard, msg)
                except ShardError:
                    continue
            self._respawn_worker_locked(shard)
            return self._exchange_locked(shard, msg)

    def _respawn_worker_locked(self, shard: int) -> None:
        """Replace one worker process in place (caller holds its lock).

        The replacement spawns from the parent's *current* graph — whose
        category membership already reflects every applied update — and
        its index file (kept only while no update has happened) or its
        labels, so it is bit-identical to its fleet-mates before the
        shard lock is released: no query can observe a half-recovered
        shard.  Raises (propagating to the caller's divergence handling)
        if the replacement fails its startup handshake.
        """
        if self._closed:
            raise ShardError(shard, "service is closed")
        self._reap(shard)
        self._spawn(shard)
        # Startup handshake (seq 0; the live sequence counter keeps
        # counting — the fresh worker simply echoes whatever it is sent).
        self._recv(shard, 0, timeout_s=float("inf"))
        self.shard_respawns[shard] += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def make_query(self, source: Vertex, target: Vertex, categories,
                   k: int = 1) -> KOSRQuery:
        """Build and validate a query against the (update-current) graph."""
        return make_query(self.graph, source, target, categories, k)

    def shard_for(self, query: KOSRQuery, options: QueryOptions) -> int:
        """The one shard that will serve this request.

        Resolves the method row (validating method / NN backend) and
        reads its declared needs: finder-free methods route round-robin,
        finder methods (SK-DB among them) route to the primary owner, the
        owner of the query's first category.  When the categories span
        shards the primary faults in the ones it does not own: hub labels
        are topology-only, so any worker can answer the whole sequenced
        query, and one that does is cold-equivalent.
        """
        if not options.plan_for().needs_finder:
            return next(self._rr) % self.num_shards
        if self.labels is None and options.nn_backend == "label":
            raise QueryError(
                "this shard fleet was built without labels "
                "(build_labels=False); it serves only finder-free plans "
                "(GSP family) or Dijkstra NN backends")
        categories = query.categories
        metrics = _METRICS
        if metrics.enabled:
            for cid in dict.fromkeys(categories):
                metrics.counter("repro_shard_category_requests_total",
                                category=cid).inc()
            if self.router.spans_shards(categories):
                metrics.counter("repro_shard_spanning_requests_total").inc()
        return self.router.shard_of(categories[0])

    def run(self, query: KOSRQuery, options: QueryOptions = DEFAULT_OPTIONS,
            *, on_route=None):
        """Answer one query; returns a ``KOSRResult``.

        The calling convention of :meth:`QueryService.run`; warm state
        lives in the workers' own sessions.

        ``on_route`` streams the answer live: the worker emits one
        interim pipe frame per discovered route ahead of its final
        reply, and the callback fires (on the calling thread) as each
        frame arrives — while the worker's search is still running.
        """
        require_options(options)
        return self._run_resolved(query, options,
                                  self.shard_for(query, options), on_route)

    def _fan_out(self, exchange: Callable, msg: tuple,
                 shards: Sequence[int]) -> List:
        """``exchange(shard, msg)`` on every shard at once; results in
        ``shards`` order (every broadcast).

        The first shard runs on the calling thread, the rest on the
        persistent dispatch pool: latency is O(slowest shard).  All
        exchanges are waited out even when one fails — none may be
        abandoned mid-pipe — and the first failure is then re-raised.
        The pool's tasks are independent single exchanges, so concurrent
        fan-outs can only queue, not deadlock (per-request executors
        would pay thread spawn + ``shutdown(wait=True)`` every time).
        """
        futures = [self._fanout_pool.submit(exchange, shard, msg)
                   for shard in shards[1:]]
        outcomes = [partial(exchange, shards[0], msg)]
        outcomes += [future.result for future in futures]
        results: List = []
        errors: List[BaseException] = []
        for outcome in outcomes:
            try:
                results.append(outcome())
            except BaseException as exc:
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def _run_resolved(self, query: KOSRQuery, opts: QueryOptions,
                      shard: int, on_route=None):
        """Run a query on the shard already resolved to serve it."""
        self._require_consistent()
        kind = "query" if on_route is None else "stream"
        return self._dispatch(shard, (kind, query, opts), on_route=on_route)

    def run_batch(self, queries: Sequence[KOSRQuery],
                  options: QueryOptions = DEFAULT_OPTIONS) -> BatchResult:
        """Execute a workload across the shards; results in input order.

        Queries are bucketed by serving shard and each bucket runs on its
        own dispatch thread — true multi-core parallelism, since each
        bucket's work happens in a separate worker process.
        ``cache_stats`` reports this batch's contribution summed over the
        workers' sessions, like the unsharded batch path.
        """
        queries = list(queries)
        # The shard is resolved exactly once per query: the bucket both
        # places the query on a dispatch thread and is what executes it
        # (re-resolving inside the run would advance the round-robin
        # counter again and unpin finder-free queries from their bucket).
        shards = [self.shard_for(q, options) for q in queries]
        buckets: Dict[int, List[int]] = {}
        for i, shard in enumerate(shards):
            buckets.setdefault(shard, []).append(i)
        results: List = [None] * len(queries)
        before = self.cache_stats()
        t0 = clock.now()

        def run_bucket(indexes: List[int]) -> None:
            for i in indexes:
                results[i] = self._run_resolved(queries[i], options,
                                                shards[i])

        if len(buckets) > 1:
            with ThreadPoolExecutor(max_workers=len(buckets)) as pool:
                for future in [pool.submit(run_bucket, indexes)
                               for indexes in buckets.values()]:
                    future.result()
        else:
            for indexes in buckets.values():
                run_bucket(indexes)
        wall = clock.now() - t0
        after = self.cache_stats()
        return BatchResult(
            results=results,
            wall_time_s=wall,
            num_groups=len(QueryService.group_queries(queries)),
            cache_stats={name: after[name] - before.get(name, 0)
                         for name in after},
        )

    # ------------------------------------------------------------------
    # Epoch-synchronized updates
    # ------------------------------------------------------------------
    def _require_consistent(self) -> None:
        """Fail fast once an update broadcast left the shards diverged."""
        if self._diverged is not None:
            raise ShardError(-1, self._diverged)

    def _broadcast(self, msg: tuple) -> List:
        """One plain exchange of ``msg`` with every worker (shard order)."""
        return self._fan_out(self._dispatch, msg, range(self.num_shards))

    def _broadcast_update(self, msg: tuple) -> None:
        """An update broadcast that must leave *every* worker consistent.

        A worker that fails its exchange gets a bounded retry, then the
        quarantine-and-respawn recovery (:meth:`_update_exchange`) — a
        killed or hung worker no longer poisons the fleet.  Only when
        recovery itself fails has the fleet truly diverged — some shards
        applied the update, this one cannot be brought to match — and
        then the service is poisoned: every later query and update
        fails fast with the divergence message until the fleet is
        rebuilt.
        """
        try:
            self._fan_out(self._update_exchange, msg,
                          range(self.num_shards))
        except BaseException as exc:
            self._diverged = (
                f"update broadcast {msg[0]!r} failed mid-fleet even after "
                f"retry and worker respawn ({exc}); shards have diverged "
                f"— rebuild the sharded service")
            raise
        self._epoch += 1

    def _update(self, msg: tuple) -> None:
        """Every category-level mutation (add, remove, compact): refuse
        a diverged fleet before any parent state moves, apply the change
        to the parent graph, then broadcast.

        A membership change retires the index file, as an edge update
        does (``compact`` keeps it).  Returns only once all workers
        acknowledged, so the next request — whichever shard serves it —
        observes the update (workers' session caches invalidate via
        their own index epochs).
        """
        with self._update_lock:
            self._require_consistent()
            if msg[0] == "update":
                _, op, v, cid = msg
                if op == "add":
                    self.graph.assign_category(v, cid)
                else:
                    self.graph.unassign_category(v, cid)
                self.index_path = None
                self._cleanup_index_file()
            self._broadcast_update(msg)

    def add_vertex_to_category(self, v: Vertex, cid: CategoryId) -> None:
        """Insert ``cid`` into ``F(v)`` on the parent graph and every shard."""
        self._update(("update", "add", v, cid))

    def remove_vertex_from_category(self, v: Vertex, cid: CategoryId) -> None:
        """Remove ``cid`` from ``F(v)`` everywhere (symmetric broadcast)."""
        self._update(("update", "remove", v, cid))

    def compact(self) -> None:
        """Compact every worker's edited runs (broadcast, synchronized)."""
        self._update(("compact",))

    def update_edge(self, u: Vertex, v: Vertex, weight) -> None:
        """Apply one edge insert/change/delete to the running fleet.

        Zero-downtime: the parent rebuilds the hub labels from a scratch
        *copy* of its graph with the edge applied, holding no shard
        lock, so the fleet keeps serving queries from the old workers
        for the whole (dominant) label-build time.  Then, under every
        shard lock, it starts one replacement worker per shard from the
        post-update graph and labels (:meth:`_start_workers`, as at
        construction) and swaps them in only once all have answered;
        the old workers are reaped.  Queries racing the update observe
        the old fleet or the new one, never a mix, and post-update
        answers are bit-identical to a fresh unsharded engine built from
        the updated graph.  The saved index file is obsolete wholesale:
        the replacements, and any later recovery respawn, build from
        private labels that already include everything.  The old
        workers' cache counters carry over (:meth:`cache_stats`).

        If a replacement fails to start, the ones started are reaped,
        the parent's pre-update graph, labels and index file are
        restored and the error re-raises: the old workers never stopped
        serving, so the fleet is not poisoned.  A replacement is not a
        recovery, so :attr:`shard_respawns` does not move.
        """
        if self.labels is None:
            raise QueryError(
                "update_edge requires a fleet with labels; this one was "
                "built with build_labels=False (topology-only)")
        with self._update_lock:
            self._require_consistent()
            self.graph._check_vertex(u)
            self.graph._check_vertex(v)
            # An invalid mutation (deleting a missing edge) raises here,
            # before any parent or worker state moved.
            graph = self.graph.copy()
            apply_edge_mutation(graph, u, v, weight)
            labels = assemble_index(graph, categories=()).labels
            with contextlib.ExitStack() as held:
                for lock in self._locks:
                    held.enter_context(lock)
                if self._closed:
                    raise ShardError(-1, "service is closed")
                before = (self.graph, self.labels, self.index_path)
                retired = (self._conns, self._procs)
                # _spawn ships the parent's current state into the live
                # slots: point both at the replacements.
                self.graph, self.labels, self.index_path = graph, labels, None
                self._conns, self._procs = list(retired[0]), list(retired[1])
                try:
                    self._start_workers()
                except BaseException:
                    self.graph, self.labels, self.index_path = before
                    self._conns, self._procs = retired
                    raise
                fresh = (self._conns, self._procs)
                self._conns, self._procs = retired
                for shard in range(self.num_shards):
                    try:
                        self._retired_stats[shard] = _summed(
                            self._retired_stats[shard],
                            self._exchange_locked(shard, ("stats",)))
                    except Exception:
                        pass  # a worker that cannot answer loses them
                    self._reap(shard)
                self._conns, self._procs = fresh
            self._cleanup_index_file()
            self._epoch += 1

    # ------------------------------------------------------------------
    # Observability + lifecycle
    # ------------------------------------------------------------------
    def ping(self) -> List[dict]:
        """Health-check every worker; one report dict per shard.

        A healthy shard reports ``alive: True`` plus its pid, index
        epoch, and owned/materialised categories; a dead or unresponsive
        one reports ``alive: False`` with the error instead of raising,
        so operators see the whole fleet in one call.
        """
        reports = []
        for shard in range(self.num_shards):
            try:
                payload = self._dispatch(shard, ("ping",))
                payload.update({"shard": shard, "alive": True})
            except Exception as exc:  # report, not raise
                payload = {"shard": shard, "alive": False,
                           "error": str(exc)}
            reports.append(payload)
        return reports

    def epoch_info(self) -> Dict[str, object]:
        """Fleet epoch/version counters (operator-facing).

        The router-level update counter plus every worker's pid and
        engine epoch split (``epoch_base`` vs per-category ``version``
        counters) — the view an operator watches to see an update land
        shard by shard.  An edge update replaces every worker, and a
        replacement (like a recovered worker) restarts at epoch 0, so
        its landing shows as a new ``pid``.  Served in the TCP
        ``{"stats": true}`` reply and by ``cli metrics --stats``.
        """
        shards = []
        for report in self.ping():
            shards.append({key: report.get(key)
                           for key in ("shard", "alive", "pid", "epoch",
                                       "epoch_base", "category_versions")})
        return {"router_epoch": self._epoch, "shards": shards}

    def cache_stats(self) -> Dict[str, int]:
        """Worker session-cache counters summed across all shards.

        The counts of workers an edge update replaced stay in, so no
        counter falls across :meth:`update_edge`; a worker lost to a
        recovery respawn takes its counts with it.
        """
        totals: Dict[str, int] = {}
        for payload in self._broadcast(("stats",)):
            totals = _summed(totals, payload)
        return totals

    def metrics_snapshot(self) -> dict:
        """Fleet-merged metrics: every worker's registry plus this one's.

        Worker snapshots travel over the same sequence-stamped pipe
        protocol as queries (the ``"metrics"`` kind) and merge by
        element-wise addition: per-method latency histograms combine
        fleet-wide (identical bucket bounds by construction), while the
        router-side round-trip metrics keep their per-shard labels.
        ``repro_shard_respawns_total`` is read from :attr:`shard_respawns`
        into a snapshot of its own, so the merge adds it exactly once;
        the same snapshot adds the ``repro_cache_*_total`` counts that
        workers replaced by edge updates carried (:meth:`cache_stats`).
        """
        snapshots = [_METRICS.snapshot()]
        snapshots.extend(self._broadcast(("metrics",)))
        if _METRICS.enabled:
            router = MetricsRegistry(enabled=True)
            for shard, count in enumerate(self.shard_respawns):
                if count:
                    router.counter("repro_shard_respawns_total",
                                   shard=shard).inc(count)
            router.sample_totals("repro_cache_",
                                 reduce(_summed, self._retired_stats, {}))
            snapshots.append(router.snapshot())
        return merge_snapshots(snapshots)

    def index_memory(self) -> Dict[str, object]:
        """Per-worker and fleet-wide index memory accounting.

        Each shard reports its engine's resident/serialized split (see
        :meth:`~repro.core.engine.KOSREngine.index_memory`) plus its OS
        RSS/USS; the fleet totals make the shared-vs-private story
        visible: an mmap fleet's ``total_resident`` stays a sliver of
        ``index_file_bytes`` regardless of shard count.  The parent's
        ``index_file*`` keys go once an update retires the file.
        """
        shards = self._broadcast(("memory",))
        payload: Dict[str, object] = {
            "num_shards": self.num_shards,
            "shared": bool(shards) and all(s.get("shared") for s in shards),
            "total_resident": sum(s.get("total_resident", 0)
                                  for s in shards),
            "total_serialized": sum(s.get("total_serialized", 0)
                                    for s in shards),
            "shards": shards,
        }
        if self._index_file is not None:
            payload["index_file"] = self.index_path
            payload["index_file_bytes"] = self._index_file.size_bytes
        return payload

    def close(self, grace_s: float = 2.0) -> None:
        """Graceful drain + shutdown: ask, wait, then reap stragglers.

        Safe to call twice.  The per-shard locks serialise against
        in-flight requests, so a shard is only asked to exit between
        exchanges — nothing is severed mid-response.
        """
        if self._closed:
            return
        for shard in range(self.num_shards):
            with self._locks[shard]:
                try:
                    self._seqs[shard] += 1
                    pipe_send(self._conns[shard],
                              ("shutdown", self._seqs[shard]))
                    if self._conns[shard].poll(grace_s):
                        pipe_recv(self._conns[shard])
                except (BrokenPipeError, EOFError, OSError):
                    pass
        self._closed = True
        self._fanout_pool.shutdown(wait=True)
        for shard, proc in enumerate(self._procs):
            proc.join(timeout=grace_s)  # the graceful exit, after "bye"
            self._reap(shard, grace_s)
        self._cleanup_index_file()
