"""The shard worker process: one engine + warm service per category subset.

Each worker owns a full copy of the (topology-only) graph and hub labels
but materialises inverted indexes only for the categories its shard
owns — 1/N of the index build and memory.  Queries arrive as pickled
``(KOSRQuery, QueryOptions)`` pairs over a ``multiprocessing`` pipe and
run through a worker-local :class:`~repro.service.service.QueryService`,
so all the warm-session machinery (epoch validation, cold-equivalent
counter accounting, LRU caps) applies unchanged inside the process.

Category faulting
-----------------

A request whose categories span shards runs on its primary owner, so it
names categories this shard does not own.  Because hub labels depend
only on topology, the worker can *fault in* any missing category's
inverted index on demand — built fresh from the worker's
(update-current) graph and labels, it is bit-identical to the index an
unsharded engine holds, so results and counters stay cold-equivalent.
Faulted indexes join ``engine.inverted`` with a zero version counter,
leaving the index epoch (and therefore the warm session) untouched.

Update broadcast contract
-------------------------

Category updates are broadcast to **every** worker: graph membership
(``F(v)``) must stay globally consistent because validation and the
GSP-family methods read it.  A worker edits ``IL(cid)`` only when it
has that category materialised (owned or previously faulted); otherwise
it records the membership change alone — a later fault-in rebuilds the
index from the already-updated graph (an mmap worker attaches the
file's sections only while ``engine._store`` says the file describes
the indexes, i.e. before any update).  Crucially the worker never
creates an *empty* index for an unmaterialised category on the update
path: that would satisfy later ``cid in inverted`` checks with an index
missing every pre-existing member.

Pipe protocol
-------------

Messages are ``(kind, seq, *args)``; every one is answered exactly once
with ``("ok", seq, payload)`` or ``("err", seq, exception)``, and the
echoed sequence number lets the parent drop the reply to an exchange it
already abandoned.  :data:`HANDLERS` is the whole vocabulary, 9 kinds:
``query`` and ``stream`` (a query that first sends one interim
``("route", seq, result)`` frame per discovered route); ``update`` and
``compact``; the probes ``ping``, ``stats``, ``metrics``, ``memory``;
``shutdown``.
An edge update sends no message: the parent starts replacement workers
from the post-update graph and labels and reaps these.
"""

from __future__ import annotations

import os
import pickle
from typing import List, Optional

from repro.api import QueryOptions
from repro.core.engine import KOSREngine
from repro.core.query import KOSRQuery
from repro.exceptions import QueryError, ReproError
from repro.labeling.assembly import assemble_index
from repro.labeling.mmap_index import MmapIndexFile
from repro.obs.metrics import REGISTRY
from repro.service.service import QueryService
from repro.types import CategoryId

#: shard pipe framing protocol.  ``multiprocessing.Connection.send``
#: uses pickle's *default* protocol; pinning the highest one shrinks and
#: speeds the framing of large batch replies, and both pipe ends agree
#: by construction since parent and workers import this constant.
PIPE_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def pipe_send(conn, obj) -> None:
    """``conn.send`` with the pipe pickle protocol pinned."""
    conn.send_bytes(pickle.dumps(obj, protocol=PIPE_PICKLE_PROTOCOL))


def pipe_recv(conn):
    """Inverse of :func:`pipe_send` (plain unpickle of one frame)."""
    return pickle.loads(conn.recv_bytes())


#: message kind -> the :class:`_ShardWorker` method answering it, with
#: the message's args and the ``"ok"`` payload
HANDLERS = {
    "query": "run_query",            # KOSRQuery, QueryOptions -> KOSRResult
    "stream": "stream_query",        # same, "route" frames ahead of it
    "update": "apply_update",        # "add"|"remove", v, cid -> index epoch
    "compact": "compact",            # -> index epoch
    "ping": "health",                # -> health report
    "stats": "cache_stats",          # -> session-cache counters
    "metrics": "metrics_snapshot",   # -> registry snapshot
    "memory": "index_memory",        # -> index + OS memory accounting
    "shutdown": "shutdown",          # -> "bye"; the loop ends
}


def proc_rss_bytes() -> int:
    """This process's resident set size (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def proc_uss_bytes() -> int:
    """This process's unique set size: private clean + dirty pages.

    USS is what distinguishes a worker *sharing* an mmap'ed index (file
    pages count in RSS but not here) from one owning a private copy.
    Returns 0 where ``/proc/self/smaps_rollup`` is unavailable.
    """
    try:
        total = 0
        with open("/proc/self/smaps_rollup") as f:
            for line in f:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1]) * 1024
        return total
    except (OSError, ValueError, IndexError):
        return 0


def _build_shard_engine(graph, labels, owned: List[CategoryId],
                        index_path: Optional[str] = None):
    """An engine whose inverted indexes cover only ``owned`` categories.

    ``index_path`` switches the worker to zero-copy spawn: instead of
    building anything, it mmaps the parent-saved index file and serves
    labels plus its owned categories as shared read-only views — the OS
    page cache holds one physical index for the whole fleet.  Categories
    the file lacks are built privately from graph + mapped labels.

    ``labels=None`` (without ``index_path``) builds a topology-only
    engine (no label or inverted indexes): the fleet then serves
    finder-free plans only — the parent router rejects label-backend
    plans before they reach a worker.
    """
    index_file = None
    if index_path is not None:
        index_file = MmapIndexFile.open(index_path)
    elif labels is None:
        return KOSREngine(graph, inverted={})
    return KOSREngine._assemble(graph, "", labels=labels, categories=owned,
                                index_file=index_file)


class _ShardWorker:
    """The pipe's handlers over a plain engine — one whose ``inverted``
    map covers a category subset — and its warm service.
    """

    def __init__(self, conn, service, owned: List[CategoryId], shard: int):
        self.conn = conn
        self.service = service
        self.engine = service.engine
        self.owned = list(owned)
        self.shard = shard
        #: sequence number of the exchange being answered
        self._seq = 0

    # ------------------------------------------------------------------
    def ensure_categories(self, categories) -> None:
        """Fault in inverted indexes this query needs but the shard lacks."""
        engine = self.engine
        if engine.labels is None:
            raise QueryError(
                "this shard worker was built without labels "
                "(build_labels=False); label-backend plans cannot be served")
        for cid in categories:
            if cid in engine.inverted:
                continue
            # Attaching the file's sections is the cheap fault-in, valid
            # only while the file describes the indexes (no update yet).
            index_file = (engine._index_file if engine._store is not None
                          else None)
            engine.inverted.update(assemble_index(
                engine.graph, engine.labels, categories=[cid],
                index_file=index_file).inverted)

    def run_query(self, query: KOSRQuery, options: QueryOptions,
                  on_route=None):
        """Answer one query, streaming each route via ``on_route`` when
        given."""
        if options.nn_backend == "label" \
                and options.plan_for().needs_finder:
            self.ensure_categories(query.categories)
        return self.service.run(query, options, on_route=on_route)

    def stream_query(self, query: KOSRQuery, options: QueryOptions):
        """:meth:`run_query`, each route sent as an interim ``"route"``
        frame the parent surfaces while the search is still running."""
        conn, seq = self.conn, self._seq
        return self.run_query(
            query, options, lambda res: pipe_send(conn, ("route", seq, res)))

    def apply_update(self, op: str, v: int, cid: CategoryId) -> int:
        """One broadcast category update; returns the new index epoch.

        A materialised category takes the update like any engine's
        would: its edited hub runs are private copies on top of whatever
        base it has.
        One updated while *unmaterialised* changes membership only, and
        the saved file stops describing the indexes, as on the engine's
        own updates: a later fault-in builds from the updated graph.
        """
        engine = self.engine
        if op not in ("add", "remove"):
            raise ValueError(f"unknown category update op {op!r}")
        if cid in engine.inverted:
            if op == "add":
                engine.add_vertex_to_category(v, cid)
            else:
                engine.remove_vertex_from_category(v, cid)
        else:
            if op == "add":
                engine.graph.assign_category(v, cid)
            else:
                engine.graph.unassign_category(v, cid)
            engine._store = None
        return engine.index_epoch

    def compact(self) -> int:
        self.engine.compact()
        return self.engine.index_epoch

    def health(self) -> dict:
        engine = self.engine
        return {
            "pid": os.getpid(),
            "epoch": engine.index_epoch,
            "epoch_base": engine.epoch_base,
            "category_versions": engine.category_versions(),
            "owned_categories": list(self.owned),
            "materialized_categories": sorted(engine.inverted),
        }

    def cache_stats(self) -> dict:
        return self.service.cache_stats()

    def metrics_snapshot(self) -> dict:
        """This worker's registry snapshot: its epoch labelled by shard,
        category versions for the *owned* categories only, even when
        other shards have faulted them in."""
        return self.service.metrics_snapshot(shard=self.shard,
                                             owned=self.owned)

    def index_memory(self) -> dict:
        """Engine index accounting plus this process's OS-level memory."""
        payload = self.engine.index_memory()
        payload.update({
            "pid": os.getpid(),
            "rss_bytes": proc_rss_bytes(),
            "uss_bytes": proc_uss_bytes(),
        })
        return payload

    def shutdown(self) -> str:
        return "bye"  # and :meth:`serve` returns once it is sent

    # ------------------------------------------------------------------
    def serve(self, parent_pid: int) -> None:
        """Answer the pipe until ``"shutdown"``, a closed pipe, a dead
        parent or an interrupt — a failed message never ends the loop."""
        conn = self.conn
        while True:
            try:
                kind, seq, *args = _recv_watched(conn, parent_pid)
            except (EOFError, OSError, KeyboardInterrupt):
                return
            self._seq = seq
            try:
                handler = HANDLERS.get(kind)
                if handler is None:
                    raise ValueError(f"unknown shard message kind {kind!r}")
                reply = ("ok", seq, getattr(self, handler)(*args))
            except Exception as exc:
                reply = ("err", seq, _safe_exception(exc))
            try:
                pipe_send(conn, reply)
            except (BrokenPipeError, OSError):
                return
            if kind == "shutdown":
                return


def _safe_exception(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a plain stand-in."""
    try:
        clone = pickle.loads(pickle.dumps(exc))
        if type(clone) is type(exc) and str(clone) == str(exc):
            return exc
    except Exception:
        pass
    return ReproError(f"{type(exc).__name__}: {exc}")


def _recv_watched(conn, parent_pid: int):
    """``conn.recv()`` with a parent-death watchdog.

    Under the fork start method every worker inherits copies of
    parent-side pipe fds (its own pipe's, and earlier siblings'), so a
    parent that dies without sending ``shutdown`` — SIGTERM, SIGKILL, a
    crash — never produces EOF on the pipe and a blind ``recv`` would
    block forever, orphaning the worker.  Poll with a short timeout and
    exit when the parent pid changes (orphans are re-parented to init /
    a subreaper): workers follow a dead parent down within ~1s no matter
    how it died.
    """
    while True:
        if conn.poll(1.0):
            return pipe_recv(conn)
        if os.getppid() != parent_pid:
            raise EOFError("parent process died")


def worker_main(conn, graph, labels, owned, max_dest_kernels, max_finders,
                index_path=None,
                metrics_enabled: bool = False, shard: int = 0) -> None:
    """Entry point of one worker process: serve the pipe until shutdown.

    Builds the shard's engine + service, reports health (or the build
    error) as the ``seq 0`` startup handshake, then answers the protocol
    in the module docstring through :meth:`_ShardWorker.serve`.

    ``metrics_enabled`` turns this process's metrics registry on at
    startup (the spawn-time hand-off of the parent's enable state — under
    the spawn start method the child re-imports modules, so the flag must
    travel explicitly); the ``"metrics"`` kind then answers with the
    worker's snapshot for fleet-wide merging.
    """
    parent_pid = os.getppid()
    if metrics_enabled:
        REGISTRY.enable()
    try:
        engine = _build_shard_engine(graph, labels, owned, index_path)
        service = QueryService(engine, max_dest_kernels=max_dest_kernels,
                               max_finders=max_finders)
        worker = _ShardWorker(conn, service, owned, shard)
    except BaseException as exc:  # startup failure: report, then exit
        try:
            pipe_send(conn, ("err", 0, _safe_exception(exc)))
        except (BrokenPipeError, OSError):
            pass
        return
    try:
        pipe_send(conn, ("ok", 0, worker.health()))
    except (BrokenPipeError, OSError):
        return  # parent died (or tore the fleet down) during our build
    worker.serve(parent_pid)
