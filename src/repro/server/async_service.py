"""The asyncio serving front-end over the warm :class:`QueryService`.

:class:`AsyncQueryService` turns the batch service into an online front
door for concurrent request traffic (the ROADMAP's async-serving item):

* **Per-group workers** — requests are routed to one asyncio worker task
  per ``(target, categories)`` group, reusing the batch executor's
  session-isolation seam: each worker owns a private
  :class:`~repro.service.cache.SessionCache`, so groupmates share the
  warm ``dis(·, t)`` kernel and FindNN streams while groups never touch
  each other's state.  Within a group, execution is serialized (warm
  sessions are not thread-safe); across groups it overlaps up to
  ``max_inflight`` on a thread pool.
* **Coalescing** — identical in-flight requests (equal
  :attr:`~repro.api.QueryRequest.key`, i.e. the same ``(s, t, C, k)``
  and options) resolve onto one future: one plan execution answers all
  concurrent holders with the *same result object*.  Deterministic
  streams + epoch validation make this safe; the async test suite pins
  it.
* **Backpressure** — admission is bounded: at most ``max_queue``
  requests may be pending (admitted, not yet answered).  Past that,
  :meth:`submit` raises
  :class:`~repro.exceptions.ServiceOverloadedError` so callers shed load
  instead of growing an unbounded queue.  Under partial overload —
  pending at or past ``expensive_fraction * max_queue`` — admission
  consults the request's *resolved plan* and sheds the expensive class
  first (finder-free GSP full-graph searches, and sharded requests whose
  categories span shards), keeping headroom for cheap indexed queries.
* **Deadlines** — a request submitted with ``deadline_s`` is shed with
  :class:`~repro.exceptions.DeadlineExceededError` if it is still queued
  when the deadline passes, its execution time budget is capped to the
  time remaining at dispatch, and an answer left incomplete at an
  expired deadline is converted to the same error rather than returned
  as a silent partial result.
* **Streaming** — :meth:`submit` with ``on_route=`` runs the same
  admission and group machinery but hands each discovered route to the
  callback the moment the anytime search finalises it (the
  ``{"stream": true}`` TCP seam).
* **Sharded backing** — construct over a
  :class:`~repro.shard.service.ShardedQueryService` and the same thread
  pool dispatches to category-partitioned worker *processes* instead of
  running the search in-process: admission, coalescing, and grouping are
  unchanged, but executions overlap on real cores (the per-shard locks
  serialise only same-shard traffic).  Warm sessions then live
  worker-side, so group workers carry no client-side session and the
  overlay barrier below is skipped (each worker is single-threaded over
  its own buffers).
* **Update safety** — blocking plan execution runs in the thread pool,
  and pending delta overlays are folded *before* a request is dispatched
  whenever an index is dirty (draining in-flight executions first):
  cursor creation then only ever reads the engine's buffers.  Index
  mutations themselves must come from the event-loop thread, ideally with no
  requests in flight (``await front.drain()`` first — the same
  no-updates-mid-batch contract as every other engine use); the
  per-worker sessions epoch-validate on every query, so a mutation is
  visible to all subsequent requests exactly like a cold engine.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from time import monotonic
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api import DEFAULT_OPTIONS, QueryOptions, QueryRequest
from repro.core.query import KOSRQuery
from repro.exceptions import DeadlineExceededError, ServiceOverloadedError
from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.cache import CACHE_POPULATIONS, SessionCache
from repro.service.service import QueryService


class ServingStats:
    """Front-door counters: admission, coalescing, and execution."""

    __slots__ = ("submitted", "coalesced", "rejected", "executed",
                 "overlay_folds", "groups_retired", "streamed",
                 "deadline_shed", "expensive_shed")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class AsyncQueryService:
    """Bounded, coalescing asyncio front-end over one warm service.

    Construct from a :class:`QueryService` (or anything with a
    ``.service`` attribute, e.g. a :class:`KOSREngine`).  Use as an async
    context manager, or call :meth:`close` when done — it stops the group
    workers and shuts the thread pool down.

    ``max_inflight`` bounds concurrently *executing* requests (thread
    pool width); ``max_queue`` bounds *pending* requests (admitted but
    unanswered, executing included) — ``None`` disables admission
    control.  ``max_groups`` bounds the live group workers: when a new
    group would exceed it, an *idle* group (no outstanding requests) is
    retired first, dropping its warm session — a soft cap, since busy
    groups are never evicted.  ``coalesce=False`` turns request
    coalescing off (every request executes its own plan).
    """

    def __init__(self, service, *, max_inflight: int = 4,
                 max_queue: Optional[int] = None,
                 max_groups: Optional[int] = None, coalesce: bool = True,
                 expensive_fraction: float = 0.5):
        from repro.shard.service import ShardedQueryService

        if not isinstance(service, (QueryService, ShardedQueryService)):
            service = service.service
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None)")
        if max_groups is not None and max_groups < 1:
            raise ValueError("max_groups must be >= 1 (or None)")
        if not 0.0 < expensive_fraction <= 1.0:
            raise ValueError("expensive_fraction must be in (0, 1]")
        self.service = service
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.max_groups = max_groups
        self.coalesce = coalesce
        #: pending level at which expensive plans start being shed
        self._expensive_watermark = (
            None if max_queue is None
            else max(1, int(max_queue * expensive_fraction)))
        self.stats = ServingStats()
        self._pool = ThreadPoolExecutor(max_workers=max_inflight,
                                        thread_name_prefix="repro-serve")
        self._sem = asyncio.Semaphore(max_inflight)
        #: group key -> (request queue, worker task, warm session)
        self._groups: Dict[Tuple, Tuple[asyncio.Queue, asyncio.Task,
                                        SessionCache]] = {}
        #: group key -> outstanding (enqueued or executing) requests
        self._group_load: Dict[Tuple, int] = {}
        #: coalescing map: request key -> in-flight future
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._pending = 0
        self._executing = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._no_pending = asyncio.Event()
        self._no_pending.set()
        self._closed = False
        #: cache counters of group sessions retired by the max_groups cap
        #: (kept so cache_stats() reports lifetime totals, not survivors)
        self._retired_cache_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain the group workers and shut the thread pool down."""
        if self._closed:
            return
        self._closed = True
        for queue, _task, _session in self._groups.values():
            queue.put_nowait(None)
        tasks = [task for _, task, _ in self._groups.values()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for _queue, _task, session in self._groups.values():
            self._absorb_session_stats(session)
        self._groups.clear()
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests admitted but not yet answered (executing included)."""
        return self._pending

    async def drain(self) -> None:
        """Wait until no request is pending (e.g. before index updates)."""
        await self._no_pending.wait()

    @staticmethod
    def _coerce(request: Union[QueryRequest, KOSRQuery],
                options: Optional[QueryOptions]) -> QueryRequest:
        if isinstance(request, QueryRequest):
            return request
        return QueryRequest(request,
                            options if options is not None else DEFAULT_OPTIONS)

    async def submit(self, request: Union[QueryRequest, KOSRQuery],
                     options: Optional[QueryOptions] = None, *,
                     deadline_s: Optional[float] = None, on_route=None):
        """Answer one request; returns a ``KOSRResult``.

        Accepts a :class:`~repro.api.QueryRequest` or a bare
        :class:`KOSRQuery` plus ``options``.  Identical in-flight
        requests coalesce onto one execution (all callers receive the
        same result object).  Raises
        :class:`~repro.exceptions.ServiceOverloadedError` when the
        admission queue is full (or past the expensive-plan watermark for
        the shed-first class), :class:`DeadlineExceededError` when
        ``deadline_s`` (seconds from now) expires before a complete
        answer, and re-raises whatever the plan execution raised
        (``QueryError``, ``BudgetExceededError``, ...) for every
        coalesced waiter.

        ``on_route`` streams the answer: it fires with every
        :class:`~repro.types.SequencedResult` the moment the anytime
        search finalises it — before the search for the next one begins.
        The callback runs on the *executing pool thread*; marshal to the
        event loop (e.g. ``loop.call_soon_threadsafe``) before touching
        loop-owned state.

        Deadline-carrying and streamed requests never coalesce: sharing
        an execution would share the *other* caller's time limits, and
        each streaming caller needs its own route feed.
        """
        if self._closed:
            raise RuntimeError("AsyncQueryService is closed")
        request = self._coerce(request, options)
        self.stats.submitted += 1
        metrics = _METRICS
        if metrics.enabled:
            metrics.counter("repro_serving_submitted_total").inc()
        if on_route is not None:
            self.stats.streamed += 1
            if metrics.enabled:
                metrics.counter("repro_serving_streamed_total").inc()
        key = None  # stays None when not registered for coalescing
        if self.coalesce and deadline_s is None and on_route is None:
            key = request.key
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.stats.coalesced += 1
                if metrics.enabled:
                    metrics.counter("repro_serving_coalesced_total").inc()
                # shield: one waiter's cancellation must not cancel the
                # shared execution out from under the others.
                return await asyncio.shield(inflight)
        deadline = self._deadline_from(deadline_s)
        self._admit(request)
        future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight[key] = future
        group_key = request.group_key
        self._pending += 1
        self._no_pending.clear()
        self._group_load[group_key] = self._group_load.get(group_key, 0) + 1
        self._group_queue(group_key).put_nowait(
            (request, key, group_key, future, on_route, deadline))
        return await asyncio.shield(future)

    def _deadline_from(self, deadline_s: Optional[float]):
        """``(absolute monotonic deadline, requested ms)`` or ``None``;
        a deadline already in the past sheds immediately."""
        if deadline_s is None:
            return None
        deadline_ms = float(deadline_s) * 1000.0
        if deadline_s <= 0:
            self._count_deadline_shed()
            raise DeadlineExceededError(deadline_ms)
        return (monotonic() + deadline_s, deadline_ms)

    def _count_deadline_shed(self) -> None:
        self.stats.deadline_shed += 1
        metrics = _METRICS
        if metrics.enabled:
            metrics.counter("repro_serving_deadline_shed_total").inc()

    def _admit(self, request: QueryRequest) -> None:
        """Bounded admission; sheds the expensive plan class first.

        Past ``max_queue`` everything is rejected.  Past the expensive
        watermark (``expensive_fraction * max_queue``), requests whose
        resolved plan declares no finder (the GSP family's full-graph
        searches) — or whose categories span multiple shards behind a
        sharded backend — are rejected while cheap indexed queries keep
        being admitted.
        """
        if self.max_queue is None:
            return
        metrics = _METRICS
        if self._pending >= self.max_queue:
            self.stats.rejected += 1
            if metrics.enabled:
                metrics.counter("repro_serving_rejected_total").inc()
            raise ServiceOverloadedError(self._pending, self.max_queue)
        if (self._pending >= self._expensive_watermark
                and self._is_expensive(request)):
            self.stats.rejected += 1
            self.stats.expensive_shed += 1
            if metrics.enabled:
                metrics.counter("repro_serving_rejected_total").inc()
                metrics.counter("repro_serving_expensive_shed_total").inc()
            raise ServiceOverloadedError(self._pending, self.max_queue)

    def _is_expensive(self, request: QueryRequest) -> bool:
        """Whether this request belongs to the shed-first class.

        Consults the same declared needs the plan-aware router uses:
        a plan with ``needs_finder=False`` searches the whole graph
        (GSP / GSP-CH) instead of walking indexed category streams, and a
        sharded request spanning several owners pays fan-out plus a
        cross-shard merge.  Resolution failures are treated as cheap —
        the executor will raise the real error to the caller.
        """
        options = request.options
        try:
            plan = options.plan_for()
        except Exception:
            return False
        if not plan.spec.needs_finder:
            return True
        owners_for = getattr(self.service, "owners_for", None)
        if owners_for is not None:
            try:
                if len(owners_for(request.query, options)) > 1:
                    return True
            except Exception:
                return False
        return False

    async def gather(self, requests: Sequence[Union[QueryRequest, KOSRQuery]],
                     options: Optional[QueryOptions] = None) -> List:
        """Submit a whole workload concurrently; results in input order.

        The async analogue of ``QueryService.run_batch`` — duplicates
        coalesce and distinct groups overlap.  Any rejection or query
        error propagates (submit individually to handle overload per
        request).
        """
        return await asyncio.gather(
            *(self.submit(r, options) for r in requests))

    # ------------------------------------------------------------------
    def group_sessions(self) -> Dict[Tuple, SessionCache]:
        """The live per-group warm sessions (observability/tests)."""
        return {key: session for key, (_q, _t, session)
                in self._groups.items()}

    def _absorb_session_stats(self, session: Optional[SessionCache]) -> None:
        if session is None:  # sharded backend: warm state lives worker-side
            return
        totals = self._retired_cache_stats
        for name, value in session.stats.as_dict().items():
            totals[name] = totals.get(name, 0) + value

    def cache_stats(self) -> Dict[str, int]:
        """Session-cache counters over this front door's whole lifetime.

        Sums the live group sessions plus every session retired by the
        ``max_groups`` cap.  With a sharded backend the warm state lives
        in the worker processes, so the counters come from the fleet
        instead (one ``stats`` exchange per shard).  This is what the TCP
        protocol's ``{"stats": true}`` request reports.
        """
        remote = getattr(self.service, "cache_stats", None)
        if callable(remote):
            return remote()
        totals = dict(self._retired_cache_stats)
        for session in self.group_sessions().values():
            for name, value in session.stats.as_dict().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def cache_hit_rates(self) -> Dict[str, float]:
        """Per-artefact hit rates derived from :meth:`cache_stats`."""
        from repro.service.cache import hit_rates_from

        return hit_rates_from(self.cache_stats())

    def metrics_snapshot(self) -> dict:
        """One merged metrics snapshot for this front door.

        Samples the point-in-time gauges (queue depth, executing count,
        live groups, warm cache populations summed over group sessions)
        into the process registry, then returns its snapshot — or, over a
        sharded backend, the fleet-wide merge of every worker's registry
        with this process's (the workers' warm state lives with them, so
        their handlers sample their own gauges).  This is what the TCP
        ``{"metrics": true}`` probe and ``cli metrics`` report.  With the
        registry disabled the snapshot is empty and says so
        (``{"enabled": false}``).
        """
        metrics = _METRICS
        if metrics.enabled:
            metrics.gauge("repro_serving_queue_depth").set(self._pending)
            metrics.gauge("repro_serving_executing").set(self._executing)
            metrics.gauge("repro_serving_groups").set(len(self._groups))
            populations: Dict[str, int] = {}
            for session in self.group_sessions().values():
                if session is None:
                    continue
                for name, value in session.populations().items():
                    populations[name] = populations.get(name, 0) + value
            for name in CACHE_POPULATIONS:
                metrics.gauge(f"repro_cache_{name}").set(
                    populations.get(name, 0))
            # Epoch gauges for an unsharded backend (shard workers
            # sample their own, labeled by shard, inside the fleet).
            engine = getattr(self.service, "engine", None)
            if engine is not None:
                metrics.gauge("repro_index_epoch").set(engine.index_epoch)
                for cid, version in engine.category_versions().items():
                    metrics.gauge("repro_category_version",
                                  category=cid).set(version)
        remote = getattr(self.service, "metrics_snapshot", None)
        if callable(remote):
            return remote()
        return metrics.snapshot()

    def _group_queue(self, group_key: Tuple) -> asyncio.Queue:
        entry = self._groups.get(group_key)
        if entry is None:
            if self.max_groups is not None:
                self._evict_idle_groups()
            queue: asyncio.Queue = asyncio.Queue()
            session = self.service.new_session()
            task = asyncio.get_running_loop().create_task(
                self._group_worker(queue, session))
            entry = (queue, task, session)
            self._groups[group_key] = entry
        return entry[0]

    def _evict_idle_groups(self) -> None:
        """Retire idle workers so a new group stays within ``max_groups``.

        A soft LRU-by-creation cap: only groups with zero outstanding
        requests are retired (their worker sees the ``None`` sentinel
        immediately — the queue is empty — and exits, dropping the warm
        session).  If every group is busy, the cap is allowed to
        overshoot; ``max_queue`` already bounds total outstanding work.
        """
        while len(self._groups) >= self.max_groups:
            idle = next((gk for gk in self._groups
                         if not self._group_load.get(gk)), None)
            if idle is None:
                return
            queue, _task, session = self._groups.pop(idle)
            self._group_load.pop(idle, None)
            self._absorb_session_stats(session)
            queue.put_nowait(None)
            self.stats.groups_retired += 1

    async def _group_worker(self, queue: asyncio.Queue,
                            session: SessionCache) -> None:
        """Serve one group's requests serially over its warm session.

        Every path out of a request — success, executor failure, or an
        exception from the barrier/semaphore plumbing itself — resolves
        the caller's future; the worker only exits on the ``None``
        shutdown sentinel (or cancellation), never because one request
        failed.
        """
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            if item is None:
                return
            request, key, group_key, future, on_route, deadline = item
            try:
                if deadline is not None and monotonic() >= deadline[0]:
                    # Expired while queued: shed without executing.
                    self._count_deadline_shed()
                    raise DeadlineExceededError(deadline[1])
                async with self._sem:
                    await self._overlay_barrier()
                    self._executing += 1
                    self._idle.clear()
                    try:
                        if deadline is not None:
                            request = self._capped_to(deadline, request)
                        result = await loop.run_in_executor(
                            self._pool, self._execute, request, session,
                            on_route)
                        if (deadline is not None
                                and not result.stats.completed
                                and monotonic() >= deadline[0]):
                            # Incomplete at an expired deadline: the
                            # structured error, not a silent partial.
                            raise DeadlineExceededError(deadline[1])
                    except Exception as exc:
                        if isinstance(exc, DeadlineExceededError):
                            self._count_deadline_shed()
                        if not future.done():
                            future.set_exception(exc)
                    else:
                        self.stats.executed += 1
                        if not future.done():
                            future.set_result(result)
                    finally:
                        self._executing -= 1
                        if self._executing == 0:
                            self._idle.set()
            except BaseException as exc:  # plumbing failed — still answer
                if not future.done():
                    future.set_exception(
                        exc if isinstance(exc, Exception)
                        else RuntimeError(f"serving worker interrupted: "
                                          f"{exc!r}"))
                if not isinstance(exc, Exception):
                    raise  # CancelledError and friends must propagate
            finally:
                self._pending -= 1
                if self._pending == 0:
                    self._no_pending.set()
                if key is not None and self._inflight.get(key) is future:
                    del self._inflight[key]
                load = self._group_load.get(group_key, 1) - 1
                if load > 0:
                    self._group_load[group_key] = load
                else:
                    self._group_load.pop(group_key, None)
                queue.task_done()

    @staticmethod
    def _capped_to(deadline, request: QueryRequest) -> QueryRequest:
        """``request`` with its execution time budget capped to the
        deadline time remaining at dispatch."""
        remaining = deadline[0] - monotonic()
        if remaining <= 0:
            raise DeadlineExceededError(deadline[1])
        options = request.options
        if options.time_budget_s is None or options.time_budget_s > remaining:
            request = QueryRequest(request.query,
                                   options.replace(time_budget_s=remaining))
        return request

    def _execute(self, request: QueryRequest, session: SessionCache,
                 on_route=None):
        """Blocking plan execution (runs on the thread pool)."""
        return self.service.run(request.query, request.options,
                                session=session, on_route=on_route)

    # ------------------------------------------------------------------
    def _dirty_overlays(self) -> bool:
        # A sharded backend has no client-side engine: each worker is
        # single-threaded over its own indexes, so lazy cursor-time
        # folding is race-free there and no barrier is needed.
        engine = getattr(self.service, "engine", None)
        if engine is None:
            return False
        inverted = engine.inverted
        return bool(inverted) and any(il.dirty for il in inverted.values())

    async def _overlay_barrier(self) -> None:
        """Fold dirty delta overlays before dispatching to a thread.

        Lazy cursor-time patching mutates the engine's shared buffers —
        fine on one thread, a data race across pool workers.  When an
        overlay is dirty, wait for in-flight executions to drain, fold
        on the event-loop thread (single-threaded, so no new execution
        can start mid-fold), then proceed.  The fold is purely physical:
        no epoch change, identical results.
        """
        while self._dirty_overlays():
            if self._executing == 0:
                self.service._fold_pending_overlays()
                self.stats.overlay_folds += 1
                return
            await self._idle.wait()
