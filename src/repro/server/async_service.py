"""The asyncio serving front-end over the warm :class:`QueryService`.

:class:`AsyncQueryService` turns the batch service into an online front
door for concurrent request traffic:

* **One warm session per process, one execution thread** — :meth:`submit`
  queues each admitted request straight onto a work queue that feeds
  long-lived execution threads: one over a :class:`QueryService`, which
  runs over the service's one
  :attr:`~repro.service.service.QueryService.session`, as ``run_batch``
  and every shard worker do.  A FindNN stream depends only on
  ``(source, category)``, never on the target, so streams are reused
  across targets, and requests for the same ``(t, C)`` group also share
  the warm ``dis(·, t)`` kernel.  Under the GIL a second thread would not
  run a pure-Python search on a second core, only interleave two of
  them.  The price is head-of-line blocking behind an expensive plan;
  deadlines bound it (an expired request is shed at dispatch, never
  executed) and ``repro_serving_queue_wait_seconds`` measures it.  The
  answer comes back to the event loop in one ``call_soon_threadsafe``.
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
  pending at or past half of ``max_queue`` — admission
  consults the request's *resolved plan* and sheds the expensive class
  first (finder-free GSP full-graph searches), keeping headroom for
  cheap indexed queries.  A sharded request whose categories span
  shards is not in that class: it runs once, on one worker, like any
  other indexed query.
* **Deadlines** — a request submitted with ``deadline_s`` is shed with
  :class:`~repro.exceptions.DeadlineExceededError` if it is still queued
  when the deadline passes, its execution time budget is capped to the
  time remaining at dispatch, and an answer left incomplete at an
  expired deadline is converted to the same error rather than returned
  as a silent partial result.
* **Streaming** — :meth:`submit` with ``on_route=`` runs the same
  admission and work queue but hands each discovered route to the
  callback the moment the anytime search finalises it (the
  ``{"stream": true}`` TCP seam).
* **Sharded backing** — construct over a
  :class:`~repro.shard.service.ShardedQueryService` and the work queue
  feeds :data:`FLEET_DISPATCH_WIDTH` execution threads instead, each
  dispatching to the category-partitioned worker *processes*: pipe waits
  release the GIL, so executions overlap on real cores (the per-shard
  locks serialise only same-shard traffic), and the warm sessions live
  worker-side.
* **Update safety** — the one execution thread runs every query over
  the engine's indexes (the shard worker's argument).  Index mutations must
  come from the event-loop thread, ideally with no requests in flight
  (``await front.drain()`` first — the same no-updates-mid-batch
  contract as every other engine use); the session epoch-validates on
  every query, so a mutation is visible to all subsequent requests
  exactly like a cold engine.
"""

from __future__ import annotations

import asyncio
import math
import queue
import sys
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.api import DEFAULT_OPTIONS, QueryOptions, QueryRequest
from repro.core.query import KOSRQuery
from repro.exceptions import DeadlineExceededError, ServiceOverloadedError
from repro.obs import clock
from repro.obs.metrics import REGISTRY as _METRICS
from repro.service.service import QueryService

#: concurrent dispatches to a sharded fleet (its execution threads); over
#: a :class:`QueryService` executions run one at a time on one thread
FLEET_DISPATCH_WIDTH = 4

#: the ``key`` of a :meth:`AsyncQueryService.call` work item: not a
#: request, so it skips the request bookkeeping on the way back
_CALL = object()


class ServingStats:
    """Front-door counters: admission, coalescing, and execution.

    The one count of each event: :meth:`AsyncQueryService.metrics_snapshot`
    publishes them as ``repro_serving_<name>_total``.  ``groups_retired``
    is always 0: the front door keeps no per-group workers to retire.
    The key stays so readers of :meth:`as_dict` see the same fields; it
    is not published.
    """

    __slots__ = ("submitted", "coalesced", "rejected", "executed",
                 "groups_retired", "streamed",
                 "deadline_shed", "expensive_shed")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class AsyncQueryService:
    """Bounded, coalescing asyncio front-end over one warm service.

    Construct from a :class:`QueryService` (or anything with a
    ``.service`` attribute, e.g. a :class:`KOSREngine`) or from a
    :class:`~repro.shard.service.ShardedQueryService`.  Use as an async
    context manager, or call :meth:`close` when done — it answers every
    admitted request, then stops the execution threads.

    ``max_queue`` bounds *pending* requests (admitted but unanswered,
    executing included) — ``None`` disables admission control.
    """

    def __init__(self, service, *, max_queue: Optional[int] = None):
        # A fleet exists only once its module is loaded: look the class
        # up there rather than import the fleet into an unsharded server.
        fleet_module = sys.modules.get("repro.shard.service")
        fleet = fleet_module is not None and isinstance(
            service, fleet_module.ShardedQueryService)
        if not (fleet or isinstance(service, QueryService)):
            service = service.service
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None)")
        self.service = service
        self.max_queue = max_queue
        self.stats = ServingStats()
        #: coalescing map: request key -> in-flight future
        self._inflight: Dict[Tuple, asyncio.Future] = {}
        self._pending = 0
        self._executing = 0
        self._executing_lock = threading.Lock()
        self._no_pending = asyncio.Event()
        self._no_pending.set()
        self._closed = False
        #: work items ``(fn, args, future, key)`` for the execution threads
        self._work: queue.SimpleQueue = queue.SimpleQueue()
        width = FLEET_DISPATCH_WIDTH if fleet else 1
        self._threads = [
            threading.Thread(target=self._serve_work, daemon=True,
                             name=f"repro-serve-{i}")
            for i in range(width)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "AsyncQueryService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Answer every admitted request, then stop the execution threads."""
        if self._closed:
            return
        self._closed = True
        await self.drain()
        loop = asyncio.get_running_loop()
        stopped = [loop.create_future() for _ in self._threads]
        for future in stopped:
            self._work.put((None, (), future, None))
        await asyncio.gather(*stopped)
        for thread in self._threads:
            thread.join()

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
        The callback runs on the *execution thread*; marshal to the
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
        if on_route is not None:
            self.stats.streamed += 1
        key = None  # stays None when not registered for coalescing
        if deadline_s is None and on_route is None:
            key = request.key
            inflight = self._inflight.get(key)
            if inflight is not None:
                self.stats.coalesced += 1
                # shield: one waiter's cancellation must not cancel the
                # shared execution out from under the others.
                return await asyncio.shield(inflight)
        deadline = self._deadline_from(deadline_s)
        self._admit(request)
        # the admission time, for the queue-wait histogram
        admitted = clock.now() if _METRICS.enabled else None
        future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight[key] = future
        self._pending += 1
        self._no_pending.clear()
        self._work.put((self._dispatch,
                        (request, on_route, deadline, admitted), future, key))
        return await asyncio.shield(future)

    async def call(self, fn, *args):
        """Run ``fn(*args)`` on an execution thread; return its result.

        The call queues behind the requests already admitted, takes no
        admission slot and counts as no request.  Unsharded, it runs on
        the thread that owns the warm session; sharded, it keeps
        blocking pipe I/O off the event loop.  The TCP metrics probe
        uses it.
        """
        if self._closed:
            raise RuntimeError("AsyncQueryService is closed")
        future = asyncio.get_running_loop().create_future()
        self._work.put((fn, args, future, _CALL))
        return await future

    def _deadline_from(self, deadline_s: Optional[float]):
        """``(absolute clock deadline, requested ms)`` or ``None``; a
        deadline already in the past sheds immediately, a NaN one raises."""
        if deadline_s is None:
            return None
        if math.isnan(deadline_s):
            raise ValueError("deadline_s must be a number, got NaN")
        deadline_ms = float(deadline_s) * 1000.0
        if deadline_s <= 0:
            self.stats.deadline_shed += 1
            raise DeadlineExceededError(deadline_ms)
        return (clock.now() + deadline_s, deadline_ms)

    def _admit(self, request: QueryRequest) -> None:
        """Bounded admission; sheds the expensive plan class first.

        Past ``max_queue`` everything is rejected.  Past the expensive
        watermark (half of ``max_queue``), requests whose
        resolved plan declares no finder (the GSP family's full-graph
        searches) are rejected while cheap indexed queries keep being
        admitted.
        """
        if self.max_queue is None:
            return
        if self._pending >= self.max_queue:
            self.stats.rejected += 1
            raise ServiceOverloadedError(self._pending, self.max_queue)
        if (self._pending >= max(1, self.max_queue // 2)
                and self._is_expensive(request)):
            self.stats.rejected += 1
            self.stats.expensive_shed += 1
            raise ServiceOverloadedError(self._pending, self.max_queue)

    def _is_expensive(self, request: QueryRequest) -> bool:
        """Whether this request belongs to the shed-first class.

        Consults the same declared needs the plan-aware router uses:
        a plan with ``needs_finder=False`` searches the whole graph
        (GSP / GSP-CH) instead of walking indexed category streams.
        Resolution failures are treated as cheap — the executor will
        raise the real error to the caller.
        """
        try:
            return not request.options.plan_for().needs_finder
        except Exception:
            return False

    async def gather(self, requests: Sequence[Union[QueryRequest, KOSRQuery]],
                     options: Optional[QueryOptions] = None) -> List:
        """Submit a whole workload concurrently; results in input order.

        The async analogue of ``QueryService.run_batch`` — duplicates
        coalesce, and the rest share its warm session.  Any rejection or query
        error propagates (submit individually to handle overload per
        request).
        """
        return await asyncio.gather(
            *(self.submit(r, options) for r in requests))

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Session-cache counters of the warm state this front door uses.

        Unsharded, that is the service's one session (which ``run`` and
        ``run_batch`` on the same service share); sharded, the sum over
        the worker processes' sessions (one ``stats`` exchange per
        shard).  This is what the TCP ``{"stats": true}`` request reports.
        """
        return self.service.cache_stats()

    def metrics_snapshot(self) -> dict:
        """One merged metrics snapshot for this front door.

        Sets ``repro_serving_<field>_total`` from :attr:`stats` and the
        queue gauges in the process registry, then returns the backing's
        snapshot: the service samples its session and epochs (a fleet
        merges every worker's registry, each worker sampling its own).
        This is what the TCP ``{"metrics": true}`` probe and ``cli
        metrics`` report.  With the registry disabled the snapshot is
        empty and says so (``{"enabled": false}``).
        """
        metrics = _METRICS
        if metrics.enabled:
            totals = self.stats.as_dict()
            del totals["groups_retired"]  # always 0; not published
            metrics.sample_totals("repro_serving_", totals)
            metrics.gauge("repro_serving_queue_depth").set(self._pending)
            metrics.gauge("repro_serving_executing").set(self._executing)
        return self.service.metrics_snapshot()

    def _serve_work(self) -> None:
        """One execution thread: run work items until :meth:`close`'s stop
        item (``fn`` is ``None``), which it answers before it returns.

        Every item is answered, whatever its function raised; the result
        or error goes back to the item's event loop in one
        ``call_soon_threadsafe``, and the thread takes the next item.
        """
        work = self._work
        while True:
            fn, args, future, key = work.get()
            if fn is None:
                future.get_loop().call_soon_threadsafe(future.set_result,
                                                       None)
                return
            try:
                result, error = fn(*args), None
            except Exception as exc:
                result, error = None, exc
            future.get_loop().call_soon_threadsafe(
                self._finish, future, key, result, error)

    def _dispatch(self, request: QueryRequest, on_route, deadline,
                  admitted):
        """Run one admitted request (on an execution thread)."""
        if deadline is not None:
            # sheds a request whose deadline passed while it was queued
            request = self._capped_to(deadline, request)
        metrics = _METRICS
        if admitted is not None and metrics.enabled:
            metrics.histogram("repro_serving_queue_wait_seconds").observe(
                clock.now() - admitted)
        with self._executing_lock:
            self._executing += 1
        try:
            result = self._execute(request, on_route)
        finally:
            with self._executing_lock:
                self._executing -= 1
        if (deadline is not None and not result.stats.completed
                and clock.now() >= deadline[0]):
            # Incomplete at an expired deadline: the structured error,
            # not a silent partial.
            raise DeadlineExceededError(deadline[1])
        return result

    def _finish(self, future: asyncio.Future, key, result, error) -> None:
        """Resolve a work item's future (on the event loop)."""
        if key is _CALL:
            if future.cancelled():  # its caller stopped waiting
                return
            if error is None:
                future.set_result(result)
            else:
                future.set_exception(error)
            return
        if error is None:
            self.stats.executed += 1
            future.set_result(result)
        else:
            if isinstance(error, DeadlineExceededError):
                self.stats.deadline_shed += 1
            future.set_exception(error)
        self._pending -= 1
        if self._pending == 0:
            self._no_pending.set()
        if key is not None and self._inflight.get(key) is future:
            del self._inflight[key]

    @staticmethod
    def _capped_to(deadline, request: QueryRequest) -> QueryRequest:
        """``request`` with its execution time budget capped to the
        deadline time remaining at dispatch."""
        remaining = deadline[0] - clock.now()
        if remaining <= 0:
            raise DeadlineExceededError(deadline[1])
        options = request.options
        if options.time_budget_s is None or options.time_budget_s > remaining:
            request = QueryRequest(request.query,
                                   options.replace(time_budget_s=remaining))
        return request

    def _execute(self, request: QueryRequest, on_route=None):
        """Blocking plan execution (runs on an execution thread)."""
        return self.service.run(request.query, request.options,
                                on_route=on_route)
