"""An in-thread fleet: fake pipes and thread-backed "processes".

``ShardedQueryService._spawn`` is the one place a pipe and a worker
process are created, through ``self._ctx.Pipe`` / ``self._ctx.Process``.
:class:`InThreadFleet` hands it a fake context instead of a
``multiprocessing`` one, so the *unchanged* parent code and the
*unchanged* ``worker_main`` talk over in-memory frame queues, each
worker on a daemon thread: a fleet is up in milliseconds and the
transport can be told to misbehave at an exact protocol point.

Faults are armed on a shard's current worker (:meth:`InThreadFleet.arm`)
and fire on its next frame of a given kind, ``"before"`` the handler
runs (the frame was received, nothing was applied) or ``"after"`` it
(applied, the final reply is about to be sent):

* ``die``   — the worker is gone, its pipe end closed (the message, or
  the acknowledgement, is lost with it);
* ``hang``  — the worker blocks until it is terminated;
* ``drop``  — the frame vanishes (``before``: the request, ``after``:
  the reply) and the worker serves on;
* ``delay`` — the worker sleeps ``delay_s`` first, then carries on.

A fault belongs to the worker it was armed on: a respawned replacement
starts clean, like a fresh process.  What threads cannot stand in for:
workers share the parent's metrics registry and pid, so tests reading
fleet-merged metrics or OS memory keep real processes.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque

from repro.shard.service import ShardedQueryService


class FakeConn:
    """One end of an in-memory duplex pipe: the ``Connection`` subset the
    fleet uses.  Like the real thing, a closed peer reads as EOF."""

    def __init__(self):
        self._frames: deque = deque()
        self._ready = threading.Condition()
        self.closed = False
        self.peer: "FakeConn" = None

    def send_bytes(self, data) -> None:
        peer = self.peer
        with peer._ready:
            if self.closed or peer.closed:
                raise BrokenPipeError("fake pipe closed")
            peer._frames.append(bytes(data))
            peer._ready.notify_all()

    def poll(self, timeout: float = 0.0) -> bool:
        with self._ready:
            return self._ready.wait_for(self._readable, timeout)

    def recv_bytes(self) -> bytes:
        with self._ready:
            self._ready.wait_for(self._readable)
            if not self._frames:
                raise EOFError("fake pipe closed")
            return self._frames.popleft()

    def close(self) -> None:
        self.closed = True
        for end in (self, self.peer):
            with end._ready:
                end._ready.notify_all()

    def _readable(self) -> bool:
        return bool(self._frames) or self.closed or self.peer.closed


class WorkerEnd(FakeConn):
    """The worker's end, where armed faults fire."""

    def __init__(self):
        super().__init__()
        #: armed faults, each ``{"kind", "when", "action", "times", ...}``
        self.faults: list = []
        #: where fired faults are logged (the fleet's ``fired`` list)
        self.shard, self.log = None, []
        self._kind = None  # of the frame being handled

    def _fire(self, when: str):
        """The action of the first armed fault matching this point."""
        for fault in self.faults:
            if fault["kind"] == self._kind and fault["when"] == when:
                fault["times"] -= 1
                if fault["times"] <= 0:
                    self.faults.remove(fault)
                self.log.append(
                    (self.shard, self._kind, when, fault["action"]))
                if fault["action"] == "delay":
                    time.sleep(fault["delay_s"])
                elif fault["action"] == "hang":
                    with self._ready:
                        self._ready.wait_for(lambda: self.closed)
                elif fault["action"] == "die":
                    self.close()
                return fault["action"]
        return None

    def recv_bytes(self) -> bytes:
        while True:
            frame = super().recv_bytes()
            self._kind = pickle.loads(frame)[0]
            if self._fire("before") != "drop":
                if self.closed:  # died, or terminated out of a hang
                    raise EOFError("fake worker is gone")
                return frame

    def send_bytes(self, data) -> None:
        # "route" frames are sent from inside the handler; only the
        # final reply marks the point after it.
        if pickle.loads(data)[0] == "route" or self._fire("after") != "drop":
            super().send_bytes(data)


class ParentCopy:
    """The parent's copy of the worker's pipe end.  ``_spawn`` closes it
    once the worker has started; the worker's own copy stays open."""

    def __init__(self, end: WorkerEnd):
        self.end = end

    def close(self) -> None:
        pass


class ThreadProcess:
    """A daemon thread with the ``Process`` subset the fleet uses.

    The arguments make a ``pickle`` round trip, as they would on their
    way into a real process: a worker never shares its graph or labels
    with the parent.  Terminating closes the worker's pipe end, which
    ends its message loop at the next frame boundary.
    """

    def __init__(self, target, args, name=None, daemon=True):
        self.end = args[0].end
        self._thread = threading.Thread(
            target=target, name=name, daemon=True,
            args=(self.end, *pickle.loads(pickle.dumps(args[1:]))))

    def start(self) -> None:
        self._thread.start()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def terminate(self) -> None:
        self.end.close()

    kill = terminate

    def join(self, timeout=None) -> None:
        self._thread.join(timeout)


class FakeContext:
    """What ``_spawn`` sees in place of a ``multiprocessing`` context."""

    Process = ThreadProcess

    @staticmethod
    def Pipe(duplex=True):
        parent_end, worker_end = FakeConn(), WorkerEnd()
        parent_end.peer, worker_end.peer = worker_end, parent_end
        return parent_end, ParentCopy(worker_end)


class InThreadFleet(ShardedQueryService):
    """A :class:`ShardedQueryService` over the fake transport."""

    #: stands in for the ``multiprocessing`` context
    context = FakeContext

    def __init__(self, *args, **kwargs):
        #: ``(shard, kind, when, action)`` of every fault that fired
        self.fired: list = []
        super().__init__(*args, **kwargs)

    def _spawn(self, shard: int) -> None:
        self._ctx = self.context
        super()._spawn(shard)
        end = self._procs[shard].end
        end.shard, end.log = shard, self.fired

    def arm(self, shard: int, kind: str, when: str = "before",
            action: str = "die", times: int = 1,
            delay_s: float = 0.0) -> None:
        """Arm a fault on ``shard``'s current worker (see the module
        docstring); it fires on the next ``times`` matching frames."""
        self._procs[shard].end.faults.append(
            {"kind": kind, "when": when, "action": action, "times": times,
             "delay_s": delay_s})
