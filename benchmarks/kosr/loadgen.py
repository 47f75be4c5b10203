"""The TCP load generator: one asyncio process, at most two connections.

Speaks the server's JSON-lines protocol.  Two loop types:

* **closed** — each connection sends its next request only after the
  previous reply arrived (callers that wait).  Latency runs from the
  socket write to the reply line being parsed.
* **open** — requests leave on a fixed schedule whether or not earlier
  ones were answered (independent users).  Latency runs from the
  instant the request was *due*, so a stall is charged to every request
  it delays, and ``late_ms`` records how late the generator itself
  wrote each request.

The server answers one connection's requests in order, so replies are
matched to requests by position, never by trusting the echoed ``id``.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Deque, List, Optional, Sequence, Tuple


@dataclass
class Sample:
    """One request as the client saw it; ``reply`` is None when the
    connection closed before an answer arrived (a missing reply)."""

    op: dict
    reply: Optional[dict] = None
    latency_ms: float = 0.0
    late_ms: float = 0.0
    reply_bytes: int = 0


@dataclass
class Drive:
    warmup: List[Sample] = field(default_factory=list)
    timed: List[Sample] = field(default_factory=list)
    #: the server's ``{"stats": true}`` reply, read after the window
    probe: dict = field(default_factory=dict)


def encode(op: dict) -> bytes:
    return json.dumps(op, separators=(",", ":")).encode() + b"\n"


class Connection:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(host, port))

    async def call(self, op: dict, line: Optional[bytes] = None) -> Sample:
        """One closed-loop round trip."""
        start = perf_counter()
        self.writer.write(line if line is not None else encode(op))
        raw = await self.reader.readline()
        if not raw:
            return Sample(op)
        reply = json.loads(raw)
        return Sample(op, reply, (perf_counter() - start) * 1000.0,
                      reply_bytes=len(raw))

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


Span = Tuple[int, int]
Hook = Callable[[int], None]


async def closed_loop(conns: Sequence[Connection],
                      ops: Sequence[dict]) -> List[Sample]:
    """Drive ``ops`` with one outstanding request per connection."""
    lines = [encode(op) for op in ops]
    samples = [Sample(op) for op in ops]
    indexes = iter(range(len(ops)))

    async def client(conn: Connection) -> None:
        for i in indexes:
            samples[i] = await conn.call(ops[i], lines[i])
            if samples[i].reply is None:
                return

    await asyncio.gather(*(client(conn) for conn in conns))
    return samples


async def open_loop(conns: Sequence[Connection], ops: Sequence[dict],
                    rate_per_s: float) -> List[Sample]:
    """Send ``ops`` at a fixed rate, round-robin over the connections;
    returns once every reply is in."""
    lines = [encode(op) for op in ops]
    samples = [Sample(op) for op in ops]
    pending: List[Deque[Tuple[int, float]]] = [deque() for _ in conns]
    expected = [len(range(c, len(ops), len(conns)))
                for c in range(len(conns))]

    async def reader(c: int) -> None:
        conn = conns[c]
        for _ in range(expected[c]):
            raw = await conn.reader.readline()
            if not raw:
                return
            reply = json.loads(raw)
            done = perf_counter()
            i, due = pending[c].popleft()
            samples[i].reply = reply
            samples[i].latency_ms = (done - due) * 1000.0
            samples[i].reply_bytes = len(raw)

    readers = [asyncio.ensure_future(reader(c)) for c in range(len(conns))]
    start = perf_counter() + 0.01
    for i, line in enumerate(lines):
        due = start + i / rate_per_s
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        c = i % len(conns)
        pending[c].append((i, due))
        samples[i].late_ms = max(0.0, (perf_counter() - due) * 1000.0)
        conns[c].writer.write(line)
    await asyncio.gather(*readers)
    return samples


async def drive(host: str, port: int, warmup: Sequence[dict],
                timed: Sequence[dict], *, loop_kind: str, connections: int,
                rate_per_s: float = 0.0,
                segments: Optional[Sequence[Span]] = None,
                on_first_reply: Callable[[Sample], None] = lambda s: None,
                before_segment: Hook = lambda lo: None,
                after_segment: Hook = lambda hi: None) -> Drive:
    """One repetition against a live server.

    The warm-up prefix goes first, serially and untimed;
    ``on_first_reply`` sees its first sample (the instant that closes
    ``setup_s``).  The timed list is driven one ``(lo, hi)`` segment at
    a time: ``before_segment(lo)`` runs with nothing in flight, then
    the segment's requests go out (an open-loop segment has its own
    schedule), and ``after_segment(hi)`` runs once the segment's last
    reply is in.  The stats probe is sent only after the last segment.
    """
    if segments is None:
        segments = [(0, len(timed))]
    conns = [await Connection.open(host, port) for _ in range(connections)]
    try:
        result = Drive()
        for i, op in enumerate(warmup):
            sample = await conns[0].call(op)
            result.warmup.append(sample)
            if i == 0:
                on_first_reply(sample)
        for lo, hi in segments:
            before_segment(lo)
            if loop_kind == "open":
                result.timed += await open_loop(conns, timed[lo:hi],
                                                rate_per_s)
            else:
                result.timed += await closed_loop(conns, timed[lo:hi])
            after_segment(hi)
        probe = await conns[0].call({"stats": True})
        result.probe = (probe.reply or {}).get("stats", {})
        return result
    finally:
        for conn in conns:
            await conn.close()
