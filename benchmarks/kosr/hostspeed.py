"""How fast the host is right now: a fixed piece of work, timed.

This benchmark runs on a few virtual CPUs of a shared host whose speed
drifts by 10-50 % for minutes at a time: two fixed pure-Python loops,
timed in alternating quarter-second slices for four minutes, each
ranged over half of its median while their *ratio* stayed within a few
per cent.  So every timed segment of a run, and every set-up, is
bracketed by two slices of the fixed work below, and each timing metric
is reported at the reference host speed: ``measured * REFERENCE_MS /
slice_ms``.  The factor is reported too (``host.slowdown``), so the
measured value can be had back.  Over ten runs in a noisy half hour this
took the spread of ``cold_uniform``'s ``p50_ms`` from 0.24 of the
median to 0.08 (``benchmarks/kosr/README.md``, "Noise policy").

The work never touches the program under test — a change to ``src/``
cannot move it — and mixes what the serving stack spends its time on:
heap pushes and pops, dict and list traffic, small-object allocation,
JSON encode and decode.

A set-up can last seconds, longer than the host keeps one speed, so
the process that waits for it also makes one call every ``PROBE_S`` of
the wait (:class:`Probe`), and the set-up is scaled by the mean over
the slice before, the wait and the slice after, each weighted by its
length.  Twelve index builds in a noisy quarter of an hour spread 0.23
of their median as measured, 0.16 scaled by the two slices alone, and
0.09 with the calls in between.

A slice is issued the way the load it brackets is issued: calls back to
back beside a closed loop, which keeps the server busy, and one call per
period beside an open loop, whose server idles between arrivals — a
virtual CPU that has been idle is not slowed the way a busy one is
(with back-to-back slices ``hot_groups`` spread *wider* than as
measured).
"""

from __future__ import annotations

import heapq
import json
import time
from time import perf_counter
from typing import Optional

#: the time of one :func:`work` call, back to back, that counts as speed
#: 1: slices on this box read 1.15 times that at its quietest and twice
#: that at its worst.  It only fixes the scale of the report and must
#: never change, or numbers stop being comparable
REFERENCE_MS = 3.0

#: pause between the calls a :class:`Probe` makes during a wait; the
#: calls cost the waited-for process about a tenth of one CPU
PROBE_S = 0.05
#: the time of one such call that counts as speed 1: more than a call
#: in a slice, because the process it waits for has emptied the caches
PROBE_REFERENCE_MS = 5.0

_DOC = {"id": 1, "costs": [1.5 * i for i in range(10)],
        "witnesses": [[i, i + 1, i + 2, i + 3, i + 4] for i in range(10)],
        "completed": True, "examined_routes": 214, "nn_queries": 731,
        "time_ms": 5.25}


def work() -> int:
    heap: list = []
    seen: dict = {}
    for i in range(3000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        seen[i % 997] = (i, i + 1)
    total = 0
    while heap:
        total += heapq.heappop(heap)[0]
    for _ in range(50):
        total += len(json.loads(json.dumps(_DOC))["costs"])
        total += len(sorted((x * 37 % 101, x) for x in range(40)))
    return total


def measure(seconds: float, period_s: Optional[float] = None) -> float:
    """Mean milliseconds per :func:`work` call over a slice of about
    ``seconds``: calls back to back, or one per ``period_s``.  A slice
    of no length is not measured: it reads the reference, and whatever
    it brackets stays as measured."""
    if not seconds:
        return REFERENCE_MS
    spent = 0.0
    count = 0
    start = perf_counter()
    while True:
        now = perf_counter()
        if period_s is not None:
            due = start + count * period_s
            if due > now:
                time.sleep(due - now)
                now = perf_counter()
        if now - start >= seconds and count:
            return spent * 1000.0 / count
        work()
        spent += perf_counter() - now
        count += 1


class Probe:
    """Times single :func:`work` calls made while waiting for something
    that runs beside them."""

    def __init__(self) -> None:
        self.spent_s = 0.0
        self.calls = 0

    def call(self) -> None:
        start = perf_counter()
        work()
        self.spent_s += perf_counter() - start
        self.calls += 1


def setup_slowdown(slice_s: float, before_ms: float, probe: Probe,
                   waited_s: float, after_ms: float) -> float:
    """How much slower than the reference the host was over a set-up:
    the slices on either side and the calls made during the wait, each
    weighted by its length."""
    slices = (before_ms + after_ms) / 2.0 / REFERENCE_MS
    if not probe.calls:
        return slices
    during = probe.spent_s * 1000.0 / probe.calls / PROBE_REFERENCE_MS
    return (slices * 2.0 * slice_s + during * waited_s) \
        / (2.0 * slice_s + waited_s)
