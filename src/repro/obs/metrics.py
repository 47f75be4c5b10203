"""A dependency-free metrics registry with mergeable snapshots.

Three instrument kinds, mirroring the Prometheus data model but with no
wire format or client library:

* :class:`Counter` — monotonically increasing totals (requests served,
  routes examined);
* :class:`Gauge` — point-in-time values that can move both ways (queue
  depth, warm cache population);
* :class:`Histogram` — fixed-bucket latency distributions.  Every
  histogram with the same name uses the same bucket bounds, so two
  snapshots of the "same" histogram taken in different *processes* merge
  by element-wise addition — that is how a sharded fleet's per-worker
  latency distributions combine into one fleet-wide view.

The registry is keyed by ``(name, labels)`` and guarded by a single
``enabled`` flag.  Instrumented call sites follow the pattern::

    m = REGISTRY
    if m.enabled:
        m.counter("repro_queries_total", method="SK").inc()

so the disabled cost is one attribute read and one branch — no metric
lookups, no clock reads.  Events a layer already counts in plain
counters are not booked here at all: snapshot-time samplers copy them
in (:meth:`MetricsRegistry.sample_totals`).  Observability must never
perturb answers: nothing in this module touches query state, and the
parity / fuzz suites run with the registry enabled to pin that
(``REPRO_METRICS=1``).

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain dicts of plain
lists — picklable for the shard pipe protocol and JSON-able for the TCP
``{"metrics": true}`` probe — and :func:`merge_snapshots` folds any
number of them (router + N workers) into one.

Thread-safety: increments are plain ``+=`` on attributes.  Under the
GIL, concurrent updates from pool threads may very occasionally lose an
increment; that is an accepted trade for a zero-lock hot path — these
are operational metrics, not accounting.  `QueryStats` counters, which
*are* accounting, never flow through here.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: Default histogram bounds (seconds): exponential-ish ladder from 100µs
#: to 10s; observations above the last bound land in the +inf bucket.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _normalize_labels(labels: Dict[str, str]) -> Dict[str, str]:
    """Label values are strings, Prometheus-style, so a shard id passed
    as ``shard=0`` and one probed back over JSON compare equal."""
    return {str(k): str(v) for k, v in labels.items()}


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = _normalize_labels(labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        return {"name": self.name, "type": "counter", "labels": self.labels,
                "value": self.value}


class Gauge:
    """A point-in-time value; can be set, incremented, and decremented."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Dict[str, str]):
        self.name = name
        self.labels = _normalize_labels(labels)
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def to_dict(self) -> dict:
        return {"name": self.name, "type": "gauge", "labels": self.labels,
                "value": self.value}


class Histogram:
    """A fixed-bucket distribution; bucket ``i`` counts observations
    ``<= bounds[i]``, with one extra +inf bucket at the end."""

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, labels: Dict[str, str],
                 bounds: Tuple[float, ...] = LATENCY_BUCKETS_S):
        self.name = name
        self.labels = _normalize_labels(labels)
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (0..1) from the bucket counts; the
        upper bound of the bucket the quantile falls in."""
        return quantile_from_buckets(self.bounds, self.counts, q)

    def to_dict(self) -> dict:
        return {"name": self.name, "type": "histogram", "labels": self.labels,
                "bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum}


def quantile_from_buckets(bounds, counts, q: float) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    seen = 0
    for i, c in enumerate(counts):
        seen += c
        if seen >= target:
            return bounds[i] if i < len(bounds) else float("inf")
    return float("inf")


class MetricsRegistry:
    """Get-or-create instrument store with a global enable switch.

    Disabled by default: every instrumented layer guards its metric work
    with ``if REGISTRY.enabled:``, so a registry that is never enabled
    costs one branch per query and nothing else (pinned by
    ``benchmarks/bench_metrics_overhead.py``).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, str, _LabelKey], object] = {}

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every instrument (tests; restart semantics)."""
        self._metrics.clear()

    def counter(self, name: str, **labels) -> Counter:
        key = (name, "counter", _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics.setdefault(key, Counter(name, labels))
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, "gauge", _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics.setdefault(key, Gauge(name, labels))
        return metric

    def histogram(self, name: str, bounds: Tuple[float, ...] = LATENCY_BUCKETS_S,
                  **labels) -> Histogram:
        key = (name, "histogram", _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics.setdefault(key, Histogram(name, labels, bounds))
        return metric

    def sample_totals(self, prefix: str, totals: Dict[str, int]) -> None:
        """Set one ``<prefix><name>_total`` counter per entry of ``totals``.

        For events a layer already counts in plain always-on counters
        (``ServingStats``, ``CacheStats``): the registry reads those at
        snapshot time instead of booking every event a second time.
        """
        for name, value in totals.items():
            self.counter(f"{prefix}{name}_total").value = value

    def snapshot(self) -> dict:
        """A plain-data view of every instrument (picklable, JSON-able)."""
        metrics = [m.to_dict() for _, m in sorted(
            self._metrics.items(), key=lambda item: item[0])]
        return {"enabled": self.enabled, "metrics": metrics}


def merge_snapshots(snapshots: List[Optional[dict]]) -> dict:
    """Fold snapshots from several registries (router + workers) into one.

    Counters and histogram buckets add; gauges add too (the fleet-wide
    queue depth / warm population is the sum over processes).  Histograms
    merged under the same ``(name, labels)`` must share bucket bounds —
    a mismatch raises :class:`ValueError` rather than producing a
    silently wrong distribution.  ``None`` entries are skipped.
    """
    merged: Dict[Tuple[str, str, _LabelKey], dict] = {}
    enabled = False
    for snap in snapshots:
        if not snap:
            continue
        enabled = enabled or bool(snap.get("enabled"))
        for metric in snap.get("metrics", ()):
            key = (metric["name"], metric["type"],
                   _label_key(metric.get("labels", {})))
            seen = merged.get(key)
            if seen is None:
                merged[key] = {k: (list(v) if isinstance(v, list) else v)
                               for k, v in metric.items()}
                continue
            if metric["type"] == "histogram":
                if list(seen["bounds"]) != list(metric["bounds"]):
                    raise ValueError(
                        f"histogram {metric['name']!r} bucket bounds differ "
                        "between snapshots; cannot merge")
                seen["counts"] = [a + b for a, b in
                                  zip(seen["counts"], metric["counts"])]
                seen["count"] += metric["count"]
                seen["sum"] += metric["sum"]
            else:
                seen["value"] += metric["value"]
    return {"enabled": enabled,
            "metrics": [merged[k] for k in sorted(merged)]}


#: The process-wide registry every layer instruments into.
REGISTRY = MetricsRegistry()
# A forked child (a shard worker) counts only its own events, as a
# spawned one does; inherited instruments would merge twice into a fleet
# snapshot.
os.register_at_fork(after_in_child=REGISTRY.reset)
