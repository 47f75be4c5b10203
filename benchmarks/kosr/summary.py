"""Percentile and median-of-repetitions arithmetic."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between
    the two closest order statistics."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def segment_spans(count: int, segments: int) -> List[Tuple[int, int]]:
    """``(lo, hi)`` of each of ``segments`` near-equal consecutive
    slices of ``count`` items (fewer slices when there are fewer
    items, none when there are none)."""
    edges = sorted({count * j // segments for j in range(segments + 1)})
    return list(zip(edges, edges[1:]))


def over_repetitions(values: Sequence[float]) -> Dict[str, object]:
    """What the report prints for one metric: the median over the
    repetitions next to their min and max, and every repetition's value
    for the committed baseline."""
    return {"median": median(values), "min": min(values),
            "max": max(values), "repetitions": list(values)}
