"""Shared plumbing for the benchmark modules."""

from __future__ import annotations

import json
import math
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Version of the results-JSON envelope. Every dict payload written by
#: :func:`emit_json` carries it as ``schema_version`` so the
#: perf-trajectory tooling can evolve its parsers without sniffing
#: shapes. Bump when the envelope (not a benchmark's own fields) changes.
SCHEMA_VERSION = 1


def _json_safe(value):
    """Recursively replace non-JSON floats (inf/nan) with strings."""
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return str(value)
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def emit_json(name: str, payload) -> Path:
    """Persist a machine-readable result as ``benchmarks/results/<name>.json``.

    ``payload`` is any JSON-serialisable structure (rows, metrics dicts);
    infinities (the INF convention) are stringified.  Dict payloads gain
    a ``schema_version`` envelope field (see :data:`SCHEMA_VERSION`).
    This is the feed for the perf-trajectory tooling.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    if isinstance(payload, dict) and "schema_version" not in payload:
        payload = {"schema_version": SCHEMA_VERSION, **payload}
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n")
    return path
