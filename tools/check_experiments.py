#!/usr/bin/env python
"""Verdict gate: a regenerated record must agree with ``EXPERIMENTS.md``.

Compares the *gated* verdict lines (``- <figure>: <check> — holds|DIFFERS``)
of a freshly generated record with the committed one and exits nonzero
listing each line that differs. ``[timing]`` verdicts, ``why`` lines, the
header and the tables are never compared: counters repeat, clocks do not.

Usage::

    PYTHONPATH=src python -m repro.cli figure --name all --scale 0.25 --queries 3 > fresh.md
    python tools/check_experiments.py fresh.md
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

COMMITTED = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def gated_verdicts(text: str) -> list:
    return [line for line in text.splitlines()
            if line.startswith("- ") and line.endswith((" — holds", " — DIFFERS"))
            and "[timing]" not in line]


def differing(fresh: str, committed: str) -> list:
    """Unified-diff lines between the two records' gated verdicts."""
    return [line for line in difflib.unified_diff(
        gated_verdicts(committed), gated_verdicts(fresh),
        "committed", "regenerated", lineterm="", n=0)]


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__)
        return 2
    diff = differing(Path(argv[0]).read_text(), COMMITTED.read_text())
    if diff:
        print("gated verdicts differ from the committed EXPERIMENTS.md:")
        print("\n".join(diff))
        return 1
    print(f"{len(gated_verdicts(COMMITTED.read_text()))} gated verdicts match "
          "the committed EXPERIMENTS.md")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
