"""ASCII renderings of the paper's figure styles.

The evaluation figures are grouped log-scale bar charts (Figs. 3, 4, 6, 7)
and per-level series (Fig. 5).  With no plotting stack available offline,
these renderers turn the row dictionaries from
:mod:`repro.experiments.figures` into terminal charts, so
``repro.cli figure --name fig3a --chart`` gives an at-a-glance shape
comparison against the paper.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

Row = Dict[str, object]


def _bar(value: float, lo: float, hi: float, width: int, log: bool) -> str:
    if math.isinf(value):
        return "INF".ljust(width, " ")
    if log:
        value = math.log10(max(value, 1e-9))
        lo = math.log10(max(lo, 1e-9))
        hi = math.log10(max(hi, 1e-9))
    if hi <= lo:
        filled = width
    else:
        filled = int(round((value - lo) / (hi - lo) * (width - 1))) + 1
    return "#" * max(1, filled)


def bar_chart(
    rows: List[Row],
    label_keys: Sequence[str],
    value_key: str,
    title: str = "",
    width: int = 40,
    log: bool = True,
) -> str:
    """A horizontal bar chart; one bar per row, labelled by ``label_keys``.

    Infinite values render as ``INF`` (the paper's timeout bars).  Log
    scaling matches the paper's axes; finite bars share one scale.
    """
    finite = [float(r[value_key]) for r in rows
              if not math.isinf(float(r[value_key]))]
    lo = min(finite) if finite else 0.0
    hi = max(finite) if finite else 1.0
    labels = [" ".join(str(r.get(k, "")) for k in label_keys) for r in rows]
    label_width = max((len(l) for l in labels), default=0)
    lines = []
    if title:
        lines.append(title)
        lines.append("")
    for label, row in zip(labels, rows):
        value = float(row[value_key])
        bar = _bar(value, lo, hi, width, log)
        shown = "INF" if math.isinf(value) else f"{value:,.2f}"
        lines.append(f"{label.ljust(label_width)} | {bar.ljust(width)} {shown}")
    if log and finite:
        lines.append("")
        lines.append(f"(log scale: {lo:,.2f} .. {hi:,.2f})")
    return "\n".join(lines)


def level_series(
    rows: List[Row],
    label_key: str = "dataset",
    prefix: str = "level_",
    title: str = "",
    height: int = 8,
) -> str:
    """Fig. 5-style sparkline per group: values across category levels."""
    lines = []
    if title:
        lines.append(title)
        lines.append("")
    blocks = " .:-=+*#%@"
    for row in rows:
        levels = [
            float(v) for k, v in sorted(row.items())
            if isinstance(k, str) and k.startswith(prefix)
        ]
        if not levels:
            continue
        hi = max(levels) or 1.0
        spark = "".join(
            blocks[min(len(blocks) - 1, int(v / hi * (len(blocks) - 1)))]
            for v in levels
        )
        lines.append(f"{str(row.get(label_key, '')):>8} |{spark}| "
                     f"peak {hi:,.1f} at level {levels.index(hi)}")
    return "\n".join(lines)
