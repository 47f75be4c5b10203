"""CPU time and resident memory of a process tree, read from ``/proc``.

A serving deployment is a process *tree* (``cli serve --shards 2`` is a
front door plus two workers), so both costs are summed over the root and
every live descendant.
"""

from __future__ import annotations

import os
from typing import Dict, List

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields after the parenthesised command name
    (which may itself contain spaces): index 0 is the state, 1 the
    parent pid, 11/12 utime/stime in clock ticks."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        data = fh.read().decode("ascii", "replace")
    return data[data.rindex(")") + 2:].split()


def tree_pids(root: int) -> List[int]:
    """``root`` and every live descendant, parents first."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_stat_fields(int(entry))[1])
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listdir and open
        children.setdefault(parent, []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_seconds(pids: List[int]) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def pss_mb(pids: List[int]) -> float:
    """Summed proportional set size: pages shared between the processes
    (the mmap'd index, fork-inherited pages) count once across the tree
    instead of once per process, unlike RSS."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
            for line in fh:
                if line.startswith(b"Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0
