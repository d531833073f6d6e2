"""CPU time and peak RSS of a server process tree, read from ``/proc``.

The tree is the front-end process plus every descendant (shard
workers). ``benchmarks/_common.peak_rss_bytes`` reads the calling
process, which here is the load generator, so it cannot see the server.
"""

from __future__ import annotations

import os

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    # The command name may hold spaces; everything after its closing
    # parenthesis is space separated, starting at field 3 (state).
    return text[text.rindex(")") + 2:].split()


def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while scanning
        parents.setdefault(ppid, []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        tree.extend(children)
        frontier.extend(children)
    return tree


def cpu_seconds(root: int) -> float:
    """Summed ``utime + stime`` of the live tree under ``root``."""
    ticks = 0
    for pid in process_tree(root):
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICKS


def peak_rss_mib(root: int) -> float:
    """Summed ``VmHWM`` (high-water RSS) of the live tree, in MiB."""
    total_kib = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0
