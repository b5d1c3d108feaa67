"""The threads a call may run: the usable cores, shared among the processes of
`evaluate`'s pool, so that threads × processes stays within the cores."""

from __future__ import annotations

import os

# How many processes share the usable cores; `evaluate` sets it in each of
# its pool's workers.
_processes = 1


def usable_cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def share(processes: int) -> None:
    """Process-pool initializer: this process is one of `processes` that share the cores."""
    global _processes
    _processes = processes


def thread_count() -> int:
    """This process's share of the usable cores, at least 1."""
    return max(1, usable_cores() // _processes)
