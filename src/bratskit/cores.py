"""The threads a call may run: the usable cores, shared among the processes of
`evaluate`'s pool, so that threads × processes stays within the cores.

`Tasks` is the one runner of a call's threaded work: the HD95 searches of
`metrics`, the mean-fusion slabs of `fusion` and the seeded draws of
`synthprep.corrupt_crop` all go through it."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

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


class Tasks:
    """The threaded work of one call, as a context.

    `run(fn, *args)` runs fn at once and gives its result when this process's
    share of the cores (`thread_count`) is one thread; otherwise it submits
    fn to a pool of that many threads and gives its future. The pool lives
    for the `with` block: on leaving it every thread has ended (a process
    forked later, as `evaluate`'s pool, has none), and the first task in
    submission order that raised has raised.

    A task runs on a worker thread, so it calls numpy and private helpers
    only: no function that a tracer may wrap with a shared span stack. Its
    users are the HD95 searches, the mean-fusion slabs and the corrupt
    draws, which fill the caller's buffers while the caller normalises."""

    def __enter__(self):
        threads = thread_count()
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self.futures = []
        return self

    def __exit__(self, failed, error, trace):
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=failed is not None)
        if failed is None:
            for future in self.futures:
                future.result()

    def run(self, fn, *args):
        if self.pool is None:
            return fn(*args)
        self.futures.append(self.pool.submit(fn, *args))
        return self.futures[-1]
