"""The threads a call may run: one per usable core.

`Tasks` is the one runner of a call's threaded work: the mean-fusion slabs of
`fusion` and the seeded draws of `synthprep.corrupt_crop` both go through it."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def usable_cores() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class Tasks:
    """The threaded work of one call, as a context.

    `run(fn, *args)` runs fn at once and gives its result when there is one
    usable core; otherwise it submits fn to a pool of one thread per usable
    core and gives its future. The pool lives for the `with` block: on
    leaving it every thread has ended (a process forked later has none), and
    the first task in submission order that raised has raised.

    A task runs on a worker thread, so it calls numpy and private helpers
    only: no function that a tracer may wrap with a shared span stack. Its
    users are the mean-fusion slabs and the corrupt draws, which fill the
    caller's buffers while the caller normalises."""

    def __enter__(self):
        threads = usable_cores()
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
