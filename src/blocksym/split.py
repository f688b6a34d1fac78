"""Sharing independent work items across the CPUs of the process.

Both kernels that split their work, a level of ``sttsm_bcss`` and a dense
mode product, use the one CPU rule (:func:`cpus`) and the one way to share
(:func:`share`): the calling thread and pool workers take items one at a
time from a shared iterator, each with its own counter, so a thread that
the host slows down takes fewer items.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import nullcontext
from typing import Callable, Iterable, Iterator

from .counters import OpCounter

# The variables that set BLAS's own thread count, the first one set
# winning.  A threaded BLAS runs GEMMs that arrive from several threads at
# once one after another, so work is split only when it is set to 1.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

_DONE = object()


def cpus() -> int:
    """Threads split work may use: the CPUs this process may run on
    (``taskset -c 0`` makes it 1), or 1 unless BLAS is set to one thread."""
    pinned = next((os.environ[v] for v in _BLAS_THREADS if v in os.environ), "")
    if pinned.strip() != "1":
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def share(
    work: Callable[[Iterator, OpCounter | None], None],
    items: Iterable,
    threads: int,
    counter: OpCounter | None,
    pool: ThreadPoolExecutor | None = None,
) -> None:
    """Run ``work(take, count)`` until ``items`` is used up.

    With ``threads == 1`` the calling thread takes every item, counting into
    ``counter``.  Otherwise it and ``threads - 1`` tasks on ``pool`` (or on
    a pool made for this call) each run ``work`` on their own iterator over
    the one shared ``items``, with their own counter, whose counts are added
    to ``counter`` after the join.  Every item must write only its own part
    of the output, so the result does not depend on the split.  Once one
    thread has raised, the others take no further item; every task has
    ended before the error is raised here.
    """
    if threads == 1:
        work(iter(items), counter)
        return
    items = iter(items)
    taking = threading.Lock()
    failed = threading.Event()

    def take():
        # Each thread's own generator; only one at a time advances ``items``.
        while not failed.is_set():
            with taking:
                item = next(items, _DONE)
            if item is _DONE:
                return
            yield item

    def run(count: OpCounter | None) -> OpCounter | None:
        try:
            work(take(), count)
        except BaseException:
            failed.set()
            raise
        return count

    with ThreadPoolExecutor(threads - 1) if pool is None else nullcontext(pool) as ex:
        tasks = [
            ex.submit(run, None if counter is None else OpCounter()) for _ in range(threads - 1)
        ]
        try:
            run(counter)
        finally:
            wait(tasks)
    for task in tasks:
        count = task.result()
        if counter is not None:
            counter.count_flops(count.flops)
            counter.count_memops(count.memops)
