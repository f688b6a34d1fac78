"""The one split policy: sharing work items across the process's CPUs.

A level of ``sttsm_bcss`` (its items are produced blocks) and a dense mode
product (chunks) say only how many items they have and how large each is.
:func:`threads` picks the thread count and :func:`workers` makes the pool;
in :func:`share` the calling thread and pool workers take items one at a
time from a shared iterator, so a thread the host slows down takes fewer,
and the count is recorded in the caller's ``OpCounter.threads``.
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

# Below these, handing items between threads costs more than they share.
_SPLIT_SIZE = 1 << 15
_SPLIT_ITEMS = 4

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


def threads(items: int, size: int) -> int:
    """Threads to share ``items`` work items of ``size`` elements each among:
    1 (serial) unless each copies at least ``_SPLIT_SIZE`` elements and each
    of two threads gets ``_SPLIT_ITEMS`` items, else one thread per
    ``_SPLIT_ITEMS`` items, at most :func:`cpus`."""
    if size < _SPLIT_SIZE or items < 2 * _SPLIT_ITEMS:
        return 1
    return min(cpus(), items // _SPLIT_ITEMS)


def workers(threads: int):
    """Context manager holding the pool of ``threads - 1`` workers that
    :func:`share` adds to the calling thread, or ``None`` when ``threads``
    is 1.  Leaving it joins every task, also when one has raised."""
    return ThreadPoolExecutor(threads - 1) if threads > 1 else nullcontext()


def share(
    work: Callable[[Iterator, OpCounter | None], None],
    items: Iterable,
    threads: int,
    counter: OpCounter | None,
    pool: ThreadPoolExecutor | None = None,
) -> None:
    """Run ``work(take, count)`` until ``items`` is used up, and raise
    ``counter.threads`` to ``threads`` if it is lower.

    With ``threads == 1`` the calling thread takes every item, counting into
    ``counter``.  Otherwise it and ``threads - 1`` tasks on ``pool`` (or on
    a pool made for this call) each run ``work`` on their own iterator over
    the one shared ``items``, with their own counter, whose counts are added
    to ``counter`` after the join.  Every item must write only its own part
    of the output, so the result does not depend on the split.  Once one
    thread has raised, the others take no further item; every task has
    ended before the error is raised here.
    """
    if counter is not None:
        counter.threads = max(counter.threads, threads)
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

    with workers(threads) if pool is None else nullcontext(pool) as ex:
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
