import os

import pytest

from blocksym import OpCounter, split

BIG = 1 << 15  # the smallest item that may be split


@pytest.fixture
def eight_cpus(monkeypatch):
    for var in split._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)


def test_threads_splits_only_large_items_and_enough_of_them(eight_cpus):
    assert split.threads(100, BIG - 1) == 1
    assert split.threads(100, BIG) == 8
    assert split.threads(7, BIG) == 1
    assert split.threads(8, BIG) == 2
    assert split.threads(8, 10**9) == 2
    # One thread per 4 items, rounded down.
    assert [split.threads(items, BIG) for items in (11, 12, 15, 16, 31)] == [2, 3, 3, 4, 7]


def test_threads_capped_at_the_affinity_set(eight_cpus, monkeypatch):
    assert split.threads(32, BIG) == 8
    assert split.threads(10**6, BIG) == 8
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert split.threads(10**6, BIG) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # taskset -c 0
    assert split.threads(10**6, BIG) == 1


@pytest.mark.parametrize(
    "blas",
    [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"},
     {"MKL_NUM_THREADS": "4"}],
)
def test_threads_serial_under_a_threaded_blas(eight_cpus, monkeypatch, blas):
    for var in split._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    assert split.threads(10**6, BIG) == 1


@pytest.mark.parametrize("count,want", [(3, 3), (None, 1)])
def test_cpus_without_an_affinity_call_reads_the_cpu_count(eight_cpus, monkeypatch, count, want):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert split.cpus() == want


def test_share_records_the_most_threads_in_the_counter():
    def work(take, count):
        for item in take:
            count.count_flops(item)

    counter = OpCounter()
    assert counter.threads == 0  # no shared work yet
    split.share(work, range(10), 1, counter)
    assert (counter.flops, counter.threads) == (45, 1)
    split.share(work, range(10), 3, counter)
    assert (counter.flops, counter.threads) == (90, 3)
    split.share(work, range(10), 2, counter)  # a smaller count leaves the largest
    assert (counter.flops, counter.threads) == (135, 3)
