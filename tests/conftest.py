import os

import pytest

from blocksym import split


@pytest.fixture
def cpus(monkeypatch):
    """Set the affinity set size the kernels see, with one BLAS thread, and
    let every split of at least two items happen, whatever their size."""
    monkeypatch.setattr(split, "_SPLIT_SIZE", 1)
    monkeypatch.setattr(split, "_SPLIT_ITEMS", 1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_cpus
