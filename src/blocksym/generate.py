"""Reproducible random inputs.

Symmetric tensors are generated by drawing one uniform(-1, 1) value per
canonical (nondecreasing) index, in hypertriangle order, writing each value
once at its canonical entry, and copying it to all index permutations with a
network of adjacent mode swaps (:func:`~blocksym.indexing.sort_within`).
Blocked tensors draw whole blocks and run the same network inside each
diagonal block, over each run of modes that share a block index.  Values are
only copied, so the same seed gives bit-identical tensors on every platform,
and the symmetry is exact by construction.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dense import DenseTensor
from .errors import ParameterError
from .indexing import (
    block_grid,
    hypertriangle_iter,
    replicate_canonical,
    simplex_count,
    sort_within,
)
from .storage import BcssTensor


def random_symmetric(m: int, n: int, seed: int) -> DenseTensor:
    """Seeded exactly-symmetric order-m tensor with dims ``(n,) * m``."""
    if m < 1 or n < 1:
        raise ParameterError("random_symmetric requires m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-1.0, 1.0, size=simplex_count(n, m))
    return DenseTensor(replicate_canonical(draws, n, m))


def random_matrix(p: int, n: int, seed: int) -> np.ndarray:
    """Seeded uniform(-1, 1) change-of-basis matrix of shape (p, n)."""
    if p < 1 or n < 1:
        raise ParameterError("random_matrix requires p >= 1 and n >= 1")
    return np.random.default_rng(seed).uniform(-1.0, 1.0, size=(p, n))


def random_bcss(m: int, n: int, b: int, seed: int) -> BcssTensor:
    """Seeded blocked compact symmetric tensor, built block by block.

    The dense equivalent never materializes, so this scales to shapes whose
    full tensor would not fit in memory.  One ``(b,)*m`` block of
    uniform(-1, 1) values is drawn per canonical block index, in
    hypertriangle order.  In a block whose index repeats a value,
    :func:`~blocksym.indexing.sort_within` runs over each run of repeated
    modes, so every entry is copied from the entry with its coordinates
    sorted within each run: the represented tensor is exactly symmetric and
    holds one uniform(-1, 1) value per distinct entry.  The same seed gives
    bit-identical blocks.
    """
    if m < 2 or n < 1:
        raise ParameterError("random_bcss requires m >= 2 and n >= 1")
    grid = block_grid(n, b)
    rng = np.random.default_rng(seed)
    data = np.empty((b,) * m + (simplex_count(grid, m),), dtype=np.float64, order="F")
    for r, key in enumerate(hypertriangle_iter(grid, m)):
        arr = rng.uniform(-1.0, 1.0, size=(b,) * m)
        start = 0
        for _, run in itertools.groupby(key):
            g = len(list(run))
            if g > 1:
                sort_within(arr, start, g)
            start += g
        data[..., r] = arr
    return BcssTensor(m, n, b, data)
