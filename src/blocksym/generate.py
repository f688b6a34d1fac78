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

from .dense import DenseTensor, is_integer
from .errors import ParameterError
from .indexing import replicate_canonical, simplex_count, sort_within
from .storage import BcssTensor


def _rng(seed: int) -> np.random.Generator:
    """The generator for ``seed``, which must be a non-negative integer."""
    if not is_integer(seed) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def random_symmetric(m: int, n: int, seed: int) -> DenseTensor:
    """Seeded exactly-symmetric order-m tensor with dims ``(n,) * m``."""
    if not (is_integer(m) and is_integer(n)) or m < 1 or n < 1:
        raise ParameterError(
            f"random_symmetric requires integers m >= 1 and n >= 1, got {m!r}, {n!r}"
        )
    draws = _rng(seed).uniform(-1.0, 1.0, size=simplex_count(n, m))
    return DenseTensor(replicate_canonical(draws, n, m))


def random_matrix(p: int, n: int, seed: int) -> np.ndarray:
    """Seeded uniform(-1, 1) change-of-basis matrix of shape (p, n)."""
    if not (is_integer(p) and is_integer(n)) or p < 1 or n < 1:
        raise ParameterError(
            f"random_matrix requires integers p >= 1 and n >= 1, got {p!r}, {n!r}"
        )
    return _rng(seed).uniform(-1.0, 1.0, size=(p, n))


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
    if not (is_integer(m) and is_integer(n)) or m < 2 or n < 1:
        raise ParameterError(
            f"random_bcss requires integers m >= 2 and n >= 1, got {m!r}, {n!r}"
        )
    rng = _rng(seed)
    # Built first, so a grid too large for its tables fails before any draw.
    out = BcssTensor(m, n, b)
    for r, key in enumerate(out.tables.stored_keys()):
        arr = rng.uniform(-1.0, 1.0, size=(b,) * m)
        start = 0
        for _, run in itertools.groupby(key):
            g = len(list(run))
            if g > 1:
                sort_within(arr, start, g)
            start += g
        out.data[..., r] = arr
    return out
