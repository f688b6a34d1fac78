"""Reproducible random inputs.

Symmetric tensors are generated by drawing one uniform(-1, 1) value per
canonical (nondecreasing) index, in hypertriangle order, writing each value
once at its canonical entry, and copying it to all index permutations with a
network of adjacent mode swaps (:func:`~blocksym.indexing.replicate_canonical`).
Values are only copied, so the same seed gives bit-identical tensors on every
platform, and the symmetry is exact by construction.
"""

from __future__ import annotations

import itertools

import numpy as np

from .dense import DenseTensor
from .errors import BlockDivisibilityError, ParameterError
from .indexing import hypertriangle_iter, replicate_canonical, simplex_count
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


def _group_sorted_index(b: int, runs: tuple[int, ...]) -> np.ndarray:
    """Flat (C-order) gather index for one diagonal-block pattern.

    ``runs`` are the lengths of the consecutive mode groups that share a
    block index.  Entry ``I`` of the result is the flat position of ``I``
    with its coordinates sorted within each group, so gathering a ``(b,)*m``
    array through it replicates each group-canonical entry to all of its
    within-group permutations.
    """
    coords = list(np.ogrid[(slice(0, b),) * sum(runs)])
    start = 0
    for g in runs:
        if g > 1:
            group = np.broadcast_arrays(*coords[start : start + g])
            coords[start : start + g] = np.sort(np.stack(group), axis=0)
        start += g
    return np.ravel_multi_index(tuple(coords), (b,) * len(coords))


def random_bcss(m: int, n: int, b: int, seed: int) -> BcssTensor:
    """Seeded blocked compact symmetric tensor, built block by block.

    The dense equivalent never materializes, so this scales to shapes whose
    full tensor would not fit in memory.  One ``(b,)*m`` block of
    uniform(-1, 1) values is drawn per canonical block index, in
    hypertriangle order.  In a block whose index repeats a value, each entry
    is copied from the entry with its coordinates sorted within every group
    of repeated modes, so the represented tensor is exactly symmetric and
    holds one uniform(-1, 1) value per distinct entry.  The same seed gives
    bit-identical blocks.
    """
    if m < 2 or n < 1:
        raise ParameterError("random_bcss requires m >= 2 and n >= 1")
    if b < 1:
        raise ParameterError(f"random_bcss requires b >= 1, got {b}")
    if n % b != 0:
        raise BlockDivisibilityError(f"block dimension {b} does not divide {n}")
    rng = np.random.default_rng(seed)
    gathers: dict[tuple[int, ...], np.ndarray] = {}
    data = np.empty((b,) * m + (simplex_count(n // b, m),), dtype=np.float64, order="F")
    for r, key in enumerate(hypertriangle_iter(n // b, m)):
        arr = rng.uniform(-1.0, 1.0, size=(b,) * m)
        runs = tuple(len(list(group)) for _, group in itertools.groupby(key))
        if len(runs) < m:
            if runs not in gathers:
                gathers[runs] = _group_sorted_index(b, runs)
            arr = arr.reshape(-1)[gathers[runs]]
        data[..., r] = arr
    return BcssTensor(m, n, b, data)
