"""Combinatorics of symmetric index sets.

Canonical representative of a multi-index under mode permutation is its
nondecreasing sort; the canonical set for grid extent ``g`` and order ``m``
is the upper hypertriangle ``{i_0 <= i_1 <= .. <= i_{m-1}}``, of size
``C(g + m - 1, m)``.

:func:`block_grid` is the one check of a block dimension, and
:func:`sort_within` the one network that copies a canonical value to the
permutations of its index; dense generation, blocked generation and the
oracles' replication all go through it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .dense import DenseTensor, MultiIndex, Permutation
from .errors import BlockDivisibilityError, ParameterError, ShapeError


@dataclass(frozen=True)
class CanonicalRef:
    """Redirection record: sorted representative plus the reordering back.

    ``applied.apply(canonical) == index`` for the index that produced this
    record; for an already-sorted index ``applied`` is the identity.
    """

    canonical: MultiIndex
    applied: Permutation


def canonicalize(idx: Iterable[int]) -> CanonicalRef:
    """Sort ``idx`` nondecreasing and record how to permute it back.

    When ``idx`` has repeated values several permutations reproduce it; the
    lexicographically smallest mapping is chosen so results are
    deterministic.
    """
    idx = tuple(idx)
    canonical = tuple(sorted(idx))
    if canonical == idx:
        return CanonicalRef(canonical, Permutation.identity(len(idx)))
    # First unused position of each value, scanned in index order, yields
    # the lexicographically smallest valid mapping.
    next_pos: dict[int, int] = {}
    mapping = []
    for value in idx:
        start = next_pos.get(value, 0)
        pos = canonical.index(value, start)
        mapping.append(pos)
        next_pos[value] = pos + 1
    return CanonicalRef(canonical, Permutation(tuple(mapping)))


def hypertriangle_iter(extent: int, m: int) -> Iterator[MultiIndex]:
    """Yield every nondecreasing m-tuple over ``0..extent-1`` in lex order."""
    if extent < 1 or m < 1:
        raise ParameterError("hypertriangle_iter requires extent >= 1 and m >= 1")
    return itertools.combinations_with_replacement(range(extent), m)


def simplex_count(n: int, m: int) -> int:
    """Number of nondecreasing m-tuples over ``0..n-1``: C(n + m - 1, m)."""
    if n < 1 or m < 1:
        raise ParameterError("simplex_count requires n >= 1 and m >= 1")
    return math.comb(n + m - 1, m)


def block_grid(n: int, b: int) -> int:
    """Block-grid extent ``n // b`` of a mode of dimension ``n`` cut into
    blocks of dimension ``b``.

    Raises :class:`BlockDivisibilityError` when ``b < 1`` or ``b`` does not
    divide ``n``.
    """
    if b < 1:
        raise BlockDivisibilityError(f"block dimension must be at least 1, got {b}")
    if n % b != 0:
        raise BlockDivisibilityError(f"block dimension {b} does not divide {n}")
    return n // b


def sort_within(arr: np.ndarray, start: int, g: int) -> None:
    """Copy, in place, each entry of ``arr`` from the entry whose
    coordinates in modes ``start .. start+g-1`` are sorted nondecreasing.

    An odd-even transposition network of ``g`` rounds over adjacent mode
    pairs ``(k, k+1)`` of the run copies every entry with ``i_k < i_{k+1}``
    to its swap.  The network sorts every index, so each entry ends up
    holding the value its sorted entry had.  Sorted entries are never
    written, and values are only copied, never combined.  The run's modes
    must have equal extents.
    """
    n = arr.shape[start]
    for r in range(g):
        for k in range(start + r % 2, start + g - 1, 2):
            lead = (slice(None),) * k
            # Entries with i_k > i_{k+1} are written from entries with
            # i_k < i_{k+1}, which this step does not write: safe in place.
            for i in range(1, n):
                arr[lead + (i, slice(0, i))] = arr[lead + (slice(0, i), i)]


def replicate_canonical(values: np.ndarray, n: int, m: int) -> np.ndarray:
    """Symmetric ``(n,) * m`` array holding ``values[r]`` at every permutation
    of the r-th nondecreasing index in hypertriangle order.

    The nondecreasing entries are filled once, then :func:`sort_within`
    over all ``m`` modes copies each to its permutations, so the result is
    exact.  The array is built in C order and returned transposed: a
    symmetric array equals its transpose, which is F-contiguous.
    """
    ix = np.ogrid[(slice(0, n),) * m]
    canonical = np.ones((n,) * m, dtype=bool)
    for k in range(m - 1):
        canonical &= ix[k] <= ix[k + 1]
    arr = np.empty((n,) * m, dtype=np.float64)
    # Boolean assignment visits entries in C order, which on the
    # nondecreasing entries is hypertriangle (lexicographic) order.
    arr[canonical] = values
    sort_within(arr, 0, m)
    return arr.T


def symmetry_violation(
    t: DenseTensor, modes: Iterable[int]
) -> tuple[float, MultiIndex, MultiIndex]:
    """Worst relative mismatch of ``t`` under transpositions within ``modes``.

    Returns ``(max_rel, idx, swapped_idx)`` where the two indices realize
    the maximum of ``|x - y| / max(|x|, |y|)`` over all adjacent
    transpositions of the sorted mode set (adjacent transpositions generate
    the full permutation group of the set, so this bounds every
    permutation).  A perfectly symmetric tensor yields ``(0.0, .., ..)``.
    """
    modes = sorted(set(modes))
    m = t.order
    for s in modes:
        if not 0 <= s < m:
            raise ShapeError(f"mode {s} out of range for order {m}")
    dims = {t.dims[s] for s in modes}
    if len(dims) > 1:
        raise ShapeError(f"modes {modes} have unequal dimensions {sorted(dims)}")
    worst = (0.0, (0,) * m, (0,) * m)
    for a, b in zip(modes, modes[1:]):
        swapped = np.swapaxes(t.array, a, b)
        # An exactly invariant pair has zero violation everywhere; NaN
        # entries compare unequal and so still take the full report.
        if np.array_equal(t.array, swapped):
            continue
        diff = np.abs(t.array - swapped)
        scale = np.maximum(np.abs(t.array), np.abs(swapped))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(diff > 0, diff / np.where(scale > 0, scale, 1.0), 0.0)
        flat = int(np.argmax(rel))
        val = float(rel.reshape(-1)[flat])
        if val > worst[0]:
            idx = tuple(int(i) for i in np.unravel_index(flat, t.dims))
            jdx = list(idx)
            jdx[a], jdx[b] = jdx[b], jdx[a]
            worst = (val, idx, tuple(jdx))
    return worst


def is_sym_in_modes(t: DenseTensor, modes: Iterable[int], tol: float = 0.0) -> bool:
    """True iff ``t`` is invariant (within ``tol``, relative) under every
    permutation of the modes in ``modes``."""
    return symmetry_violation(t, modes)[0] <= tol
