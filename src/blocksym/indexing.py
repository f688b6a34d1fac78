"""Combinatorics of symmetric index sets.

Canonical representative of a multi-index under mode permutation is its
nondecreasing sort; the canonical set for grid extent ``g`` and order ``m``
is the upper hypertriangle ``{i_0 <= i_1 <= .. <= i_{m-1}}``, of size
``C(g + m - 1, m)``.

:func:`block_grid` is the one check of a block dimension, and
:func:`sort_within` the one network that copies a canonical value to the
permutations of its index; dense generation, blocked generation and the
oracles' replication all go through it.  Its adjacent mode swaps run in
insertion order, so the swap of a run's last two modes runs once, and each
swap walks cache-sized slabs of the array, so that its copies, strided
ones included, reuse what is in cache.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator

import numpy as np

from .dense import DenseTensor, MultiIndex, dense_operand, is_integer, is_real, real_array
from .errors import BlockDivisibilityError, ParameterError, ShapeError

# Elements of one slab of a swap (1 MB of doubles, half a core's L2), so a
# slab stays in cache over the swap's copies.  Set by the sweeps in
# BENCH_replication.json: 2^16 to 2^18 form a plateau within the host's
# noise, 2^19 and above are slower at (5, 32), and 2^17 is its middle.
_SLAB = 1 << 17


def canonicalize(idx: Iterable[int]) -> tuple[MultiIndex, tuple[int, ...]]:
    """Sort ``idx`` nondecreasing and record how to permute it back.

    Returns ``(canonical, axes)`` with ``canonical[axes[d]] == idx[d]`` for
    every mode ``d``: ``axes`` is the ``np.transpose`` order that turns the
    block stored at ``canonical`` into the block at ``idx``, and the
    identity for an already-sorted index.  When ``idx`` has repeated
    values several orders reproduce it; the lexicographically smallest is
    chosen so results are deterministic.
    """
    idx = tuple(idx)
    canonical = tuple(sorted(idx))
    if canonical == idx:
        return canonical, tuple(range(len(idx)))
    # First unused position of each value, scanned in index order, yields
    # the lexicographically smallest valid order.
    next_pos: dict[int, int] = {}
    axes = []
    for value in idx:
        start = next_pos.get(value, 0)
        pos = canonical.index(value, start)
        axes.append(pos)
        next_pos[value] = pos + 1
    return canonical, tuple(axes)


def hypertriangle_iter(extent: int, m: int) -> Iterator[MultiIndex]:
    """Yield every nondecreasing m-tuple over ``0..extent-1`` in lex order."""
    if not (is_integer(extent) and is_integer(m)) or extent < 1 or m < 1:
        raise ParameterError("hypertriangle_iter requires integers extent >= 1 and m >= 1")
    return itertools.combinations_with_replacement(range(extent), m)


def simplex_count(n: int, m: int) -> int:
    """Number of nondecreasing m-tuples over ``0..n-1``: C(n + m - 1, m)."""
    if not (is_integer(n) and is_integer(m)) or n < 1 or m < 1:
        raise ParameterError("simplex_count requires integers n >= 1 and m >= 1")
    return math.comb(n + m - 1, m)


def block_grid(n: int, b: int) -> int:
    """Block-grid extent ``n // b`` of a mode of dimension ``n`` cut into
    blocks of dimension ``b``.

    Raises :class:`ShapeError` unless ``n`` is an integer of at least 1,
    and :class:`BlockDivisibilityError` unless ``b`` is an integer of at
    least 1 that divides ``n``.
    """
    if not is_integer(n) or n < 1:
        raise ShapeError(f"dimension must be an integer of at least 1, got {n!r}")
    if not is_integer(b):
        raise BlockDivisibilityError(f"block dimension must be an integer, got {b!r}")
    if b < 1:
        raise BlockDivisibilityError(f"block dimension must be at least 1, got {b}")
    if n % b != 0:
        raise BlockDivisibilityError(f"block dimension {b} does not divide {n}")
    return n // b


def sort_within(arr: np.ndarray, start: int, g: int) -> None:
    """Copy, in place, each entry of ``arr`` from the entry whose
    coordinates in modes ``start .. start+g-1`` are sorted nondecreasing.

    A swap ``(k, k+1)`` copies every entry with ``i_k > i_{k+1}`` from its
    swap, which the step does not write, so it is safe in place.  After
    swaps ``s_1, .., s_T`` an entry ``x`` holds the value first at
    ``s_1(s_2(..s_T(x)))``: the swaps sort an index in the reverse of the
    order they are applied.  They are applied in insertion order, for
    ``i = 1 .. g-1`` swaps ``(i-1, i)`` down to ``(0, 1)`` of the run; the
    reverse is the bubble network, which sorts every index (Knuth, TAOCP
    Vol. 3, 5.3.4).  So each entry ends up holding the value its sorted
    entry had, sorted entries are never written, and values are only
    copied, never combined.  The run's last two modes swap once.

    Each swap walks slabs of about ``_SLAB`` (``2^17``) elements cut from
    the modes before ``k``, basic slices and so views of any strided
    array, so that its ``n - 1`` copies reuse a slab while it is in cache.
    An array of one slab is swapped whole.

    Raises :class:`ShapeError` unless ``start`` and ``g`` are integers
    (:func:`~blocksym.dense.is_integer`) with ``start >= 0``, ``g >= 1``
    and ``start + g`` at most the order of ``arr``, and the run's modes
    have equal extents.  ``g = 1`` copies nothing.
    """
    if not (is_integer(start) and is_integer(g)) or start < 0 or g < 1:
        raise ShapeError(f"a run needs integers start >= 0 and g >= 1, got {start!r}, {g!r}")
    if start + g > arr.ndim:
        raise ShapeError(f"run of {g} modes from mode {start} is past order {arr.ndim}")
    run = arr.shape[start : start + g]
    n = run[0]
    if run.count(n) < g:
        raise ShapeError(f"modes {start}..{start + g - 1} have unequal extents {run}")
    one_slab = arr.size <= _SLAB
    for i in range(start, start + g - 1):
        for k in range(i, start - 1, -1):
            # Entries with i_k > i_{k+1} are written from entries with
            # i_k < i_{k+1}, which this step does not write: safe in place.
            # One slab, such as a block of random_bcss, makes no call per swap.
            slabs, cut = ((arr,), 0) if one_slab else _slabs(arr, k)
            lead = (slice(None),) * (k - cut)
            for slab in slabs:
                for x in range(1, n):
                    below = slice(x)
                    slab[lead + (x, below)] = slab[lead + (below, x)]


def _slabs(arr: np.ndarray, k: int) -> tuple[list[np.ndarray], int]:
    """Views of ``arr`` that tile its modes before ``k`` in slabs of about
    ``_SLAB`` elements, and the number ``cut`` of leading modes each view
    drops, so that mode ``k`` is mode ``k - cut`` of every view."""
    if k == 0:
        return [arr], 0
    # Modes cut+1 .. k-1 are taken whole and mode ``cut`` in ranges of
    # ``step`` indices, under each index of the modes before ``cut``.
    size = arr.size // math.prod(arr.shape[:k])
    cut = k - 1
    while cut > 0 and size * arr.shape[cut] <= _SLAB:
        size *= arr.shape[cut]
        cut -= 1
    step = max(1, _SLAB // size)
    slabs = [
        arr[fixed + (slice(a, a + step),)]
        for fixed in np.ndindex(arr.shape[:cut])
        for a in range(0, arr.shape[cut], step)
    ]
    return slabs, cut


def replicate_canonical(values: np.ndarray, n: int, m: int) -> np.ndarray:
    """Symmetric ``(n,) * m`` array holding ``values[r]`` at every permutation
    of the r-th nondecreasing index in hypertriangle order.

    The nondecreasing entries are filled once, then :func:`sort_within`
    over all ``m`` modes copies each to its permutations, so the result is
    exact.  The array is built in C order and returned transposed: a
    symmetric array equals its transpose, which is F-contiguous.  Raises
    :class:`ParameterError` unless ``n`` and ``m`` are integers of at
    least 1 (:func:`simplex_count`) and ``values`` are real
    (:func:`~blocksym.dense.real_array`), and :class:`ShapeError` unless
    they are one value per nondecreasing index, ``C(n + m - 1, m)``.
    """
    count = simplex_count(n, m)
    values = real_array(values)
    if values.shape != (count,):
        raise ShapeError(
            f"values of shape {values.shape} do not hold the {count} canonical "
            f"values of order {m} and dimension {n}"
        )
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
    permutation).  Equal entries (NaN facing NaN included) match; any other
    pair the ratio leaves undefined, such as a NaN facing a number, is a full
    mismatch, ``inf``.  A perfectly symmetric tensor yields ``(0.0, .., ..)``.
    ``modes`` that are not a collection, a mode that is not an integer of
    ``0..m-1``, or a ``t`` that is not a
    :class:`~blocksym.dense.DenseTensor` raises :class:`ShapeError`.
    """
    m = dense_operand(t, "symmetry_violation").order
    if not np.iterable(modes):
        raise ShapeError(f"modes {modes!r} are not a collection of modes")
    modes = list(modes)
    for s in modes:
        if not is_integer(s) or not 0 <= s < m:
            raise ShapeError(f"mode {s!r} out of range for order {m}")
    modes = sorted(set(modes))
    dims = {t.dims[s] for s in modes}
    if len(dims) > 1:
        raise ShapeError(f"modes {modes} have unequal dimensions {sorted(dims)}")
    worst = (0.0, (0,) * m, (0,) * m)
    for a, b in zip(modes, modes[1:]):
        x, y = t.array, np.swapaxes(t.array, a, b)
        # An exactly invariant pair has zero violation everywhere; NaN
        # entries compare unequal and so still take the full report.
        if np.array_equal(x, y):
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
        rel[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
        rel[np.isnan(rel)] = np.inf
        flat = int(np.argmax(rel))
        val = float(rel.reshape(-1)[flat])
        if val > worst[0]:
            idx = tuple(int(i) for i in np.unravel_index(flat, t.dims))
            jdx = list(idx)
            jdx[a], jdx[b] = jdx[b], jdx[a]
            worst = (val, idx, tuple(jdx))
    return worst


def check_tol(tol) -> None:
    """Raise :class:`ParameterError` unless ``tol`` is a relative
    symmetry tolerance: a real number (:func:`~blocksym.dense.is_real`) of
    at least 0, so not NaN."""
    if not is_real(tol) or not tol >= 0:
        raise ParameterError(f"tol must be a real number of at least 0, got {tol!r}")


def is_sym_in_modes(t: DenseTensor, modes: Iterable[int], tol: float = 0.0) -> bool:
    """True iff ``t`` is invariant (within ``tol``, relative, as
    :func:`check_tol` rules) under every permutation of the modes in
    ``modes``."""
    check_tol(tol)
    return symmetry_violation(dense_operand(t, "is_sym_in_modes"), modes)[0] <= tol
