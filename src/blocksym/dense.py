"""Dense order-m tensors in dimensional order, permutation, and mode products.

A tensor is linearized in *dimensional order*: the generalization of
column-major layout where mode 0 varies fastest.  Element ``(i_0, ..,
i_{m-1})`` lives at flat offset ``sum_k i_k * prod_{j<k} I_j``.  All kernels
here are built from two primitives:

* ``permute`` / ``ipermute`` -- materialized data rearrangement,
* ``matmul_ref`` -- the single matrix-multiply seam.

``mode_multiply`` casts the mode-k tensor-times-matrix product onto these:
permute mode k to the front, reshape to a matrix without a copy, multiply,
reshape back, inverse permute.  When a :class:`~blocksym.counters.OpCounter`
is supplied, the two permutations report 2 memops per moved element and the
matrix product reports 2 flops per multiply-add.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .counters import OpCounter
from .errors import ModeError, ShapeError

# A multi-index is a plain tuple of non-negative ints, one per mode.
MultiIndex = tuple[int, ...]


class DenseTensor:
    """Order-m array of doubles stored contiguously in dimensional order."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = np.asfortranarray(array, dtype=np.float64)

    @property
    def order(self) -> int:
        return self.array.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat view of the buffer in dimensional order."""
        return self.array.reshape(-1, order="F")

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims})"


# Doubles per slab of a tiled permute, per index of the merged axes other
# than the two swapped ones: small enough that a slab's source lines stay
# in cache while the output's fastest axis runs over the slab.
_SLAB = 1 << 15


def _merged_axes(
    shape: tuple[int, ...], axes: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduce ``np.transpose(a, axes)`` of an F-ordered ``a`` of ``shape``.

    Size-1 axes are dropped, and each run of input axes that stays adjacent
    and in order in the output becomes one axis.  Returns the merged input
    shape (still mode 0 fastest) and the merged axis order, so ``(lead, n,
    rest) -> (n, lead, rest)`` comes back as ``(1, 0, 2)`` whatever the
    number of modes in ``lead`` and ``rest``.
    """
    kept = [j for j in axes if shape[j] != 1]
    rank = {j: r for r, j in enumerate(sorted(kept))}
    runs: list[list[int]] = []
    for j in kept:
        if runs and rank[runs[-1][-1]] + 1 == rank[j]:
            runs[-1].append(j)
        else:
            runs.append([j])
    by_input = sorted(range(len(runs)), key=lambda r: runs[r][0])
    merged_shape = tuple(math.prod(shape[j] for j in runs[r]) for r in by_input)
    position = {r: i for i, r in enumerate(by_input)}
    return merged_shape, tuple(position[r] for r in range(len(runs)))


def _check_axes(axes: tuple[int, ...], order: int) -> None:
    """Raise :class:`ShapeError` unless ``axes`` holds each of ``0..order-1`` once."""
    if sorted(axes) != list(range(order)):
        raise ShapeError(f"axes {tuple(axes)} do not order the {order} modes 0..{order - 1}")


def permute(t: DenseTensor, axes: tuple[int, ...], counter: OpCounter | None = None) -> DenseTensor:
    """Materialize ``t`` with its modes reordered as ``np.transpose(t, axes)``.

    Mode ``d`` of the result is mode ``axes[d]`` of ``t``, so the result has
    dims ``(I_{axes_0}, .., I_{axes_{m-1}})``.  Raises :class:`ShapeError`
    unless ``axes`` holds each mode of ``t`` once.  Always copies (2 memops
    per element), even for the identity, so that instrumented counts reflect
    the explicit data movement this layout strategy pays for.

    The copy is cache-tiled where that helps (see :func:`_tiled_transpose`);
    the values and layout of the result do not depend on the tiling.
    """
    _check_axes(axes, t.order)
    out = _tiled_transpose(t.array, axes)
    if counter is not None:
        counter.count_memops(2 * out.size)
    return DenseTensor(out)


def _tiled_transpose(src: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """F-ordered copy of ``np.transpose(src, axes)`` for F-contiguous ``src``.

    NumPy copies in output order, so when the output's fastest axis is the
    longer of the two swapped axes (the source's fastest and the output's
    fastest), each source cache line would be evicted before its next
    element is read.  A source of more than ``_SLAB`` elements is then
    copied in slabs cut along the output's fastest axis, each about
    ``_SLAB`` elements per index of the other merged axes (``rest`` in
    ``(lead, n, rest)``).  :func:`_merged_axes` first reduces the
    transpose, so the front permutation of :func:`mode_multiply` and its
    inverse become a batched 2-D transpose.  Every other case, including
    mode 0 staying fastest, takes one transposed copy: slabs would leave
    NumPy's inner loop as it is, and a source of at most one slab skips the
    cost of merging axes, which would dominate small permutes.
    """
    if src.size > _SLAB:
        shape, merged = _merged_axes(src.shape, axes)
        fast = merged[0]
        if fast != 0 and shape[fast] >= shape[0]:
            out = np.empty(tuple(src.shape[j] for j in axes), dtype=np.float64, order="F")
            s = src.reshape(shape, order="F")
            o = out.reshape(tuple(shape[j] for j in merged), order="F")
            step = max(1, _SLAB // shape[0])
            lead = (slice(None),) * fast
            for lo in range(0, shape[fast], step):
                o[lo : lo + step] = np.transpose(s[lead + (slice(lo, lo + step),)], merged)
            return out
    return np.array(np.transpose(src, axes), order="F", copy=True)


def ipermute(t: DenseTensor, axes: tuple[int, ...], counter: OpCounter | None = None) -> DenseTensor:
    """Invert :func:`permute`: ``ipermute(permute(t, axes), axes)`` is ``t`` bitwise."""
    _check_axes(axes, t.order)
    return permute(t, tuple(sorted(range(t.order), key=axes.__getitem__)), counter)


def _default_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


_gemm_backend: Callable[[np.ndarray, np.ndarray], np.ndarray] = _default_gemm


def set_matmul_backend(fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None) -> None:
    """Swap the kernel behind :func:`matmul_ref` (``None`` restores default)."""
    global _gemm_backend
    _gemm_backend = _default_gemm if fn is None else fn


def matmul_ref(a: np.ndarray, b: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """c[i, j] = sum_k a[i, k] * b[k, j], behind a pluggable backend.

    Counts ``2 * p * q * r`` flops for a (p x q) @ (q x r) product.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul_ref operands must be matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    if counter is not None:
        counter.count_flops(2 * a.shape[0] * a.shape[1] * b.shape[1])
    return _gemm_backend(a, b)


def mode_multiply(
    t: DenseTensor,
    k: int,
    b: np.ndarray,
    counter: OpCounter | None = None,
) -> DenseTensor:
    """Contract matrix ``b`` (J x I_k) against mode ``k`` of ``t``.

    Result dims replace ``I_k`` by ``J``; element ``(.., j, ..)`` equals
    ``sum_{i_k} t[.., i_k, ..] * b[j, i_k]``.  Implemented exactly as
    permute -> reshape -> matmul_ref -> reshape -> ipermute.  The permuted
    tensor is viewed as the F-ordered ``(I_k x N')`` matrix, ``N'`` the
    product of the other dims.  The GEMM is ``(N' x I_k) @ (I_k x J)`` on
    the transposed views, so it writes the F-ordered ``(J x N')`` matrix
    that the inverse permute reads, with no copy in between.
    """
    if not 0 <= k < t.order:
        raise ModeError(f"mode {k} out of range for order {t.order}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[1] != t.dims[k]:
        raise ShapeError(
            f"matrix shape {b.shape} does not contract mode {k} of dims {t.dims}"
        )
    front = (k, *range(k), *range(k + 1, t.order))
    pa = permute(t, front, counter)
    n_prime = math.prod(pa.dims[1:])
    a_mat = pa.array.reshape((t.dims[k], n_prime), order="F")
    # Transposed back, the C-ordered (N' x J) product is F-ordered (J x N'),
    # so the reshape below is a view; b @ a_mat would need a copy here.
    c_mat = matmul_ref(a_mat.T, b.T, counter).T
    out_front_dims = (b.shape[0],) + pa.dims[1:]
    pc = DenseTensor(c_mat.reshape(out_front_dims, order="F"))
    return ipermute(pc, front, counter)
