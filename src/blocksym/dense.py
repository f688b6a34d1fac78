"""Dense order-m tensors in dimensional order, permutation, and mode products.

A tensor is linearized in *dimensional order*: the generalization of
column-major layout where mode 0 varies fastest.  Element ``(i_0, ..,
i_{m-1})`` lives at flat offset ``sum_k i_k * prod_{j<k} I_j``.  All kernels
here are built from four primitives:

* ``permute`` / ``ipermute`` -- materialized data rearrangement,
* ``group_modes`` -- zero-copy matrix view of grouped leading/trailing modes,
* ``matmul_ref`` -- the single matrix-multiply seam.

``mode_multiply`` casts the mode-k tensor-times-matrix product onto these:
permute mode k to the front, view as a matrix, multiply, view back, inverse
permute.  When a :class:`~blocksym.counters.OpCounter` is supplied, the two
permutations report 2 memops per moved element and the matrix product
reports 2 flops per multiply-add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .counters import OpCounter
from .errors import ModeError, RangeError, ShapeError

# A multi-index is a plain tuple of non-negative ints, one per mode.
MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class Permutation:
    """A bijection on mode numbers ``0..m-1``.

    ``apply(seq)`` reorders a sequence so that position ``d`` of the result
    holds ``seq[mapping[d]]``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = len(self.mapping)
        if sorted(self.mapping) != list(range(m)):
            raise ShapeError(f"not a permutation of 0..{m - 1}: {self.mapping}")

    def __len__(self) -> int:
        return len(self.mapping)

    def apply(self, seq: Sequence) -> tuple:
        if len(seq) != len(self.mapping):
            raise ShapeError("sequence length does not match permutation length")
        return tuple(seq[j] for j in self.mapping)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for d, j in enumerate(self.mapping):
            inv[j] = d
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """Permutation equivalent to applying ``self`` first, then ``other``.

        Satisfies ``permute(t, a.compose(b)) == permute(permute(t, a), b)``.
        """
        return Permutation(tuple(self.mapping[j] for j in other.mapping))

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(tuple(range(m)))

    def is_identity(self) -> bool:
        return all(j == d for d, j in enumerate(self.mapping))


class DenseTensor:
    """Order-m array of doubles stored contiguously in dimensional order."""

    __slots__ = ("array",)

    def __init__(self, array):
        self.array = np.asfortranarray(array, dtype=np.float64)

    @classmethod
    def from_flat(cls, data, dims: Sequence[int]) -> "DenseTensor":
        """Build from a flat dimensional-order buffer and a dims tuple."""
        flat = np.asarray(data, dtype=np.float64)
        if flat.size != math.prod(dims):
            raise ShapeError(
                f"data length {flat.size} != product of dims {tuple(dims)}"
            )
        return cls(flat.reshape(tuple(dims), order="F"))

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

    def copy(self) -> "DenseTensor":
        return DenseTensor(self.array.copy(order="F"))

    def __getitem__(self, idx):
        return self.array[idx]

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims})"


def linear_offset(dims: Sequence[int], idx: Sequence[int]) -> int:
    """Flat dimensional-order offset of ``idx`` inside the box ``dims``."""
    if len(idx) != len(dims):
        raise ShapeError(f"index length {len(idx)} != order {len(dims)}")
    off = 0
    stride = 1
    for k, (i, d) in enumerate(zip(idx, dims)):
        if not 0 <= i < d:
            raise RangeError(f"index {i} out of range [0, {d}) in mode {k}")
        off += i * stride
        stride *= d
    return off


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


def permute(t: DenseTensor, p: Permutation, counter: OpCounter | None = None) -> DenseTensor:
    """Materialize ``t`` with its modes reordered by ``p``.

    The result has dims ``(I_{p_0}, .., I_{p_{m-1}})`` and its element at
    the reordered index equals the source element.  Always copies (2 memops
    per element), even for the identity, so that instrumented counts reflect
    the explicit data movement this layout strategy pays for.

    The copy is cache-tiled where that helps (see :func:`_tiled_transpose`);
    the values and layout of the result do not depend on the tiling.
    """
    if len(p) != t.order:
        raise ShapeError(f"permutation length {len(p)} != tensor order {t.order}")
    out = _tiled_transpose(t.array, p.mapping)
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


def ipermute(t: DenseTensor, p: Permutation, counter: OpCounter | None = None) -> DenseTensor:
    """Invert :func:`permute`: ``ipermute(permute(t, p), p)`` is ``t`` bitwise."""
    return permute(t, p.inverse(), counter)


def group_modes(t: DenseTensor, split: int) -> np.ndarray:
    """Matrix view with rows = modes ``< split`` grouped, cols = the rest.

    Pure relabeling: the returned matrix shares ``t``'s buffer.
    """
    if not 0 < split < t.order:
        raise ShapeError(f"split {split} not in (0, {t.order})")
    dims = t.dims
    rows = math.prod(dims[:split])
    cols = math.prod(dims[split:])
    return t.array.reshape((rows, cols), order="F")


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


def front_permutation(k: int, m: int) -> Permutation:
    """The mode ordering ``{k, 0, .., k-1, k+1, .., m-1}`` used by mode products."""
    if not 0 <= k < m:
        raise ModeError(f"mode {k} out of range for order {m}")
    return Permutation((k, *range(k), *range(k + 1, m)))


def mode_multiply(
    t: DenseTensor,
    k: int,
    b: np.ndarray,
    counter: OpCounter | None = None,
) -> DenseTensor:
    """Contract matrix ``b`` (J x I_k) against mode ``k`` of ``t``.

    Result dims replace ``I_k`` by ``J``; element ``(.., j, ..)`` equals
    ``sum_{i_k} t[.., i_k, ..] * b[j, i_k]``.  Implemented exactly as
    permute -> group_modes -> matmul_ref -> ungroup -> ipermute.  The GEMM
    is ``(N' x I_k) @ (I_k x J)`` on the transposed views, ``N'`` the
    product of the other dims, so it writes the F-ordered ``(J x N')``
    matrix that the inverse permute reads, with no copy in between.
    """
    if not 0 <= k < t.order:
        raise ModeError(f"mode {k} out of range for order {t.order}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[1] != t.dims[k]:
        raise ShapeError(
            f"matrix shape {b.shape} does not contract mode {k} of dims {t.dims}"
        )
    front = front_permutation(k, t.order)
    pa = permute(t, front, counter)
    a_mat = group_modes(pa, 1) if t.order > 1 else pa.array.reshape((t.dims[k], 1), order="F")
    # Transposed back, the C-ordered (N' x J) product is F-ordered (J x N'),
    # so the reshape below is a view; b @ a_mat would need a copy here.
    c_mat = matmul_ref(a_mat.T, b.T, counter).T
    out_front_dims = (b.shape[0],) + pa.dims[1:]
    pc = DenseTensor(c_mat.reshape(out_front_dims, order="F"))
    return ipermute(pc, front, counter)
