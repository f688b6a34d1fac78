"""Blocked compact symmetric storage (BCSS).

A symmetric order-m tensor with every mode of dimension ``n`` is cut into
``(n/b)^m`` hyper-cubical blocks of dimension ``b``.  Only blocks whose
block index is nondecreasing (the upper hypertriangle of the block grid)
are stored; a dense meta-grid redirects every other block index to its
canonical representative together with the permutation that transforms the
stored block into the requested one.  Diagonal-ish blocks are stored fully
dense even though they carry internal symmetry; this keeps the access
pattern of block-level kernels uniform.

:class:`PartialSymTensor` generalizes the scheme to tensors whose leading
``s`` modes form one symmetric group (blocked at ``b``) while the trailing
modes are ordinary small modes stored as a single block each.  These arise
as the temporaries of the blocked change-of-basis algorithm.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from .counters import OpCounter
from .dense import DenseTensor, MultiIndex, Permutation, permute
from .errors import (
    BlockDivisibilityError,
    RangeError,
    ShapeError,
    SymmetryError,
)
from .indexing import (
    CanonicalRef,
    ModePartition,
    canonicalize,
    hypertriangle_iter,
    simplex_count,
    symmetry_violation,
)


class PartialSymTensor:
    """Blocked store for a tensor symmetric in its leading mode group.

    Parameters
    ----------
    sym_modes:
        Number of leading symmetric modes ``s`` (each of dimension
        ``sym_dim``, blocked at ``block_dim``).
    sym_dim, block_dim:
        Dimension ``n`` of each symmetric mode and the block dimension
        ``b`` (``b`` must divide ``n``); the block grid extent is
        ``n/b``.
    tail_dims:
        Dimensions of the trailing non-symmetric modes, one block each.
    blocks:
        Mapping from nondecreasing ``s``-tuples of block indices to
        arrays of shape ``(b,)*s + tail_dims``.
    """

    def __init__(
        self,
        sym_modes: int,
        sym_dim: int,
        block_dim: int,
        tail_dims: tuple[int, ...],
        blocks: dict[MultiIndex, np.ndarray],
    ):
        if sym_modes < 1:
            raise ShapeError("need at least one symmetric mode")
        if sym_dim % block_dim != 0:
            raise BlockDivisibilityError(
                f"block dimension {block_dim} does not divide {sym_dim}"
            )
        self.sym_modes = sym_modes
        self.sym_dim = sym_dim
        self.block_dim = block_dim
        self.tail_dims = tuple(tail_dims)
        self.grid = sym_dim // block_dim
        block_shape = (block_dim,) * sym_modes + self.tail_dims
        expected = simplex_count(self.grid, sym_modes)
        if len(blocks) != expected:
            raise ShapeError(
                f"expected {expected} canonical blocks, got {len(blocks)}"
            )
        for key, arr in blocks.items():
            if tuple(sorted(key)) != tuple(key):
                raise ShapeError(f"block key {key} is not nondecreasing")
            if arr.shape != block_shape:
                raise ShapeError(
                    f"block {key} has shape {arr.shape}, expected {block_shape}"
                )
        self.blocks = blocks
        # Dense meta-grid over the symmetric block grid: every index,
        # canonical or not, gets a redirection record.
        self.meta: dict[MultiIndex, CanonicalRef] = {
            idx: canonicalize(idx)
            for idx in itertools.product(range(self.grid), repeat=sym_modes)
        }
        # Block-level permutations act on all modes; tail modes are fixed.
        self._tail_axes = tuple(range(sym_modes, sym_modes + len(self.tail_dims)))

    @property
    def order(self) -> int:
        return self.sym_modes + len(self.tail_dims)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.sym_dim,) * self.sym_modes + self.tail_dims

    @property
    def mode_partition(self) -> ModePartition:
        return ModePartition.leading_group(self.sym_modes, self.order)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dims={self.dims}, b={self.block_dim}, "
            f"blocks={len(self.blocks)})"
        )

    def stored_and_transform(self, sym_idx: MultiIndex) -> tuple[np.ndarray, tuple[int, ...]]:
        """Stored block for ``sym_idx`` plus the full-order permutation
        mapping (as transpose axes) that turns it into the logical block."""
        ref = self.meta.get(tuple(sym_idx))
        if ref is None:
            raise RangeError(f"block index {sym_idx} outside grid {self.grid}^{self.sym_modes}")
        return self.blocks[ref.canonical], ref.applied.mapping + self._tail_axes

    def partial_block_at(
        self, sym_idx: MultiIndex, counter: OpCounter | None = None
    ) -> DenseTensor:
        """Logical block at ``sym_idx``: the stored canonical block with the
        recorded permutation applied to the symmetric modes (tail modes pass
        through).  Canonical indices return the stored buffer without a copy.
        """
        stored, axes = self.stored_and_transform(sym_idx)
        perm = Permutation(axes)
        if perm.is_identity():
            return DenseTensor(stored)
        return permute(DenseTensor(stored), perm, counter)

    def stored_element_count(self, meta_k: float = 0) -> tuple[int, float]:
        """(payload, payload + meta_k * meta entries) element counts.

        ``payload`` is measured by summing stored block sizes; ``meta_k``
        prices one meta-grid record in double-precision-float equivalents.
        """
        payload = sum(arr.size for arr in self.blocks.values())
        total = payload + meta_k * len(self.meta)
        return payload, total


class BcssTensor(PartialSymTensor):
    """Fully symmetric tensor stored by canonical blocks (all modes grouped)."""

    def __init__(self, order: int, dim: int, block_dim: int, blocks: dict[MultiIndex, np.ndarray]):
        super().__init__(order, dim, block_dim, (), blocks)

    @property
    def n(self) -> int:
        return self.sym_dim

    @property
    def b(self) -> int:
        return self.block_dim

    def block_at(self, idx: MultiIndex, counter: OpCounter | None = None) -> DenseTensor:
        return self.partial_block_at(idx, counter)


def _block_slices(key: MultiIndex, b: int) -> tuple[slice, ...]:
    return tuple(slice(i * b, (i + 1) * b) for i in key)


def compress_partial(
    t: DenseTensor, sym_modes: int, block_dim: int, tol: float = 0.0
) -> PartialSymTensor:
    """Store ``t`` (symmetric in modes ``0..sym_modes-1``) by canonical blocks.

    Blocks are copied from ``t`` verbatim, so the round trip through
    :func:`decompress_partial` is bitwise exact whenever ``t`` is exactly
    symmetric.  Raises :class:`SymmetryError` (reporting the worst index
    pair) if the required symmetry does not hold within ``tol``.
    """
    m = t.order
    if not 0 < sym_modes <= m:
        raise ShapeError(f"sym_modes {sym_modes} not in 1..{m}")
    sym_dims = set(t.dims[:sym_modes])
    if len(sym_dims) > 1:
        raise ShapeError(f"symmetric modes have unequal dimensions {t.dims[:sym_modes]}")
    n = t.dims[0]
    if n % block_dim != 0:
        raise BlockDivisibilityError(f"block dimension {block_dim} does not divide {n}")
    if sym_modes > 1:
        rel, idx, jdx = symmetry_violation(t, range(sym_modes))
        if rel > tol:
            raise SymmetryError(
                f"asymmetry {rel:.3e} > tol {tol:.3e} between indices {idx} and {jdx}"
            )
    grid = n // block_dim
    tail = tuple(slice(None) for _ in range(sym_modes, m))
    blocks = {
        key: np.array(t.array[_block_slices(key, block_dim) + tail], order="F", copy=True)
        for key in hypertriangle_iter(grid, sym_modes)
    }
    return PartialSymTensor(sym_modes, n, block_dim, t.dims[sym_modes:], blocks)


def compress(t: DenseTensor, block_dim: int, tol: float = 0.0) -> BcssTensor:
    """Store a fully symmetric tensor by canonical blocks."""
    dims = set(t.dims)
    if len(dims) > 1:
        raise ShapeError(f"tensor dims {t.dims} are not all equal")
    part = compress_partial(t, t.order, block_dim, tol)
    return BcssTensor(t.order, part.sym_dim, block_dim, part.blocks)


def decompress_partial(a: PartialSymTensor, counter: OpCounter | None = None) -> DenseTensor:
    """Assemble the full dense tensor a :class:`PartialSymTensor` represents."""
    out = np.empty(a.dims, dtype=np.float64, order="F")
    b = a.block_dim
    tail = tuple(slice(None) for _ in a.tail_dims)
    for key in itertools.product(range(a.grid), repeat=a.sym_modes):
        out[_block_slices(key, b) + tail] = a.partial_block_at(key, counter).array
    return DenseTensor(out)


def decompress(a: BcssTensor, counter: OpCounter | None = None) -> DenseTensor:
    return decompress_partial(a, counter)


def meta_bytes(a: PartialSymTensor) -> int:
    """Measured bytes held by the meta-grid of ``a`` (CPython accounting).

    Counts the dict, its key tuples, and each redirection record with its
    two tuples.  Small-int sharing makes per-entry integers effectively
    free, matching how the records actually occupy memory.
    """
    total = sys.getsizeof(a.meta)
    for key, ref in a.meta.items():
        total += sys.getsizeof(key)
        total += sys.getsizeof(ref)
        total += sys.getsizeof(ref.canonical)
        total += sys.getsizeof(ref.applied)
        total += sys.getsizeof(ref.applied.mapping)
    return total


def measured_meta_k(a: PartialSymTensor) -> float:
    """Per-block meta cost of this implementation, in float equivalents."""
    return meta_bytes(a) / 8.0 / len(a.meta)
