"""Blocked compact symmetric storage (BCSS).

A symmetric order-m tensor with every mode of dimension ``n`` is cut into
``(n/b)^m`` hyper-cubical blocks of dimension ``b``.  Only blocks whose
block index is nondecreasing (the upper hypertriangle of the block grid)
are stored.  They are packed into one F-ordered array whose last axis runs
over the stored blocks in hypertriangle order, so each block is one
contiguous slab.  Two integer tables over the block grid redirect every
block index, canonical or not: the rank of the slab holding its canonical
block, and the id of the transpose that turns that slab into the requested
block (:class:`BlockTables`).  Diagonal-ish blocks are stored fully dense
even though they carry internal symmetry; this keeps the access pattern of
block-level kernels uniform.

:class:`PartialSymTensor` generalizes the scheme to tensors whose leading
``s`` modes form one symmetric group (blocked at ``b``) while the trailing
modes are ordinary small modes stored as a single block each.  These arise
as the temporaries of the blocked change-of-basis algorithm.  A temporary
that stores every block is the same type with identity tables
(:func:`identity_tables`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

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
    canonicalize,
    hypertriangle_iter,
    simplex_count,
    symmetry_violation,
)


@dataclass(frozen=True, eq=False)
class BlockTables:
    """Redirection of every index of a ``(grid,) * s`` block grid.

    ``rank[idx]`` is the slab that holds the stored block for ``idx``, and
    ``transposes[transpose[idx]]`` the transpose axes, over all modes with
    the tail modes fixed, that turn that slab into the block at ``idx``.
    Id 0 is the identity.  The indices that hold it are the stored ones,
    and in C order they own slabs 0, 1, 2, ...
    """

    rank: np.ndarray
    transpose: np.ndarray
    transposes: tuple[tuple[int, ...], ...]

    def stored(self) -> np.ndarray:
        """C-order grid positions of the stored indices, in slab order."""
        return np.flatnonzero(self.transpose == 0)

    def stored_keys(self) -> list[MultiIndex]:
        """Stored block indices, in slab order."""
        return [tuple(idx) for idx in np.argwhere(self.transpose == 0).tolist()]


def symmetric_tables(grid: int, sym_modes: int, order: int) -> BlockTables:
    """Tables of a tensor symmetric in its leading ``sym_modes`` modes.

    Slabs follow hypertriangle order; each grid index is canonicalized once.
    """
    tail = tuple(range(sym_modes, order))
    slab = {key: r for r, key in enumerate(hypertriangle_iter(grid, sym_modes))}
    ids: dict[tuple[int, ...], int] = {}
    rank, transpose = [], []
    for idx in itertools.product(range(grid), repeat=sym_modes):
        ref = canonicalize(idx)
        rank.append(slab[ref.canonical])
        transpose.append(ids.setdefault(ref.applied.mapping + tail, len(ids)))
    shape = (grid,) * sym_modes
    # Ids sized to the transposes present: s! of them overflow 8 bits for s >= 6.
    id_type = np.min_scalar_type(len(ids) - 1)
    return BlockTables(
        np.array(rank, dtype=np.intp).reshape(shape),
        np.array(transpose, dtype=id_type).reshape(shape),
        tuple(ids),
    )


def identity_tables(grid: int, sym_modes: int, order: int) -> BlockTables:
    """Tables that store every block: slab ``r`` is the r-th grid index in
    C order, and every block is its slab untransposed."""
    shape = (grid,) * sym_modes
    return BlockTables(
        np.arange(grid**sym_modes, dtype=np.intp).reshape(shape),
        np.zeros(shape, dtype=np.uint8),
        (tuple(range(order)),),
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
    data:
        The stored blocks packed along a last axis, shape
        ``(b,)*s + tail_dims + (slabs,)``; kept without a copy when it is
        already F-ordered float64.
    tables:
        Redirection tables over the block grid; by default those of the
        symmetric group (:func:`symmetric_tables`).
    """

    def __init__(
        self,
        sym_modes: int,
        sym_dim: int,
        block_dim: int,
        tail_dims: tuple[int, ...],
        data: np.ndarray,
        tables: BlockTables | None = None,
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
        if tables is None:
            tables = symmetric_tables(self.grid, sym_modes, self.order)
        if tables.rank.shape != (self.grid,) * sym_modes:
            raise ShapeError(
                f"tables cover grid {tables.rank.shape}, expected {self.grid}^{sym_modes}"
            )
        shape = (block_dim,) * sym_modes + self.tail_dims + (int(tables.rank.max()) + 1,)
        if data.shape != shape:
            raise ShapeError(f"packed blocks have shape {data.shape}, expected {shape}")
        self.data = np.asfortranarray(data, dtype=np.float64)
        self.tables = tables

    @property
    def order(self) -> int:
        return self.sym_modes + len(self.tail_dims)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.sym_dim,) * self.sym_modes + self.tail_dims

    @cached_property
    def blocks(self) -> dict[MultiIndex, np.ndarray]:
        """Stored blocks by block index, as views of their slabs."""
        return {key: self.data[..., r] for r, key in enumerate(self.tables.stored_keys())}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dims={self.dims}, b={self.block_dim}, "
            f"blocks={self.data.shape[-1]})"
        )

    def stored_and_transform(self, sym_idx: MultiIndex) -> tuple[np.ndarray, tuple[int, ...]]:
        """Stored block for ``sym_idx`` plus the full-order permutation
        mapping (as transpose axes) that turns it into the logical block."""
        idx = tuple(sym_idx)
        # Checked here: NumPy would wrap a negative index round to a real slab.
        if len(idx) != self.sym_modes or not all(0 <= i < self.grid for i in idx):
            raise RangeError(f"block index {sym_idx} outside grid {self.grid}^{self.sym_modes}")
        t = self.tables
        return self.data[..., t.rank[idx]], t.transposes[t.transpose[idx]]

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
        """(payload, payload + meta_k * meta records) element counts.

        ``payload`` is the size of the packed blocks; ``meta_k`` prices one
        redirection record (one per block index) in double-precision-float
        equivalents.
        """
        payload = self.data.size
        return payload, payload + meta_k * self.tables.rank.size


class BcssTensor(PartialSymTensor):
    """Fully symmetric tensor stored by canonical blocks (all modes grouped)."""

    def __init__(self, order: int, dim: int, block_dim: int, data: np.ndarray):
        super().__init__(order, dim, block_dim, (), data)

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


def _pack(t: DenseTensor, sym_modes: int, block_dim: int, tol: float) -> np.ndarray:
    """Canonical blocks of ``t`` (symmetric in modes ``0..sym_modes-1``),
    copied verbatim into packed slabs in hypertriangle order."""
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
    data = np.empty(
        (block_dim,) * sym_modes + t.dims[sym_modes:] + (simplex_count(grid, sym_modes),),
        dtype=np.float64,
        order="F",
    )
    for r, key in enumerate(hypertriangle_iter(grid, sym_modes)):
        data[..., r] = t.array[_block_slices(key, block_dim) + tail]
    return data


def compress_partial(
    t: DenseTensor, sym_modes: int, block_dim: int, tol: float = 0.0
) -> PartialSymTensor:
    """Store ``t`` (symmetric in modes ``0..sym_modes-1``) by canonical blocks.

    Blocks are copied from ``t`` verbatim, so the round trip through
    :func:`decompress` is bitwise exact whenever ``t`` is exactly
    symmetric.  Raises :class:`SymmetryError` (reporting the worst index
    pair) if the required symmetry does not hold within ``tol``.
    """
    data = _pack(t, sym_modes, block_dim, tol)
    return PartialSymTensor(sym_modes, t.dims[0], block_dim, t.dims[sym_modes:], data)


def compress(t: DenseTensor, block_dim: int, tol: float = 0.0) -> BcssTensor:
    """Store a fully symmetric tensor by canonical blocks."""
    dims = set(t.dims)
    if len(dims) > 1:
        raise ShapeError(f"tensor dims {t.dims} are not all equal")
    return BcssTensor(t.order, t.dims[0], block_dim, _pack(t, t.order, block_dim, tol))


def decompress(a: PartialSymTensor) -> DenseTensor:
    """Assemble the full dense tensor a blocked tensor represents, with one
    transposed copy of a stored slab per block."""
    out = np.empty(a.dims, dtype=np.float64, order="F")
    tail = tuple(slice(None) for _ in a.tail_dims)
    for key in itertools.product(range(a.grid), repeat=a.sym_modes):
        stored, axes = a.stored_and_transform(key)
        out[_block_slices(key, a.block_dim) + tail] = np.transpose(stored, axes)
    return DenseTensor(out)


def meta_bytes(a: PartialSymTensor) -> int:
    """Measured bytes of the redirection records of ``a``: one slab rank
    and one transpose id per block index.

    The transpose table the ids point into holds at most ``s!`` axis
    tuples shared by all records; it does not grow with the grid and is
    not counted.
    """
    return a.tables.rank.nbytes + a.tables.transpose.nbytes


def measured_meta_k(a: PartialSymTensor) -> float:
    """Per-block meta cost of this implementation, in float equivalents."""
    return meta_bytes(a) / 8.0 / a.tables.rank.size
