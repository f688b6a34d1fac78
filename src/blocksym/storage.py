"""Blocked compact symmetric storage (BCSS).

A symmetric order-m tensor with every mode of dimension ``n`` is cut into
``(n/b)^m`` hyper-cubical blocks of dimension ``b``.  Only blocks whose
block index is nondecreasing (the upper hypertriangle of the block grid)
are stored.  They are packed into one F-ordered array whose last axis runs
over the stored blocks in hypertriangle order, so each block is one
contiguous slab.  The constructor is the one place that works out this
layout: it allocates the array uninitialized, and its callers fill it.  Two
integer tables over the block grid redirect every block index, canonical or
not: the rank of the slab holding its canonical block, and the id of the
transpose that turns that slab into the requested block (:class:`BlockTables`).
Diagonal-ish blocks are stored fully dense even though they carry internal
symmetry; this keeps the access pattern of block-level kernels uniform.

:class:`PartialSymTensor` generalizes the scheme to tensors whose leading
``s`` modes form one symmetric group (blocked at ``b``) while the trailing
modes are ordinary small modes stored as a single block each.  These arise
as the temporaries of the blocked change-of-basis algorithm.  A temporary
that stores every block is the same type with identity tables
(:func:`identity_tables`).  Its slabs store the trailing (tail) modes first
and the symmetric ones last, so the symmetric mode that the algorithm
contracts next is the slowest in each slab; every reader (``blocks``,
:meth:`~PartialSymTensor.block_at`, :func:`decompress`) still presents a
block in logical mode order, symmetric modes first.  A tensor without tail
modes, such as :class:`BcssTensor`, stores its blocks in logical order.

Blocked storage has one way in from a dense tensor, :func:`compress`, and
two ways out: :meth:`PartialSymTensor.block_at` for one logical block and
:func:`decompress` for the whole dense tensor.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dense import DenseTensor, Fixed, MultiIndex, dense_operand, is_integer
from .errors import ParameterError, RangeError, ShapeError, SymmetryError
from .indexing import (
    block_grid,
    canonicalize,
    check_tol,
    hypertriangle_iter,
    symmetry_violation,
)


@dataclass(frozen=True, eq=False)
class BlockTables:
    """Redirection of every index of a ``(grid,) * s`` block grid.

    ``rank[idx]`` is the slab that holds the stored block for ``idx``, and
    ``transposes[transpose[idx]]`` the transpose axes, over all modes with
    the tail modes fixed, that turn that slab, read in logical mode order,
    into the block at ``idx``.  Id 0 is the identity.  It marks the stored
    indices, which own slabs 0, 1, 2, ... in C order, through the last grid
    index ``(grid-1,) * s``.
    Both arrays are read-only, in copies too: a level's temporaries share them.
    """

    rank: np.ndarray
    transpose: np.ndarray
    transposes: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self.rank.flags.writeable = self.transpose.flags.writeable = False

    def __reduce__(self):
        return BlockTables, (self.rank, self.transpose, self.transposes)

    def stored(self) -> np.ndarray:
        """C-order grid positions of the stored indices, in slab order."""
        return np.flatnonzero(self.transpose == 0)

    def stored_keys(self) -> list[MultiIndex]:
        """Stored block indices, in slab order."""
        return [tuple(idx) for idx in np.argwhere(self.transpose == 0).tolist()]


# Largest order of a blocked tensor: its packed array has one axis more,
# and NumPy 2 holds at most 64 axes.
MAX_BLOCKED_ORDER = 63

# Table entries, one ``canonicalize`` each: the whole m=5, n=32 grid at unit
# blocks.  Without a bound, a small order and dimension could ask for billions.
MAX_TABLE_ENTRIES = 2**25


def table_excess(grid: int, sym_modes: int) -> str | None:
    """Why :func:`symmetric_tables` would not build tables for a ``(grid,) *
    sym_modes`` block grid, or ``None`` when it would.

    Two bounds, both at :data:`MAX_TABLE_ENTRIES`: the grid indices, and the
    axes of the distinct transposes the tables keep, at most
    ``min(s!, grid**s)`` of ``s`` axes each.  The second caps memory at high
    order: every index of a 2-grid of order 25 sorts by its own transpose.
    """
    entries = grid**sym_modes
    if entries > MAX_TABLE_ENTRIES:
        return f"{grid}**{sym_modes} table entries exceed {MAX_TABLE_ENTRIES}"
    axes = min(math.factorial(sym_modes), entries) * sym_modes
    if axes > MAX_TABLE_ENTRIES:
        return (
            f"{grid}**{sym_modes} table entries may keep {axes} axes of distinct "
            f"transposes, over {MAX_TABLE_ENTRIES}"
        )
    return None


def symmetric_tables(grid: int, sym_modes: int, order: int) -> BlockTables:
    """Tables of a tensor symmetric in its leading ``sym_modes`` modes.

    Slabs follow hypertriangle order; each grid index is canonicalized once.
    A grid past either bound of :func:`table_excess` raises
    :class:`ParameterError` before anything is built.
    """
    excess = table_excess(grid, sym_modes)
    if excess:
        raise ParameterError(excess)
    tail = tuple(range(sym_modes, order))
    slab = {key: r for r, key in enumerate(hypertriangle_iter(grid, sym_modes))}
    ids: dict[tuple[int, ...], int] = {}
    rank, transpose = [], []
    for idx in itertools.product(range(grid), repeat=sym_modes):
        canonical, axes = canonicalize(idx)
        rank.append(slab[canonical])
        transpose.append(ids.setdefault(axes + tail, len(ids)))
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


class _SlabViews(Mapping):
    """Stored blocks by block index, as views of their slabs.

    Assigning a block copies the value into its slab, so every reader of
    the packed array sees it; an index that is not stored raises
    ``KeyError``, and a value not of the block's shape ``ShapeError``.  No
    method adds or removes a block.
    """

    __slots__ = ("_views",)

    def __init__(self, views: dict[MultiIndex, np.ndarray]):
        self._views = views

    def __getitem__(self, key: MultiIndex) -> np.ndarray:
        return self._views[key]

    def __iter__(self) -> Iterator[MultiIndex]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __setitem__(self, key: MultiIndex, value) -> None:
        view = self._views[key]
        if np.shape(value) != view.shape:
            raise ShapeError(f"block {key} has shape {view.shape}, value {np.shape(value)}")
        view[...] = value


class PartialSymTensor(Fixed):
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
    tables:
        Redirection tables over the block grid; by default those of the
        symmetric group (:func:`symmetric_tables`); :class:`BlockTables`
        over the grid whose transpose 0 orders the modes, else :class:`ShapeError`.

    ``data`` is allocated here, uninitialized, with shape ``tail_dims +
    (b,)*s + (slabs,)``, F-ordered: slab ``r`` holds block
    ``tables.stored_keys()[r]`` with its tail modes first.  ``blocks``,
    :meth:`block_at` and :func:`decompress` read blocks in logical mode
    order, ``(b,)*s + tail_dims``.
    Fields are set once (:class:`~blocksym.dense.Fixed`); ``blocks`` is not
    state, so a copy or a pickle builds its own views of its own ``data``.
    """

    def __init__(
        self,
        sym_modes: int,
        sym_dim: int,
        block_dim: int,
        tail_dims: tuple[int, ...],
        tables: BlockTables | None = None,
    ):
        if not is_integer(sym_modes) or sym_modes < 1:
            raise ShapeError(f"need at least one symmetric mode, an integer, got {sym_modes!r}")
        self.tail_dims = tuple(tail_dims)
        if not all(map(is_integer, self.tail_dims)):
            raise ShapeError(f"tail dims {self.tail_dims} must be integers")
        if min(self.tail_dims, default=0) < 0:
            raise ShapeError(f"tail dims {self.tail_dims} include a negative dimension")
        self.order = sym_modes + len(self.tail_dims)
        if self.order > MAX_BLOCKED_ORDER:
            raise ShapeError(f"a blocked tensor has order at most {MAX_BLOCKED_ORDER}")
        self.grid = block_grid(sym_dim, block_dim)
        self.sym_modes, self.sym_dim, self.block_dim = sym_modes, sym_dim, block_dim
        self.dims = (sym_dim,) * sym_modes + self.tail_dims
        if tables is None:
            tables = symmetric_tables(self.grid, sym_modes, self.order)
        # Only id 0 is checked, so a temporary costs no scan of its tables.
        identity = (tuple(range(self.order)),)
        if not isinstance(tables, BlockTables) or tables.transposes[:1] != identity:
            raise ShapeError(f"tables are not BlockTables with the identity on {self.order} modes")
        if tables.rank.shape != (self.grid,) * sym_modes:
            raise ShapeError(
                f"tables cover grid {tables.rank.shape}, expected {self.grid}^{sym_modes}"
            )
        shape = self.tail_dims + (block_dim,) * sym_modes + (tables.rank.item(-1) + 1,)
        self.data = np.empty(shape, dtype=np.float64, order="F")
        self.tables = tables

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "blocks"}

    @cached_property
    def blocks(self) -> Mapping[MultiIndex, np.ndarray]:
        """Stored blocks by block index, as views of their slabs in logical
        mode order; assigning a block writes its slab."""
        keys = self.tables.stored_keys()
        return _SlabViews({key: self._block(r, 0) for r, key in enumerate(keys)})

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dims={self.dims}, b={self.block_dim}, "
            f"blocks={self.data.shape[-1]})"
        )

    def block_at(self, sym_idx: MultiIndex) -> DenseTensor:
        """Logical block at ``sym_idx``: its stored slab transposed by the
        recorded permutation of the symmetric modes (tail modes pass
        through).  Stored indices return a view of the slab, without a copy.
        An index that is not ``s`` integers of ``0..grid-1`` raises
        :class:`RangeError`.
        """
        idx = tuple(sym_idx) if np.iterable(sym_idx) else None
        # Checked here: NumPy would wrap a negative index round to a real slab.
        inside = idx is not None and all(is_integer(i) and 0 <= i < self.grid for i in idx)
        if not inside or len(idx) != self.sym_modes:
            raise RangeError(f"block index {sym_idx} outside grid {self.grid}^{self.sym_modes}")
        return DenseTensor(self._block(self.tables.rank[idx], self.tables.transpose[idx]))

    def _block(self, slab: int, transpose: int) -> np.ndarray:
        """View of stored slab ``slab`` as a logical block: one transpose
        that moves the slab's physical ``(tail..., sym...)`` axes to logical
        order and applies ``tables.transposes[transpose]``."""
        axes = self.tables.transposes[transpose]
        if self.tail_dims:  # without tail modes, physical order is logical order
            s, nt = self.sym_modes, len(self.tail_dims)
            axes = [a + nt if a < s else a - s for a in axes]
        return np.transpose(self.data[..., slab], axes)


class BcssTensor(PartialSymTensor):
    """Fully symmetric tensor stored by canonical blocks (all modes grouped)."""

    def __init__(self, order: int, dim: int, block_dim: int):
        super().__init__(order, dim, block_dim, ())
        self.n, self.b = dim, block_dim


def _block_slices(key: MultiIndex, b: int) -> tuple[slice, ...]:
    return tuple(slice(i * b, (i + 1) * b) for i in key)


def compress(t: DenseTensor, block_dim: int, tol: float = 0.0) -> BcssTensor:
    """Store a fully symmetric tensor by canonical blocks.

    Blocks are copied from ``t`` verbatim into packed slabs in
    hypertriangle order, so the round trip through :func:`decompress` is
    bitwise exact whenever ``t`` is exactly symmetric.  Raises
    :class:`SymmetryError` (reporting the worst index pair) if ``t`` is not
    symmetric within ``tol`` (relative, :func:`~blocksym.indexing.check_tol`;
    NaN rules as in :func:`~blocksym.indexing.symmetry_violation`), or
    :class:`ShapeError` if it is not a dense tensor or its dims differ.
    """
    check_tol(tol)
    m = dense_operand(t, "compress").order
    n = t.dims[0]
    block_grid(n, block_dim)  # before the scan of every entry
    rel, idx, jdx = symmetry_violation(t, range(m))
    if rel > tol:
        raise SymmetryError(
            f"asymmetry {rel:.3e} > tol {tol:.3e} between indices {idx} and {jdx}"
        )
    out = BcssTensor(m, n, block_dim)
    for r, key in enumerate(out.tables.stored_keys()):
        out.data[..., r] = t.array[_block_slices(key, block_dim)]
    return out


def _blocked(a, name: str) -> PartialSymTensor:
    """``a``, or :class:`ShapeError` naming the call ``name`` unless it is blocked."""
    if not isinstance(a, PartialSymTensor):
        raise ShapeError(f"{name} needs blocked input, got {type(a).__name__}")
    return a


def decompress(a: PartialSymTensor) -> DenseTensor:
    """Assemble the full dense tensor a blocked tensor represents, with one
    transposed copy of a stored slab per block.  Anything but a
    :class:`PartialSymTensor` raises :class:`ShapeError`."""
    _blocked(a, "decompress")
    out = np.empty(a.dims, dtype=np.float64, order="F")
    tail = tuple(slice(None) for _ in a.tail_dims)
    t = a.tables
    for key in itertools.product(range(a.grid), repeat=a.sym_modes):
        out[_block_slices(key, a.block_dim) + tail] = a._block(t.rank[key], t.transpose[key])
    return DenseTensor(out)


def meta_bytes(a: PartialSymTensor) -> int:
    """Measured bytes of the redirection records of ``a``: one slab rank
    and one transpose id per block index.

    The transpose table the ids point into holds at most ``s!`` axis
    tuples shared by all records; it does not grow with the grid and is
    not counted.  Anything but a :class:`PartialSymTensor` raises
    :class:`ShapeError`.
    """
    return _blocked(a, "meta_bytes").tables.rank.nbytes + a.tables.transpose.nbytes


def measured_meta_k(a: PartialSymTensor) -> float:
    """Per-block meta cost of this implementation, in float equivalents;
    :class:`ShapeError` unless ``a`` is a :class:`PartialSymTensor`."""
    return meta_bytes(_blocked(a, "measured_meta_k")) / 8.0 / a.tables.rank.size
