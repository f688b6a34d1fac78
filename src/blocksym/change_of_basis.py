"""Change of basis for symmetric tensors: C = A x_0 X x_1 X ... x_{m-1} X.

Four routes to the same result, ordered by how much structure they exploit:

``sttsm_naive``
    Elementwise definition.  Each unique output entry (nondecreasing index)
    is a full m-fold contraction; the result is replicated to all index
    permutations.  Serves as the independent oracle for everything else.

``sttsm_scalar_temps``
    Triangular loop nest over output indices that reuses vector-contraction
    temporaries ``T(k) = T(k+1) x_k x_row`` to avoid recomputing shared
    partial sums.

``sttsm_dense_ttm``
    The dense baseline: m successive mode products against the full matrix,
    ignoring symmetry and blocking.

``sttsm_bcss``
    Algorithm-by-blocks over blocked compact symmetric storage.  Output
    blocks are produced once per canonical (nondecreasing) block index,
    and each block of each temporary and of the output is one GEMM.
    Temporaries ``T(k)`` are symmetric in their leading ``k`` modes, so with
    ``reuse=True`` only their canonical blocks are computed and stored
    (redirected reads handle the rest); ``reuse=False`` materializes every
    temporary block, which matches the plain algorithm-by-blocks cost.

All four accept an :class:`~blocksym.counters.OpCounter`; flops count 2 per
multiply-add and memops count 2 per element moved by a permutation or copy.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Callable

import numpy as np

from .counters import OpCounter
from .dense import DenseTensor, matmul_ref, mode_multiply
from .errors import ParameterError, ShapeError
from .indexing import block_grid, hypertriangle_iter, replicate_canonical, simplex_count
from .storage import (
    BcssTensor,
    BlockTables,
    PartialSymTensor,
    identity_tables,
    symmetric_tables,
)

TempHook = Callable[[int, object], None]


def _check_sttsm_args(a_dims: tuple[int, ...], x: np.ndarray) -> tuple[int, int, int]:
    m = len(a_dims)
    if m < 2:
        raise ParameterError("change of basis is defined for order >= 2")
    if len(set(a_dims)) > 1:
        raise ShapeError(f"tensor dims {a_dims} are not all equal")
    n = a_dims[0]
    if x.ndim != 2 or x.shape[1] != n:
        raise ShapeError(f"matrix shape {x.shape} does not contract dimension {n}")
    return m, n, x.shape[0]


def _replicate(values: dict, p: int, m: int, counter: OpCounter | None) -> DenseTensor:
    """Dense ``(p,) * m`` tensor from its values at nondecreasing indices."""
    ordered = np.array([values[jt] for jt in hypertriangle_iter(p, m)], dtype=np.float64)
    if counter is not None:
        # One read of the unique value plus one write per placed element.
        counter.count_memops(2 * p**m)
    return DenseTensor(replicate_canonical(ordered, p, m))


def sttsm_naive(
    a: DenseTensor,
    x: np.ndarray,
    counter: OpCounter | None = None,
    full_nest: bool = False,
) -> DenseTensor:
    """Elementwise change of basis; the reference oracle.

    Entry ``(j_0..j_{m-1})`` is ``sum over all i of a[i] * prod_d
    x[j_d, i_d]``, evaluated with an explicit product-weight tensor rather
    than any mode-product machinery.  By default only nondecreasing output
    indices are computed and then replicated (valid because ``a`` is
    assumed symmetric); ``full_nest=True`` computes every entry
    independently and assumes nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n, p = _check_sttsm_args(a.dims, x)

    def entry(jt: tuple[int, ...]) -> float:
        weight = reduce(np.multiply.outer, [x[j] for j in jt])
        if counter is not None:
            # m multiplies and one accumulate per inner-nest term.
            counter.count_flops((m + 1) * n**m)
        return float(np.sum(a.array * weight))

    if full_nest:
        out = np.empty((p,) * m, dtype=np.float64, order="F")
        for jt in itertools.product(range(p), repeat=m):
            out[jt] = entry(jt)
        return DenseTensor(out)

    values = {jt: entry(jt) for jt in hypertriangle_iter(p, m)}
    return _replicate(values, p, m, counter)


def sttsm_scalar_temps(
    a: DenseTensor, x: np.ndarray, counter: OpCounter | None = None
) -> DenseTensor:
    """Change of basis via row-vector temporaries.

    Walks the triangular output loop nest ``j_{m-1} >= .. >= j_1 >= j_0``;
    at depth ``k`` the running temporary is contracted with row ``j_k`` of
    ``x`` (kept as a 1 x n matrix so every contraction is a mode product).
    Only unique entries are computed, then replicated.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n, p = _check_sttsm_args(a.dims, x)
    values: dict[tuple[int, ...], float] = {}

    def descend(k: int, t_next: DenseTensor, j_hi: int, suffix: tuple[int, ...]) -> None:
        for j in range(j_hi + 1):
            t_k = mode_multiply(t_next, k, x[j : j + 1, :], counter)
            if k == 0:
                values[(j,) + suffix] = float(t_k.data[0])
            else:
                descend(k - 1, t_k, j, (j,) + suffix)

    descend(m - 1, a, p - 1, ())
    return _replicate(values, p, m, counter)


def sttsm_dense_ttm(
    a: DenseTensor, x: np.ndarray, counter: OpCounter | None = None
) -> DenseTensor:
    """Dense baseline: m mode products against the full matrix.

    Exploits neither symmetry nor blocking; its instrumented flop count is
    exactly ``2 * sum_d p^{d+1} n^{m-d}``.
    """
    x = np.asarray(x, dtype=np.float64)
    m, _, _ = _check_sttsm_args(a.dims, x)
    c = a
    for k in range(m):
        c = mode_multiply(c, k, x, counter)
    return c


def _gather_plan(t_in: BlockTables, t_out: BlockTables, k: int, m: int):
    """Slab and transpose of every summand of every block stored at level ``k``.

    Summand ``ib`` of the block at ``key`` of ``T(k)`` (tables ``t_out``)
    is block ``key + (ib,)`` of ``T(k+1)`` (tables ``t_in``), so the
    summands of a block are one row of ``t_in`` along its last mode.  Each
    transpose is composed with the move of mode ``k`` to the end.
    """
    nbar = t_in.rank.shape[-1]
    rows = t_out.stored()
    back = (*range(k), *range(k + 1, m), k)
    axes = [tuple(t[f] for f in back) for t in t_in.transposes]
    return t_in.rank.reshape(-1, nbar)[rows], t_in.transpose.reshape(-1, nbar)[rows], axes


def _level_product(
    src: np.ndarray,
    plan,
    out: np.ndarray,
    k: int,
    jb: int,
    x: np.ndarray,
    b_a: int,
    b_c: int,
    m: int,
    counter: OpCounter | None,
) -> None:
    """One temporary level: contract mode ``k`` of ``T(k+1)`` (packed blocks
    ``src``) with block row ``jb`` of ``x``, one GEMM per produced block.

    For each produced block the ``nbar`` summand slabs named by the gather
    ``plan`` are gathered side by side into one buffer, each with a single
    transpose (redirection fused with moving mode ``k`` last), so the
    buffer reads as a ``(rest x n)`` matrix whose columns run over the
    whole contracted mode.  One ``(rest x n) @ (n x b_C)`` GEMM against
    block row ``jb`` of ``x`` gives the block with its new mode last, and
    one copy writes it in logical mode order into its slab of ``out``.
    """
    slabs, ids, axes = plan
    nbar = slabs.shape[1]
    rest_dims = (b_a,) * k + (b_c,) * (m - 1 - k)
    rest = math.prod(rest_dims)
    to_logical = (*range(k), m - 1, *range(k, m - 1))
    x_rows = x[jb * b_c : (jb + 1) * b_c, :].T

    # Summand ``ib`` fills ``buf[..., ib]``, a contiguous slab, so the
    # matrix view's column ``ib * b_A + i`` is global index ``i`` of mode k.
    buf = np.empty(rest_dims + (b_a, nbar), dtype=np.float64, order="F")
    buf_mat = buf.reshape((rest, nbar * b_a), order="F")
    for r, (row_slabs, row_ids) in enumerate(zip(slabs.tolist(), ids.tolist())):
        for ib, (slab, t) in enumerate(zip(row_slabs, row_ids)):
            buf[..., ib] = np.transpose(src[..., slab], axes[t])
        if counter is not None:
            counter.count_memops(2 * buf.size)
        c_mat = matmul_ref(buf_mat, x_rows, counter)
        out[..., r] = np.transpose(c_mat.reshape(rest_dims + (b_c,), order="F"), to_logical)
        if counter is not None:
            counter.count_memops(2 * c_mat.size)


def sttsm_bcss(
    a: BcssTensor,
    x: np.ndarray,
    b_c: int,
    counter: OpCounter | None = None,
    reuse: bool = True,
    temp_hook: TempHook | None = None,
) -> BcssTensor:
    """Blocked change of basis over compact symmetric storage.

    Walks nondecreasing output block tuples ``jb_0 <= .. <= jb_{m-1}``;
    entering level ``k`` contracts the previous temporary's mode ``k`` with
    block row ``jb_k`` of ``x``, and the innermost level emits one output
    block per canonical tuple.  Each temporary ``T(k)`` is symmetric in its
    leading ``k`` modes; ``reuse`` selects whether that is exploited
    (canonical blocks only, symmetric tables) or not (every block computed,
    identity tables).  Each level's tables and gather plan are built once
    per call and shared by all temporaries of that level.

    Every block of every temporary and of the output is one GEMM: its
    ``nbar`` summand blocks are gathered into a single operand and
    multiplied by a ``b_C``-row block of ``x`` in one call (see
    :func:`_level_product`).  Counted flops equal
    :func:`~blocksym.costs.bcss_costs` and counted memops equal
    :func:`~blocksym.costs.bcss_impl_memops`.

    ``temp_hook(k, temp)`` is called with each finished temporary, a
    :class:`~blocksym.storage.PartialSymTensor`, mainly so tests can audit
    the partial symmetry through :func:`~blocksym.storage.decompress`.
    """
    if not isinstance(a, BcssTensor):
        raise ShapeError("sttsm_bcss needs blocked compact symmetric input")
    x = np.asarray(x, dtype=np.float64)
    m, n, p = _check_sttsm_args(a.dims, x)
    b_a = a.b
    pbar = block_grid(p, b_c)
    nbar = a.grid
    out = BcssTensor(
        m, p, b_c, np.empty((b_c,) * m + (simplex_count(pbar, m),), dtype=np.float64, order="F")
    )

    # Per level k: gather plan over T(k+1), then T(k)'s tables and packed
    # shape.  T(0) is one output block.
    levels = [None] * m
    t_in = a.tables
    for k in range(m - 1, -1, -1):
        t_out = symmetric_tables(nbar, k, m) if reuse and k else identity_tables(nbar, k, m)
        plan = _gather_plan(t_in, t_out, k, m)
        levels[k] = (plan, t_out, (b_a,) * k + (b_c,) * (m - k) + (len(plan[0]),))
        t_in = t_out

    def descend(k: int, src: np.ndarray, j_hi: int, suffix: tuple[int, ...]) -> None:
        plan, tables, shape = levels[k]
        for jb in range(j_hi + 1):
            if k == 0:
                r = out.tables.rank[(jb,) + suffix]
                _level_product(src, plan, out.data[..., r : r + 1], 0, jb, x, b_a, b_c, m, counter)
                continue
            temp = PartialSymTensor(
                k, n, b_a, (b_c,) * (m - k), np.empty(shape, dtype=np.float64, order="F"), tables
            )
            _level_product(src, plan, temp.data, k, jb, x, b_a, b_c, m, counter)
            if temp_hook is not None:
                temp_hook(k, temp)
            descend(k - 1, temp.data, jb, (jb,) + suffix)
            # Freed before the next sibling is allocated, to bound peak memory.
            del temp

    descend(m - 1, a.data, pbar - 1, ())
    return out


def max_relative_error(result: DenseTensor, reference: DenseTensor) -> float:
    """max |result - reference| normalized by the reference magnitude."""
    if result.dims != reference.dims:
        raise ShapeError(f"dims differ: {result.dims} vs {reference.dims}")
    scale = float(np.max(np.abs(reference.array)))
    if scale == 0.0:
        return float(np.max(np.abs(result.array)))
    return float(np.max(np.abs(result.array - reference.array))) / scale
