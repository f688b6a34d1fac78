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
    ignoring symmetry and blocking.  Large mode products share their
    cache-sized chunks across the process's CPUs.

``sttsm_bcss``
    Algorithm-by-blocks over blocked compact symmetric storage.  Output
    blocks are produced once per canonical (nondecreasing) block index,
    and each block of each temporary and of the output is one GEMM.
    Temporaries ``T(k)`` are symmetric in their leading ``k`` modes, so with
    ``reuse=True`` only their canonical blocks are computed and stored
    (redirected reads handle the rest); ``reuse=False`` materializes every
    temporary block, which matches the plain algorithm-by-blocks cost.
    Where blocks are large, each level's produced blocks are split across
    the process's CPUs.

All four accept an :class:`~blocksym.counters.OpCounter`; flops count 2 per
multiply-add and memops count 2 per element moved by a permutation or copy.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import Callable

import numpy as np

from .counters import OpCounter
from .dense import DenseTensor, dense_operand, matmul_ref, mode_multiply, real_array
from .errors import ParameterError, ShapeError
from .indexing import block_grid, hypertriangle_iter, sort_within
from .split import cpus, share, threads, workers
from .storage import (
    BcssTensor,
    BlockTables,
    PartialSymTensor,
    identity_tables,
    symmetric_tables,
)

TempHook = Callable[[int, object], None]


def _check_sttsm_args(a_dims: tuple[int, ...], x) -> tuple[np.ndarray, int, int, int]:
    """``x`` as a float64 matrix, and ``m``, ``n`` and ``p``; raises before
    any work unless ``a_dims`` are ``m >= 2`` equal dims and ``x`` is a real
    ``(p x n)`` matrix with ``p >= 1``."""
    x = real_array(x)
    m = len(a_dims)
    if m < 2:
        raise ParameterError("change of basis is defined for order >= 2")
    if len(set(a_dims)) > 1:
        raise ShapeError(f"tensor dims {a_dims} are not all equal")
    n = a_dims[0]
    if x.ndim != 2 or x.shape[1] != n:
        raise ShapeError(f"matrix shape {x.shape} does not contract dimension {n}")
    if x.shape[0] < 1:
        raise ShapeError(f"matrix shape {x.shape} has no rows")
    return x, m, n, x.shape[0]


def _replicate(out: np.ndarray, counter: OpCounter | None) -> DenseTensor:
    """Symmetric tensor from the C-ordered ``(p,) * m`` array ``out`` whose
    nondecreasing entries are written: :func:`~blocksym.indexing.sort_within`
    copies each to its permutations in place, and ``out.T`` is F-contiguous."""
    if counter is not None:
        # One read of the unique value plus one write per placed element.
        counter.count_memops(2 * out.size)
    sort_within(out, 0, out.ndim)
    return DenseTensor(out.T)


def sttsm_naive(
    a: DenseTensor,
    x: np.ndarray,
    counter: OpCounter | None = None,
    full_nest: bool = False,
) -> DenseTensor:
    """Elementwise change of basis; the reference oracle.

    Entry ``(j_0..j_{m-1})`` is ``sum over all i of a[i] * prod_d
    x[j_d, i_d]``, evaluated with an explicit product-weight tensor rather
    than any mode-product machinery, and written straight into the output
    array.  By default only nondecreasing output indices are computed and
    then replicated (:func:`_replicate`; valid because ``a`` is assumed
    symmetric); ``full_nest=True`` computes every entry independently and
    assumes nothing, and its array is returned as written.
    """
    x, m, n, p = _check_sttsm_args(dense_operand(a, "sttsm_naive").dims, x)
    out = np.empty((p,) * m, dtype=np.float64, order="F" if full_nest else "C")
    nest = itertools.product(range(p), repeat=m) if full_nest else hypertriangle_iter(p, m)
    for jt in nest:
        weight = reduce(np.multiply.outer, [x[j] for j in jt])
        if counter is not None:
            # m multiplies and one accumulate per inner-nest term.
            counter.count_flops((m + 1) * n**m)
        out[jt] = np.sum(a.array * weight)
    return DenseTensor(out) if full_nest else _replicate(out, counter)


def sttsm_scalar_temps(
    a: DenseTensor, x: np.ndarray, counter: OpCounter | None = None
) -> DenseTensor:
    """Change of basis via row-vector temporaries.

    Walks the triangular output loop nest ``j_{m-1} >= .. >= j_1 >= j_0``;
    at depth ``k`` the running temporary is contracted with row ``j_k`` of
    ``x`` (kept as a 1 x n matrix so every contraction is a mode product).
    Only unique entries are computed, each written straight into a
    C-ordered output array, then replicated (:func:`_replicate`).
    Counts equal the blocked sums at ``b_A = n, b_C = 1`` (:mod:`~blocksym.costs`)
    plus ``2 p^m`` memops for the replication.
    """
    x, m, n, p = _check_sttsm_args(dense_operand(a, "sttsm_scalar_temps").dims, x)
    out = np.empty((p,) * m, dtype=np.float64)

    def descend(k: int, t_next: DenseTensor, j_hi: int, suffix: tuple[int, ...]) -> None:
        for j in range(j_hi + 1):
            t_k = mode_multiply(t_next, k, x[j : j + 1, :], counter)
            if k == 0:
                out[(j,) + suffix] = t_k.data[0]
            else:
                descend(k - 1, t_k, j, (j,) + suffix)

    descend(m - 1, a, p - 1, ())
    return _replicate(out, counter)


def sttsm_dense_ttm(
    a: DenseTensor, x: np.ndarray, counter: OpCounter | None = None
) -> DenseTensor:
    """Dense baseline: m mode products against the full matrix.

    Exploits neither symmetry nor blocking: it is the blocked algorithm at
    ``b_A = n, b_C = p`` and counts ``dense_costs`` flops and
    ``bcss_impl_memops(m, n, p, n, p)`` memops (:mod:`~blocksym.costs`).
    Each mode product shares its chunks among the threads
    :func:`~blocksym.dense.mode_multiply` picks, by the rule
    :func:`sttsm_bcss`'s levels follow (:func:`~blocksym.split.threads`);
    the result and the counts do not depend on the split, and
    ``counter.threads`` reports the largest count.

    When ``p == n`` every product has the dims of ``a``: product 0 is
    written into one new array, and products ``1..m-1`` over that array
    (``in_place``), so a call allocates one array, not ``m``.  ``a`` is
    only read, and the result shares no memory with it.
    """
    x, m, n, p = _check_sttsm_args(dense_operand(a, "sttsm_dense_ttm").dims, x)
    c = a
    for k in range(m):
        c = mode_multiply(c, k, x, counter, in_place=p == n and k > 0)
    return c


def _copies(
    slabs: list[int], ids: list[int], axes: list[tuple[int, ...]], run_axes: list[tuple[int, ...]]
) -> tuple:
    """One row's gather copies ``(into, source, axes)``, each done as
    ``buf[..., into] = np.transpose(src[..., source], axes)``.  Consecutive
    slabs under one transpose id are one run in memory, read alike, so
    they are one copy between slices, transposed by ``run_axes[id]``, which
    carries the slab axis along; any other summand is a copy of its own
    slab, transposed by ``axes[id]``."""
    runs: list[list[int]] = []
    for ib, (slab, t) in enumerate(zip(slabs, ids)):
        if runs and t == runs[-1][3] and slab == runs[-1][2] + ib - runs[-1][0]:
            runs[-1][1] = ib + 1
        else:
            runs.append([ib, ib + 1, slab, t])
    return tuple(
        (lo, slab, axes[t]) if hi == lo + 1
        else (slice(lo, hi), slice(slab, slab + hi - lo), run_axes[t])
        for lo, hi, slab, t in runs
    )


def _level(t_in: BlockTables, t_out: BlockTables, k: int, m: int, b_a: int, b_c: int, pool):
    """Set up level ``k``, the contraction of mode ``k`` of ``T(k+1)``
    (tables ``t_in``) into ``T(k)`` (tables ``t_out``): its product
    function, which shares the blocks it produces on the call's ``pool``.

    Summand ``ib`` of the block at ``key`` of ``T(k)`` is block ``key +
    (ib,)`` of ``T(k+1)``, so the summands of a produced block are one row
    of ``t_in`` along its last mode.  Each row's gather copies are planned
    here once (:func:`_copies`).  A produced block holds ``b_A^k
    b_C^(m-k)`` elements, and its summand slabs ``b_A^(k+1) b_C^(m-1-k)``,
    the size :func:`~blocksym.split.threads` weighs.

    A temporary's slab stores its ``nt = m-1-k`` tail modes first and its
    symmetric modes last (:class:`~blocksym.storage.PartialSymTensor`), so
    mode ``k`` of ``T(k+1)`` is the slowest in its slab.
    ``product(src, dst, x_blk, counter)`` contracts the packed blocks
    ``src`` of one ``T(k+1)`` with the ``b_C``-row block ``x_blk`` of
    ``x`` into the slabs ``dst``, one GEMM per produced block.  The
    ``nbar`` summand slabs of a block are copied side by side into one
    F-ordered buffer, which reads as a ``(rest x n)`` matrix whose columns
    run over the whole contracted mode.  A redirected slab is transposed
    among its symmetric modes only, so its tail elements move in runs of
    ``b_C^nt``, and a run of untransposed slabs is one contiguous copy.  One ``(rest x n) @ (n x b_C)`` GEMM gives the block as a
    C-ordered ``(rest x b_C)`` matrix, whose memory order, new mode
    fastest, is the slab order of ``T(k)``, so one contiguous copy writes
    it into its slab of ``dst``.  On more than one thread the blocks are
    shared among the caller and tasks on ``pool`` by
    :func:`~blocksym.split.share`, each thread with its own buffer and
    counter; every block writes only its own slab.
    """
    nbar = t_in.rank.shape[-1]
    nt = m - 1 - k
    rows = t_out.stored()
    slabs = t_in.rank.reshape(-1, nbar)[rows].tolist()
    ids = t_in.transpose.reshape(-1, nbar)[rows].tolist()
    # Tail axes stay put and the symmetric ones follow the redirection.
    axes = [(*range(nt), *(nt + a for a in t[: k + 1])) for t in t_in.transposes]
    run_axes = [t + (m,) for t in axes]
    plan = [_copies(s, i, axes, run_axes) for s, i in zip(slabs, ids)]
    in_dims = (b_c,) * nt + (b_a,) * (k + 1)
    out_dims = (b_c,) * (m - k) + (b_a,) * k
    rest = b_c**nt * b_a**k
    split = threads(len(rows), b_a * rest)

    def product(src, dst, x_blk, counter) -> None:
        x_t = x_blk.T

        def produce(take, count: OpCounter | None) -> None:
            # Summand ``ib`` fills ``buf[..., ib]``, a contiguous slab, so the
            # matrix view's column ``ib * b_A + i`` is global index ``i`` of mode k.
            buf = np.empty(in_dims + (nbar,), dtype=np.float64, order="F")
            buf_mat = buf.reshape((rest, nbar * b_a), order="F")
            for r, copies in take:
                for into, source, ax in copies:
                    buf[..., into] = np.transpose(src[..., source], ax)
                c = matmul_ref(buf_mat, x_t, count)
                dst[..., r] = c.T.reshape(out_dims, order="F")
                if count is not None:
                    count.count_memops(2 * (buf.size + c.size))

        share(produce, enumerate(plan), split, counter, pool)

    return product


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
    identity tables).  Each level is set up once per call, its tables here
    and the rest by :func:`_level` (gather rows, block shapes, thread count
    and product function), and shared by all temporaries of that level.

    Every block of every temporary and of the output is one GEMM: its
    ``nbar`` summand blocks are gathered into a single operand and
    multiplied by a ``b_C``-row block of ``x`` in one call.  Temporaries
    store their tail modes first, so a summand gathers by a contiguous copy
    (or a transpose among its symmetric modes, when redirected) and each
    GEMM's result is already in its slab's order.  Counted flops
    equal :func:`~blocksym.costs.bcss_costs` and counted memops equal
    :func:`~blocksym.costs.bcss_impl_memops`.

    With BLAS set to one thread, a level whose summand slabs are large
    splits its produced blocks across the CPUs of the process's affinity
    set: each level's setup takes its thread count,
    :func:`~blocksym.split.threads` of its produced blocks and their
    summand slab size.  A call that may split holds one pool
    (:func:`~blocksym.split.workers`), which starts no thread until a level
    shares; ``taskset -c 0`` gives the serial path, with no pool.  The
    result and the counts do not depend on the split, and
    ``counter.threads`` reports the largest level's count.

    Each level holds one temporary per parent ``T(k+1)``, a
    :class:`~blocksym.storage.PartialSymTensor` that each sibling's product
    refills.  ``temp_hook(k, temp)`` is called with each finished one, so a
    hook that keeps a temporary past its call must copy it.
    """
    if not isinstance(a, BcssTensor):
        raise ShapeError("sttsm_bcss needs blocked compact symmetric input")
    x, m, n, p = _check_sttsm_args(a.dims, x)
    b_a = a.b
    pbar = block_grid(p, b_c)
    nbar = a.grid
    out = BcssTensor(m, p, b_c)

    def descend(k: int, src: np.ndarray, j_hi: int, suffix: tuple[int, ...]) -> None:
        tables, product = levels[k]
        temp = PartialSymTensor(k, n, b_a, (b_c,) * (m - k), tables) if k else None
        for jb in range(j_hi + 1):
            x_blk = x[jb * b_c : (jb + 1) * b_c, :]
            if k == 0:
                r = out.tables.rank[(jb,) + suffix]
                product(src, out.data[..., r : r + 1], x_blk, counter)
                continue
            product(src, temp.data, x_blk, counter)
            if temp_hook is not None:
                temp_hook(k, temp)
            descend(k - 1, temp.data, jb, (jb,) + suffix)

    # One pool per call.  Its shutdown joins every task, also when one has
    # raised, so no worker writes a temporary after the call has ended.
    with workers(cpus()) as pool:
        # Per level k: T(k)'s tables and product.  T(0) is one output block.
        levels = [None] * m
        t_in = a.tables
        for k in range(m - 1, -1, -1):
            t_out = symmetric_tables(nbar, k, m) if reuse and k else identity_tables(nbar, k, m)
            levels[k] = (t_out, _level(t_in, t_out, k, m, b_a, b_c, pool))
            t_in = t_out
        descend(m - 1, a.data, pbar - 1, ())
    return out


def max_relative_error(result: DenseTensor, reference: DenseTensor) -> float:
    """max |result - reference| normalized by the reference magnitude;
    :class:`ShapeError` unless both are :class:`~blocksym.dense.DenseTensor`
    of the same dims."""
    dense_operand(result, "max_relative_error")
    dense_operand(reference, "max_relative_error")
    if result.dims != reference.dims:
        raise ShapeError(f"dims differ: {result.dims} vs {reference.dims}")
    scale = float(np.max(np.abs(reference.array)))
    if scale == 0.0:
        return float(np.max(np.abs(result.array)))
    return float(np.max(np.abs(result.array - reference.array))) / scale
