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
    and each block of each temporary and of the output is one gathered
    operand times a block of rows of the matrix, one GEMM per row panel.
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
from functools import cache, reduce
from typing import Callable

import numpy as np

from .counters import OpCounter
from .dense import DenseTensor, dense_operand, matmul_backend, mode_multiply, real_array
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


# Rows of one GEMM: a produced block with more rows takes one GEMM per
# panel of rows, whose operand stays in cache.  Chosen from a sweep,
# recorded in BENCH_level_plan.json.
_PANEL = 2048


def _copies(
    slabs: list[int], ids: list[int], views: list[np.ndarray], cut: Callable[[int, int], tuple]
) -> tuple:
    """One row's gather copies, flat in one tuple ``(into, view, source,
    into, ...)``, each done as ``buf[into] = view[source]``: ``view`` is
    ``views[id]``, the level's source read through transpose ``id``, and
    ``into`` and ``source`` are ``cut(lo, hi)``, ``(..., slice(lo, hi))``,
    on the last axis of the buffer and of that view.  Consecutive slabs
    under one transpose id are one run in memory, read alike, so they are
    one copy between slices; any other summand is a copy of its own slab."""
    runs: list[list[int]] = []
    for ib, (slab, t) in enumerate(zip(slabs, ids)):
        if runs and t == runs[-1][3] and slab == runs[-1][2] + ib - runs[-1][0]:
            runs[-1][1] = ib + 1
        else:
            runs.append([ib, ib + 1, slab, t])
    return tuple(
        item
        for lo, hi, slab, t in runs
        for item in (cut(lo, hi), views[t], cut(slab, slab + hi - lo))
    )


def _level(src: PartialSymTensor, t_out: BlockTables, dst: np.ndarray, b_c: int, pool):
    """Plan level ``k``, the contraction of mode ``k`` of ``src = T(k+1)``
    (``k = src.sym_modes - 1``) into the slabs ``dst`` of ``T(k)``, whose
    tables are ``t_out``, and return its product function, which shares the
    blocks it produces on the call's ``pool``.  ``src`` and ``dst`` stay the
    same for the whole call; each visit refills ``dst``.

    Summand ``ib`` of the block at ``key`` of ``T(k)`` is block ``key +
    (ib,)`` of ``T(k+1)``, so the summands of a produced block are one row
    of ``src.tables`` along its last mode.  A produced block holds ``b_A^k
    b_C^(m-k)`` elements, and its summand slabs ``b_A^(k+1) b_C^(m-1-k)``,
    the size :func:`~blocksym.split.threads` weighs.  A temporary's slab
    stores its ``nt = m-1-k`` tail modes first and its symmetric modes last
    (:class:`~blocksym.storage.PartialSymTensor`), so mode ``k`` of
    ``T(k+1)`` is the slowest in its slab.

    Everything but ``x_blk`` is planned here: one view of the whole of
    ``src`` per transpose id, which moves only the symmetric modes, so tail
    elements move in runs of ``b_C^nt``; each row's copies from those views
    (:func:`_copies`), as index tuples; and the row panels.
    ``product(x_blk, first, counter)`` contracts ``src`` with the
    ``b_C``-row block ``x_blk`` of ``x`` into the slabs of ``dst`` from
    ``first`` on, in three steps per produced block:

    1. its ``nbar`` summand slabs are copied side by side into one F-ordered
       buffer, which reads as a ``(rest x n)`` matrix whose columns run over
       the whole contracted mode;
    2. each panel of at most ``_PANEL`` rows of that matrix, a strided view,
       takes one ``(rows x n) @ (n x b_C)`` GEMM through the backend of
       :func:`~blocksym.dense.matmul_ref`;
    3. the C-ordered result, new mode fastest, is in the slab order of
       ``T(k)``, so one contiguous copy per panel writes it into its slab.

    The operands are float64 matrices of agreeing shapes by construction
    (``x`` is checked once per call), so no GEMM checks them, and each
    thread counts flops and memops once per visit: its blocks times the
    amounts of one.  On more than one thread the blocks are shared among
    the caller and tasks on ``pool`` by :func:`~blocksym.split.share`, each
    thread with its own buffer and counter; every block writes only its own
    slab.
    """
    t_in, k, m, b_a, nbar = src.tables, src.sym_modes - 1, src.order, src.block_dim, src.grid
    nt = m - 1 - k
    rest = b_c**nt * b_a**k
    # Tail axes stay put, the symmetric ones follow the redirection, and
    # the slab axis stays last.
    views = [
        np.transpose(src.data, (*range(nt), *(nt + a for a in t[: k + 1]), m))
        for t in t_in.transposes
    ]
    # Copies share their index tuples: a plan holds far more copies than cuts.
    cut = cache(lambda lo, hi: (..., slice(lo, hi)))
    rows = t_out.stored()
    plan = [
        _copies(slabs.tolist(), ids.tolist(), views, cut)
        for slabs, ids in zip(
            t_in.rank.reshape(-1, nbar)[rows], t_in.transpose.reshape(-1, nbar)[rows]
        )
    ]
    in_dims = (b_c,) * nt + (b_a,) * (k + 1) + (nbar,)
    # One column per slab of T(k): GEMM row i fills elements i*b_C .. i*b_C+b_C-1.
    cols = dst.reshape((rest * b_c, -1), order="F")
    panels = [
        (slice(lo, lo + _PANEL), slice(lo * b_c, (lo + _PANEL) * b_c))
        for lo in range(0, rest, _PANEL)
    ]
    # Per block: its GEMM, and its operand and result each moved in and out.
    flops, memops = 2 * rest * nbar * b_a * b_c, 2 * rest * (nbar * b_a + b_c)
    split = threads(len(rows), b_a * rest)

    def product(x_blk, first, counter) -> None:
        x_t = x_blk.T
        gemm = matmul_backend()

        def produce(take, count: OpCounter | None) -> None:
            # Summand ``ib`` fills ``buf[..., ib]``, a contiguous slab, so the
            # matrix view's column ``ib * b_A + i`` is global index ``i`` of mode k.
            buf = np.empty(in_dims, dtype=np.float64, order="F")
            mat = buf.reshape((rest, nbar * b_a), order="F")
            done = 0
            for r, copies in take:
                each = iter(copies)
                for into, view, source in zip(each, each, each):
                    buf[into] = view[source]
                for lines, elems in panels:
                    cols[elems, first + r] = gemm(mat[lines], x_t).reshape(-1)
                done += 1
            if count is not None:
                count.count_flops(done * flops)
                count.count_memops(done * memops)

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
    identity tables).  Each level is set up once per call, its tables and
    its one temporary here and its plan by :func:`_level` (gather copies,
    row panels, thread count and product function).

    Every block of every temporary and of the output gathers its ``nbar``
    summand blocks into a single operand, multiplied by a ``b_C``-row block
    of ``x`` in one GEMM per panel of at most ``_PANEL`` rows.  Temporaries
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

    Each level holds one temporary for the whole call, a
    :class:`~blocksym.storage.PartialSymTensor` that each visit's product
    refills.  ``temp_hook(k, temp)`` is called after each refill, so a hook
    that keeps a temporary past its call must copy it.  The output takes
    ``a``'s tables when its block grid is ``a``'s (``p/b_C == n/b_A``):
    tables depend only on the grid and the order, and are read-only.
    """
    if not isinstance(a, BcssTensor):
        raise ShapeError("sttsm_bcss needs blocked compact symmetric input")
    x, m, n, p = _check_sttsm_args(a.dims, x)
    b_a = a.b
    pbar = block_grid(p, b_c)
    nbar = a.grid
    out = BcssTensor(m, p, b_c, a.tables if pbar == nbar else None)

    def descend(k: int, j_hi: int, suffix: tuple[int, ...]) -> None:
        temp, product = levels[k]
        for jb in range(j_hi + 1):
            x_blk = x[jb * b_c : (jb + 1) * b_c, :]
            if k == 0:
                product(x_blk, out.tables.rank[(jb,) + suffix], counter)
                continue
            product(x_blk, 0, counter)
            if temp_hook is not None:
                temp_hook(k, temp)
            descend(k - 1, jb, (jb,) + suffix)

    # One pool per call.  Its shutdown joins every task, also when one has
    # raised, so no worker writes a temporary after the call has ended.
    with workers(cpus()) as pool:
        # Per level k: T(k) and its product.  T(0) is one block of the output.
        levels = [None] * m
        src = a
        for k in range(m - 1, -1, -1):
            t_out = symmetric_tables(nbar, k, m) if reuse and k else identity_tables(nbar, k, m)
            temp = PartialSymTensor(k, n, b_a, (b_c,) * (m - k), t_out) if k else out
            levels[k] = (temp, _level(src, t_out, temp.data, b_c, pool))
            src = temp
        descend(m - 1, pbar - 1, ())
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
