import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksym import (
    BcssTensor,
    BlockDivisibilityError,
    OpCounter,
    ParameterError,
    ShapeError,
    bcss_costs,
    bcss_impl_memops,
    compress,
    decompress,
    dense_costs,
    matmul_ref,
    max_relative_error,
    mode_multiply,
    random_matrix,
    random_symmetric,
    set_matmul_backend,
    simplex_count,
    sttsm_bcss,
    sttsm_dense_ttm,
    sttsm_naive,
    sttsm_scalar_temps,
)
from blocksym import change_of_basis as cb
from blocksym import dense as dense_module
from blocksym import split
from blocksym.dense import DenseTensor
from blocksym.indexing import is_sym_in_modes, symmetry_violation


# ------------------------------------------------------------ naive


def test_naive_identity_matrix_returns_input():
    a = random_symmetric(3, 4, 0)
    out = sttsm_naive(a, np.eye(4))
    assert np.array_equal(out.array, a.array)


def test_naive_m2_identity_tensor_gives_gram_matrix():
    x = random_matrix(3, 3, 1)
    out = sttsm_naive(DenseTensor(np.eye(3)), x)
    assert np.max(np.abs(out.array - x @ x.T)) < 1e-13


def test_naive_m3_cross_check_with_ttm_chain():
    a = random_symmetric(3, 2, 2)
    x = random_matrix(2, 2, 3)
    assert max_relative_error(sttsm_naive(a, x), sttsm_dense_ttm(a, x)) < 1e-12


def test_naive_full_nest_agrees_with_replication():
    a = random_symmetric(3, 3, 4)
    x = random_matrix(3, 3, 5)
    fast = sttsm_naive(a, x)
    strict = sttsm_naive(a, x, full_nest=True)
    assert max_relative_error(fast, strict) < 1e-13


def test_naive_shape_error():
    a = random_symmetric(2, 4, 6)
    with pytest.raises(ShapeError, match="does not contract"):
        sttsm_naive(a, np.zeros((3, 5)))


# ------------------------------------------------------------ scalar temps


def test_scalar_temps_m2_identity():
    a = random_symmetric(2, 5, 7)
    assert np.allclose(sttsm_scalar_temps(a, np.eye(5)).array, a.array, atol=1e-14)


def test_scalar_temps_m2_matrix_oracle():
    a = random_symmetric(2, 4, 8)
    x = random_matrix(3, 4, 9)
    want = matmul_ref(matmul_ref(x, a.array), x.T)
    got = sttsm_scalar_temps(a, x)
    assert np.max(np.abs(got.array - want)) / np.max(np.abs(want)) < 1e-12


@pytest.mark.parametrize("m,n,p", [(2, 4, 4), (3, 5, 3), (3, 4, 7), (4, 3, 5), (5, 2, 3)])
def test_scalar_temps_counts_are_the_blocked_sums_at_unit_output_blocks(m, n, p):
    # One block per input mode and b_C = 1, plus 2 p^m memops of replication.
    c = OpCounter()
    sttsm_scalar_temps(random_symmetric(m, n, 11), random_matrix(p, n, 12), c)
    assert c.flops == bcss_costs(m, n, p, n, 1, meta_k=0).flops
    assert c.memops == bcss_impl_memops(m, n, p, n, 1) + 2 * p**m


def test_scalar_temps_m4_vs_naive():
    a = random_symmetric(4, 3, 10)
    x = random_matrix(2, 3, 11)
    assert max_relative_error(sttsm_scalar_temps(a, x), sttsm_naive(a, x)) < 1e-12


# ------------------------------------------------------------ dense chain


def test_dense_ttm_identity():
    a = random_symmetric(3, 3, 12)
    assert np.array_equal(sttsm_dense_ttm(a, np.eye(3)).array, a.array)


def test_dense_ttm_m2_sandwich():
    a = random_symmetric(2, 4, 13)
    x = random_matrix(3, 4, 14)
    want = x @ a.array @ x.T
    assert np.max(np.abs(sttsm_dense_ttm(a, x).array - want)) < 1e-12


def test_dense_ttm_flop_counter_anchor():
    a = random_symmetric(3, 4, 15)
    x = random_matrix(2, 4, 16)
    c = OpCounter()
    sttsm_dense_ttm(a, x, c)
    assert c.flops == 448 == dense_costs(3, 4, 2).flops


@pytest.mark.parametrize(
    "m,n,p", [(2, 4, 4), (3, 5, 3), (3, 4, 7), (4, 3, 5), (5, 2, 3), (4, 16, 12), (3, 40, 50)]
)
def test_dense_ttm_exact_counts_and_gemm_shapes(m, n, p):
    # Mode d reads p^d n^(m-d) elements through the front permute and writes
    # p^(d+1) n^(m-1-d) through the inverse one, 2 memops each, between
    # them one GEMM per chunk, (w x n) @ (n x p) or, for a chunk as wide
    # as n along the modes before d, (p x n) @ (n x w), whose w sum to
    # N' = p^d n^(m-1-d).  The last two cases span more than one chunk.
    a = random_symmetric(m, n, 17)
    x = random_matrix(p, n, 18)
    calls = []

    def counting(lhs, rhs):
        calls.append((lhs.shape, rhs.shape))
        return lhs @ rhs

    c = OpCounter()
    set_matmul_backend(counting)
    try:
        out = sttsm_dense_ttm(a, x, c)
    finally:
        set_matmul_backend(None)
    assert c.memops == sum(
        2 * (p**d * n ** (m - d) + p ** (d + 1) * n ** (m - 1 - d)) for d in range(m)
    )
    # The chain is the blocked algorithm at one block per mode.
    assert c.memops == bcss_impl_memops(m, n, p, n, p)
    assert c.flops == dense_costs(m, n, p).flops
    assert all(
        lhs[1] == n and rhs == (n, p) or lhs == (p, n) and rhs[0] == n for lhs, rhs in calls
    )
    widths = iter(lhs[0] if rhs == (n, p) else rhs[1] for lhs, rhs in calls)
    for d in range(m):
        left = p**d * n ** (m - 1 - d)
        while left > 0:
            left -= next(widths)
        assert left == 0, d
    assert next(widths, None) is None
    if (m, n, p) == (3, 40, 50):
        assert len(calls) > m
    want = a.array
    for k in range(m):
        want = np.moveaxis(np.tensordot(x, want, axes=([1], [k])), 0, k)
    assert out.dims == (p,) * m and out.array.flags.f_contiguous
    assert np.max(np.abs(out.array - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m,n,p", [(4, 5, 3), (5, 4, 4), (4, 3, 6), (3, 40, 40)])
def test_dense_ttm_equals_products_into_fresh_arrays(m, n, p):
    # Bitwise and count for count, whether or not products reuse arrays;
    # the operand is only read, and the result shares no memory with it.
    a = random_symmetric(m, n, 19)
    x = random_matrix(p, n, 20)
    before = a.array.tobytes(order="F")
    want, c_want = a, OpCounter()
    for k in range(m):
        want = dense_module.mode_multiply(want, k, x, c_want)
    c = OpCounter()
    got = sttsm_dense_ttm(a, x, c)
    assert got.array.tobytes(order="F") == want.array.tobytes(order="F")
    assert (c.flops, c.memops, c.threads) == (c_want.flops, c_want.memops, c_want.threads)
    assert a.array.tobytes(order="F") == before
    assert not np.shares_memory(got.array, a.array)


@pytest.mark.parametrize("m,n,p", [(5, 4, 4), (4, 2, 2), (5, 4, 3), (5, 3, 4)])
def test_dense_ttm_writes_every_product_into_product_0_when_p_is_n(monkeypatch, m, n, p):
    a = random_symmetric(m, n, 21)
    products = []

    def spy(*args, **kwargs):
        out = dense_module.mode_multiply(*args, **kwargs)
        products.append(out.array)
        return out

    monkeypatch.setattr(cb, "mode_multiply", spy)
    sttsm_dense_ttm(a, random_matrix(p, n, 22))
    assert len(products) == m
    # When p == n, products 1..m-1 are written in place into product 0's array.
    for k, j in itertools.combinations(range(m), 2):
        assert (products[k] is products[j]) == (p == n), (k, j)
        assert np.shares_memory(products[k], products[j]) == (p == n), (k, j)
    assert not any(np.shares_memory(c, a.array) for c in products)


@pytest.mark.parametrize("m,n,p", [(4, 6, 6), (3, 40, 40), (4, 5, 3)])
def test_dense_ttm_leaves_its_operand_unchanged(cpus, monkeypatch, m, n, p):
    # Product 0 is written into a new array, so the in-place products
    # after it never reach the operand, on one thread or three.
    monkeypatch.setattr(dense_module, "_CHUNK", 50)
    a = random_symmetric(m, n, 23)
    before = a.array.tobytes(order="F")
    for count in (1, 3):
        cpus(count)
        out = sttsm_dense_ttm(a, random_matrix(p, n, 24))
        assert a.array.tobytes(order="F") == before
        assert not np.shares_memory(out.array, a.array)


@pytest.mark.parametrize("m,n,chunk", [(4, 12, 1 << 10), (4, 24, None)])
def test_dense_ttm_peak_stays_below_two_products(monkeypatch, m, n, chunk):
    # Products 1..m-1 overwrite product 0's array, so besides chunk
    # buffers a call holds one product, where a chain writing each product
    # into a second array held two.
    if chunk is not None:
        monkeypatch.setattr(dense_module, "_CHUNK", chunk)
    a = random_symmetric(m, n, 25)
    x = random_matrix(n, n, 26)
    tracemalloc.start()
    try:
        sttsm_dense_ttm(a, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * a.array.nbytes


# ------------------------------------------------------------ blocked


def test_bcss_degenerate_single_block_equals_dense_chain():
    # One block in, one block out: the blocked algorithm is the dense chain
    # contracted in reverse mode order, so values agree to reassociation.
    a = random_symmetric(3, 4, 17)
    x = random_matrix(4, 4, 18)
    packed = compress(a, 4)
    out = sttsm_bcss(packed, x, 4)
    assert len(out.blocks) == 1
    dense = sttsm_dense_ttm(a, x)
    scale = np.max(np.abs(dense.array))
    assert np.max(np.abs(out.blocks[(0, 0, 0)] - dense.array)) / scale < 1e-13


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("b", [1, 2])
def test_bcss_matches_naive_reduced_sweep(m, n, b):
    a = random_symmetric(m, n, m * 31 + n)
    x = random_matrix(n, n, m * 37 + n)
    packed = compress(a, b)
    for reuse in (True, False):
        out = sttsm_bcss(packed, x, b, reuse=reuse)
        err = max_relative_error(decompress(out), sttsm_naive(a, x))
        assert err < 1e-10, (m, n, b, reuse, err)


def test_bcss_rectangular_blocks_and_output_dim():
    # p != n and b_C != b_A.
    a = random_symmetric(3, 6, 19)
    x = random_matrix(4, 6, 20)
    packed = compress(a, 3)
    out = sttsm_bcss(packed, x, 2)
    assert out.dims == (4, 4, 4)
    assert len(out.blocks) == simplex_count(2, 3)
    err = max_relative_error(decompress(out), sttsm_naive(a, x))
    assert err < 1e-10


def test_bcss_output_block_count():
    a = random_symmetric(4, 4, 21)
    packed = compress(a, 2)
    x = random_matrix(4, 4, 22)
    out = sttsm_bcss(packed, x, 1)
    assert len(out.blocks) == simplex_count(4, 4)


@pytest.mark.parametrize("m,n,b", [(2, 4, 1), (2, 4, 2), (3, 4, 2), (3, 8, 4), (2, 8, 2)])
def test_bcss_counter_equals_formula_both_modes(m, n, b):
    a = random_symmetric(m, n, m + n + b)
    x = random_matrix(n, n, m + n + b + 1)
    packed = compress(a, b)
    for reuse in (True, False):
        c = OpCounter()
        sttsm_bcss(packed, x, b, c, reuse=reuse)
        rep = bcss_costs(m, n, n, b, b, meta_k=0, reuse=reuse)
        assert c.flops == rep.flops, (m, n, b, reuse)
        assert rep.memops <= c.memops <= 2 * rep.memops, (m, n, b, reuse)
        assert c.memops == bcss_impl_memops(m, n, n, b, b, reuse=reuse), (m, n, b, reuse)


@pytest.mark.parametrize(
    "m,n,p,b_a,b_c", [(2, 6, 6, 3, 2), (3, 6, 4, 2, 1), (3, 4, 6, 1, 3), (4, 4, 4, 2, 2)]
)
def test_bcss_one_gemm_per_produced_block(m, n, p, b_a, b_c):
    a = random_symmetric(m, n, 50)
    packed = compress(a, b_a)
    x = random_matrix(p, n, 51)
    nbar, pbar = n // b_a, p // b_c
    for reuse in (True, False):
        # Level k (d = m-1-k) is entered C(pbar+d, d+1) times and produces
        # one block per canonical (reuse) or grid (no reuse) k-tuple, each
        # from a single (rest x n) @ (n x b_C) product.
        expected = Counter()
        for d in range(m):
            k = m - 1 - d
            blocks = simplex_count(nbar, k) if reuse and k else nbar**k
            expected[b_a**k * b_c ** (m - 1 - k)] += math.comb(pbar + d, d + 1) * blocks
        calls = []

        def counting(lhs, rhs):
            calls.append((lhs.shape, rhs.shape))
            return lhs @ rhs

        set_matmul_backend(counting)
        try:
            out = sttsm_bcss(packed, x, b_c, reuse=reuse)
        finally:
            set_matmul_backend(None)
        assert all(lhs[1] == n and rhs == (n, b_c) for lhs, rhs in calls), calls
        assert Counter(lhs[0] for lhs, _ in calls) == expected, reuse
        assert max_relative_error(decompress(out), sttsm_naive(a, x)) < 1e-10


@pytest.mark.parametrize("reuse", [True, False])
def test_bcss_gemms_take_row_panels(cpus, reuse):
    # At (5, 16, 16, 8, 8) every produced block has rest = 8^4 = 4096 GEMM
    # rows, so it takes its GEMMs by panels of at most cb._PANEL rows, one
    # after another on one thread, each (rows x n) @ (n x b_C).
    m, n, p, b = 5, 16, 16, 8
    cpus(1)
    packed = compress(random_symmetric(m, n, 52), b)
    x = random_matrix(p, n, 53)
    rest = b ** (m - 1)
    calls = []

    def counting(lhs, rhs):
        calls.append((lhs.shape, rhs.shape))
        return lhs @ rhs

    counter = OpCounter()
    set_matmul_backend(counting)
    try:
        out = sttsm_bcss(packed, x, b, counter, reuse=reuse)
    finally:
        set_matmul_backend(None)
    assert cb._PANEL == 2048
    assert all(lhs[0] <= 2048 and lhs[1] == n and rhs == (n, b) for lhs, rhs in calls)
    # Each produced block's panels sum to its rows.
    blocks, left = 0, 0
    for (rows, _), _ in calls:
        left = left or rest
        assert 0 < rows <= left
        left -= rows
        blocks += left == 0
    assert left == 0
    grid, pgrid = n // b, p // b
    assert blocks == sum(
        math.comb(pgrid + m - 1 - k, m - k) * (simplex_count(grid, k) if reuse and k else grid**k)
        for k in range(m)
    )
    assert len(calls) == 2 * blocks
    assert counter.flops == bcss_costs(m, n, p, b, b, meta_k=0, reuse=reuse).flops
    assert counter.memops == bcss_impl_memops(m, n, p, b, b, reuse=reuse)
    assert max_relative_error(decompress(out), sttsm_dense_ttm(decompress(packed), x)) < 1e-10


@st.composite
def _bcss_case(draw):
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, {2: 64, 3: 16, 4: 8}[m]))  # n^m <= 4096
    p = draw(st.integers(1, 8))
    b_a = draw(st.sampled_from([b for b in range(1, n + 1) if n % b == 0]))
    b_c = draw(st.sampled_from([b for b in range(1, p + 1) if p % b == 0]))
    return m, n, p, b_a, b_c, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(_bcss_case())
@example((3, 6, 4, 3, 2, 0))
@example((4, 8, 3, 2, 3, 1))
def test_bcss_matches_oracle_and_counts_property(case):
    m, n, p, b_a, b_c, seed = case
    a = random_symmetric(m, n, seed)
    x = random_matrix(p, n, seed + 1)
    packed = compress(a, b_a)
    oracle = sttsm_naive(a, x)
    for reuse in (True, False):
        c = OpCounter()
        out = sttsm_bcss(packed, x, b_c, c, reuse=reuse)
        assert max_relative_error(decompress(out), oracle) < 1e-10, reuse
        assert c.flops == bcss_costs(m, n, p, b_a, b_c, meta_k=0, reuse=reuse).flops
        assert c.memops == bcss_impl_memops(m, n, p, b_a, b_c, reuse=reuse)
        again = sttsm_bcss(packed, x, b_c, reuse=reuse)
        assert all(np.array_equal(out.blocks[key], again.blocks[key]) for key in out.blocks)


def test_bcss_temporaries_are_partially_symmetric():
    a = random_symmetric(4, 4, 23)
    x = random_matrix(4, 4, 24)
    packed = compress(a, 2)
    audited = []

    def hook(k, temp):
        dense = decompress(temp)
        audited.append((k, dense.dims))
        assert is_sym_in_modes(dense, range(k), 1e-12), k

    sttsm_bcss(packed, x, 2, temp_hook=hook)
    ks = {k for k, _ in audited}
    assert ks == {1, 2, 3}
    # Temporary at level k: k symmetric modes of full dimension, tail blocks.
    for k, dims in audited:
        assert dims == (4,) * k + (2,) * (4 - k)


@pytest.mark.parametrize("reuse", [True, False])
def test_bcss_builds_level_tables_once_per_call(monkeypatch, reuse):
    # One canonicalization per grid index of each symmetric temporary level
    # and of the output, on every call: nothing per temporary, nothing cached.
    from blocksym import storage

    m, n, p, b = 4, 6, 4, 2
    nbar, pbar = n // b, p // b
    packed = compress(random_symmetric(m, n, 40), b)
    x = random_matrix(p, n, 41)
    calls = []
    real = storage.canonicalize
    monkeypatch.setattr(storage, "canonicalize", lambda idx: calls.append(idx) or real(idx))
    temps = sum(nbar**k for k in range(1, m)) if reuse else 0
    for _ in range(2):
        calls.clear()
        sttsm_bcss(packed, x, b, reuse=reuse)
        assert len(calls) == temps + pbar**m


@pytest.mark.parametrize("reuse", [True, False])
def test_bcss_builds_level_tables_once_per_call_on_one_grid(monkeypatch, reuse):
    # With p == n the output has the input's block grid and takes its
    # tables, so a call canonicalizes only its symmetric temporary levels.
    from blocksym import storage

    m, n, b = 4, 6, 2
    nbar = n // b
    packed = compress(random_symmetric(m, n, 40), b)
    x = random_matrix(n, n, 41)
    calls = []
    real = storage.canonicalize
    monkeypatch.setattr(storage, "canonicalize", lambda idx: calls.append(idx) or real(idx))
    temps = sum(nbar**k for k in range(1, m)) if reuse else 0
    for _ in range(2):
        calls.clear()
        sttsm_bcss(packed, x, b, reuse=reuse)
        assert len(calls) == temps


@pytest.mark.parametrize("p,b_c", [(6, 2), (3, 1), (6, 3), (4, 2), (12, 4)])
def test_bcss_output_shares_its_input_tables_on_one_grid(p, b_c):
    packed = compress(random_symmetric(3, 6, 46), 2)
    before = packed.data.tobytes(order="F")
    out = sttsm_bcss(packed, random_matrix(p, 6, 47), b_c)
    assert (out.tables is packed.tables) == (p // b_c == packed.grid)
    out.data[...] = 0.0
    assert packed.data.tobytes(order="F") == before


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("m,n,p,b_a,b_c", [(4, 6, 6, 3, 2), (5, 8, 8, 2, 2), (3, 8, 6, 2, 3)])
def test_bcss_builds_one_temporary_per_parent(monkeypatch, reuse, m, n, p, b_a, b_c):
    # Every visit of level k refills one PartialSymTensor, built once per
    # call next to the level's tables, and the output is built once.
    from blocksym import storage

    packed = compress(random_symmetric(m, n, 42), b_a)
    x = random_matrix(p, n, 43)
    built = Counter()
    real = storage.PartialSymTensor.__init__

    def counted(self, sym_modes, *args, **kwargs):
        built[sym_modes] += 1
        real(self, sym_modes, *args, **kwargs)

    monkeypatch.setattr(storage.PartialSymTensor, "__init__", counted)
    sttsm_bcss(packed, x, b_c, reuse=reuse)
    assert built == {k: 1 for k in range(1, m + 1)}


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("m,n,b", [(4, 12, 3), (5, 8, 2), (4, 16, 4)])
def test_bcss_peak_is_the_deepest_path_of_temporaries(cpus, reuse, m, n, b):
    # Beyond its output, a serial call holds at most one temporary per level
    # (the model's storage_temps), one level's gather buffer and GEMM
    # result, and a fixed allowance for tables and bookkeeping.
    cpus(1)
    packed = compress(random_symmetric(m, n, 44), b)
    x = random_matrix(n, n, 45)
    tracemalloc.start()
    try:
        out = sttsm_bcss(packed, x, b, reuse=reuse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = out.data.nbytes + out.tables.rank.nbytes + out.tables.transpose.nbytes
    temps = bcss_costs(m, n, n, b, b, meta_k=0, reuse=reuse).storage_temps
    level = b ** (m - 1) * n + b**m  # any level's gather buffer and GEMM result
    assert peak - held <= 8 * (temps + level) + 128 * 1024


def test_bcss_temp_hook_no_reuse_flavor():
    a = random_symmetric(3, 4, 25)
    x = random_matrix(4, 4, 26)
    packed = compress(a, 2)
    seen = []
    sttsm_bcss(packed, x, 2, reuse=False, temp_hook=lambda k, t: seen.append((k, decompress(t))))
    for k, dense in seen:
        assert symmetry_violation(dense, range(k))[0] <= 1e-12 if k >= 2 else True


def test_bcss_validations():
    a = random_symmetric(3, 4, 27)
    packed = compress(a, 2)
    with pytest.raises(BlockDivisibilityError):
        sttsm_bcss(packed, random_matrix(4, 4, 28), 3)
    with pytest.raises(Exception):
        sttsm_bcss(packed, random_matrix(4, 5, 29), 2)


# ------------------------------------------------------------ split levels


def _bcss_run(packed, x, b_c, reuse):
    counter = OpCounter()
    out = sttsm_bcss(packed, x, b_c, counter, reuse=reuse)
    return out.data.tobytes(order="F"), counter.flops, counter.memops


def spy_share(monkeypatch, module, skip=False):
    """Record ``(k, threads)`` for each call of ``share`` in ``module``,
    ``k`` being the caller's level or mode; with ``skip`` no work runs."""
    used = []

    def spy(work, items, threads, counter, pool=None):
        # The nearest caller frame that binds k names the level or mode:
        # sttsm_bcss's descend, which calls a level's product
        # (change_of_basis._level), or mode_multiply.
        frame = sys._getframe(1)
        while "k" not in frame.f_locals:
            frame = frame.f_back
        used.append((frame.f_locals["k"], threads))
        if not skip:
            split.share(work, items, threads, counter, pool)

    monkeypatch.setattr(module, "share", spy)
    return used


def level_split(monkeypatch, m, n, b, reuse=True):
    """Threads each level of a real ``sttsm_bcss`` call at ``n = p`` and
    ``b_A = b_C = b`` shares its blocks among, indexed by level ``k``; the
    work is skipped, so the operands are left unfilled."""
    used = spy_share(monkeypatch, cb, skip=True)
    sttsm_bcss(BcssTensor(m, n, b), np.empty((n, n)), b, reuse=reuse)
    per_level = [{t for level, t in used if level == k} for k in range(m)]
    assert all(len(counts) == 1 for counts in per_level)  # one count per level and call
    return [counts.pop() for counts in per_level]


def test_level_threads_dispatch(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    # The benchmark's large blocks: 2^15-element slabs at every level, split
    # where each of the 2 threads gets 4 blocks (level 1 has 4 in all).
    assert level_split(monkeypatch, 5, 32, 8) == [1, 1, 2, 2, 2]
    assert level_split(monkeypatch, 5, 32, 8, reuse=False) == [1, 1, 2, 2, 2]
    assert level_split(monkeypatch, 4, 48, 16) == [1, 1, 1, 2]
    # Slabs of 20,736 elements or fewer, and too few blocks, stay serial.
    for m, n, b in [(4, 48, 8), (4, 32, 8), (5, 32, 4), (4, 40, 10), (4, 48, 12), (4, 64, 8),
                    (3, 96, 48)]:
        assert level_split(monkeypatch, m, n, b) == [1] * m, (m, n, b)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert level_split(monkeypatch, 5, 32, 8) == [1] * 5


@pytest.mark.parametrize(
    "blas",
    [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}],
)
def test_level_threads_serial_with_threaded_blas(monkeypatch, blas):
    # Concurrent GEMMs on a threaded BLAS queue behind one another.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for var in split._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    for var, value in blas.items():
        monkeypatch.setenv(var, value)
    assert level_split(monkeypatch, 5, 32, 8) == [1] * 5


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("m,n,p,b_a,b_c", [(4, 6, 4, 2, 2), (3, 8, 6, 2, 3)])
def test_bcss_split_is_bitwise_serial(cpus, m, n, p, b_a, b_c, reuse):
    packed = compress(random_symmetric(m, n, 60), b_a)
    x = random_matrix(p, n, 61)
    cpus(1)
    serial = _bcss_run(packed, x, b_c, reuse)
    # 3 threads over levels of 3 to 27 blocks, most not a multiple of 3.
    # Each thread's first GEMM waits for the other two, so all three run.
    cpus(3)
    met = threading.Barrier(3, timeout=10)
    seen = set()

    def gemm(a, b):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            met.wait()
        return a @ b

    set_matmul_backend(gemm)
    try:
        split = _bcss_run(packed, x, b_c, reuse)
    finally:
        set_matmul_backend(None)
    assert len(seen) == 3
    assert split == serial


def test_bcss_split_stress_many_threads(cpus):
    # More threads than CPUs, switching every microsecond: a block taken
    # twice or never would change the output or the counts.
    packed = compress(random_symmetric(4, 6, 66), 1)
    x = random_matrix(6, 6, 67)
    cpus(1)
    serial = _bcss_run(packed, x, 2, False)
    cpus(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        split = _bcss_run(packed, x, 2, False)
    finally:
        sys.setswitchinterval(interval)
    assert split == serial
    assert time.perf_counter() - t0 < 30


def test_bcss_worker_error_propagates_and_threads_end(cpus):
    packed = compress(random_symmetric(4, 6, 62), 2)
    x = random_matrix(4, 6, 63)
    cpus(2)
    before = threading.active_count()
    failed = threading.Event()

    def gemm(a, b):
        # The calling thread holds its first block until a worker has failed.
        if threading.current_thread() is threading.main_thread():
            failed.wait(10)
            return a @ b
        failed.set()
        raise RuntimeError("worker GEMM failed")

    set_matmul_backend(gemm)
    try:
        with pytest.raises(RuntimeError, match="worker GEMM failed"):
            sttsm_bcss(packed, x, 2)
    finally:
        set_matmul_backend(None)
    assert failed.is_set()
    assert threading.active_count() == before


def test_bcss_one_cpu_makes_no_executor(cpus, monkeypatch):
    packed = compress(random_symmetric(4, 6, 64), 2)
    x = random_matrix(4, 6, 65)
    cpus(2)
    shared = _bcss_run(packed, x, 2, True)

    def no_pool(*args):
        raise AssertionError("executor made with one CPU")

    cpus(1)
    monkeypatch.setattr(split, "ThreadPoolExecutor", no_pool)
    assert _bcss_run(packed, x, 2, True) == shared


def test_bcss_two_cpus_start_no_thread_where_no_level_shares(cpus):
    # One block per level (b_A = n) gives no level two items to share, so
    # the call's pool is made but no worker thread starts.
    packed = compress(random_symmetric(3, 4, 68), 4)
    x = random_matrix(6, 4, 69)
    cpus(2)
    before = threading.active_count()
    seen = []

    def gemm(a, b):
        seen.append(threading.active_count())
        return a @ b

    set_matmul_backend(gemm)
    try:
        counter = OpCounter()
        sttsm_bcss(packed, x, 2, counter)
    finally:
        set_matmul_backend(None)
    assert seen and set(seen) == {before}
    assert counter.threads == 1


def _dense_run(a, x):
    counter = OpCounter()
    out = sttsm_dense_ttm(a, x, counter)
    return out.array.tobytes(order="F"), counter.flops, counter.memops


@pytest.mark.parametrize("m,n,p", [(3, 8, 5), (4, 6, 6), (5, 4, 7)])
def test_dense_chain_split_is_bitwise_serial(cpus, monkeypatch, m, n, p):
    # Chunks of at most 50 elements, so every mode product splits.
    monkeypatch.setattr(dense_module, "_CHUNK", 50)
    a = random_symmetric(m, n, 70 + m)
    x = random_matrix(p, n, 71 + m)
    used = spy_share(monkeypatch, dense_module)
    cpus(1)
    serial = _dense_run(a, x)
    assert used == [(k, 1) for k in range(m)]
    assert serial[1:] == (dense_costs(m, n, p).flops, bcss_impl_memops(m, n, p, n, p))
    used.clear()
    cpus(3)
    assert _dense_run(a, x) == serial
    assert used == [(k, 3) for k in range(m)]


def chain_split(m, n, p):
    """Threads each mode product of the dense chain shares its chunks
    among, indexed by mode: the mode-k product takes a (p,)*k + (n,)*(m-k)
    tensor to p rows."""
    return [dense_module._chunk_grid(p**k, n, n ** (m - 1 - k), p)[2] for k in range(m)]


def test_chain_threads_dispatch(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert chain_split(5, 32, 32) == [2] * 5
    assert chain_split(4, 48, 48) == [2] * 4
    assert chain_split(3, 8, 8) == [1] * 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert chain_split(5, 32, 32) == [1] * 5


@pytest.mark.parametrize("fail_at", [1, 5, 40])
def test_dense_chain_error_propagates_and_threads_end(cpus, monkeypatch, fail_at):
    # The fail_at-th GEMM of the chain raises, on whichever thread makes it.
    monkeypatch.setattr(dense_module, "_CHUNK", 50)
    a = random_symmetric(4, 6, 72)
    x = random_matrix(6, 6, 73)
    cpus(2)
    before = threading.active_count()
    calls = []
    counting = threading.Lock()

    def gemm(lhs, rhs):
        with counting:
            calls.append(threading.get_ident())
            if len(calls) == fail_at:
                raise RuntimeError(f"GEMM {fail_at} failed")
        return lhs @ rhs

    set_matmul_backend(gemm)
    try:
        with pytest.raises(RuntimeError, match=f"GEMM {fail_at} failed"):
            sttsm_dense_ttm(a, x)
    finally:
        set_matmul_backend(None)
    assert threading.active_count() == before


def test_order_one_rejected_everywhere():
    a = DenseTensor(np.ones(3))
    with pytest.raises(ParameterError):
        sttsm_naive(a, np.eye(3))
    with pytest.raises(ParameterError):
        sttsm_dense_ttm(a, np.eye(3))


_ALGORITHMS = {
    "naive": sttsm_naive,
    "scalar": sttsm_scalar_temps,
    "dense": sttsm_dense_ttm,
    "bcss": lambda a, x: sttsm_bcss(compress(a, 2), x, 2),
}


@pytest.mark.parametrize("algo", sorted(_ALGORITHMS))
def test_matrix_without_rows_rejected_at_entry(algo):
    # The dense chain used to return an empty tensor, and the others failed
    # deep inside on parameters the caller never passed.
    with pytest.raises(ShapeError, match=r"matrix shape \(0, 4\) has no rows"):
        _ALGORITHMS[algo](random_symmetric(3, 4, 9), np.zeros((0, 4)))


NOT_REAL = {
    "complex": np.eye(4) * (1 + 1j),
    "object": np.eye(4).astype(object),
    "string": np.full((4, 4), "a"),
}


@pytest.mark.parametrize("x", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("algo", sorted(_ALGORITHMS))
def test_matrix_that_is_not_real_rejected_at_entry(algo, x):
    # A complex matrix used to lose its imaginary part under a
    # ComplexWarning, and a string one to raise NumPy's bare ValueError.
    with pytest.raises(ParameterError, match="is not real"):
        _ALGORITHMS[algo](random_symmetric(3, 4, 9), x)


RAGGED = [[1.0, 2.0, 3.0, 4.0], [1.0, 2.0]]


@pytest.mark.parametrize("algo", sorted(_ALGORITHMS))
def test_ragged_matrix_rejected_at_entry(algo):
    # Used to raise NumPy's bare ValueError ("inhomogeneous shape").
    with pytest.raises(ShapeError, match="ragged"):
        _ALGORITHMS[algo](random_symmetric(3, 4, 9), RAGGED)


# Each other public call that takes an array of values, given one that is
# not real.
_TAKE_VALUES = {
    "DenseTensor": DenseTensor,
    "compress": lambda x: compress(DenseTensor(x), 2),
    "mode_multiply": lambda x: mode_multiply(random_symmetric(3, 4, 9), 0, x),
    "matmul_ref(a)": lambda x: matmul_ref(x, np.eye(4)),
    "matmul_ref(b)": lambda x: matmul_ref(np.eye(4), x),
}


@pytest.mark.parametrize("x", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("call", _TAKE_VALUES.values(), ids=_TAKE_VALUES.keys())
def test_values_that_are_not_real_rejected(call, x):
    # A complex array used to lose its imaginary part under a ComplexWarning,
    # an object one to be converted, and a string one to be parsed or raise
    # NumPy's bare ValueError.
    with pytest.raises(ParameterError, match="is not real"):
        call(x)


@pytest.mark.parametrize("call", _TAKE_VALUES.values(), ids=_TAKE_VALUES.keys())
def test_ragged_values_rejected(call):
    # Used to raise NumPy's bare ValueError ("inhomogeneous shape").
    with pytest.raises(ShapeError, match="ragged"):
        call(RAGGED)


def test_unequal_dims_rejected():
    a = DenseTensor(np.ones((4, 2)))
    for algo in (sttsm_naive, sttsm_scalar_temps, sttsm_dense_ttm):
        with pytest.raises(ShapeError, match="not all equal"):
            algo(a, np.eye(4))


@pytest.mark.parametrize(
    "a", [BcssTensor(3, 4, 2), np.ones((4, 4, 4))], ids=["BcssTensor", "ndarray"]
)
@pytest.mark.parametrize("algo", [sttsm_naive, sttsm_scalar_temps, sttsm_dense_ttm])
def test_dense_algorithms_need_dense_input(algo, a):
    # Each used to raise a bare AttributeError.
    with pytest.raises(ShapeError, match=f"{algo.__name__} needs a dense tensor"):
        algo(a, np.eye(4))


def test_bcss_needs_blocked_symmetric_input():
    with pytest.raises(ShapeError, match="blocked compact symmetric"):
        sttsm_bcss(random_symmetric(2, 4, 3), np.eye(4), 2)


def test_max_relative_error_dims_and_zero_reference():
    with pytest.raises(ShapeError, match="dims differ"):
        max_relative_error(DenseTensor(np.ones((2, 2))), DenseTensor(np.ones((2, 3))))
    # Another kind of operand, either side, used to raise a bare AttributeError.
    ones = DenseTensor(np.ones((2, 2)))
    for wrong in (BcssTensor(2, 2, 1), np.ones((2, 2))):
        for pair in ((wrong, ones), (ones, wrong)):
            with pytest.raises(ShapeError, match="needs a dense tensor"):
                max_relative_error(*pair)
    # Against an all-zero reference the error is absolute.
    got = max_relative_error(DenseTensor(np.array([0.5, -2.0])), DenseTensor(np.zeros(2)))
    assert got == 2.0


# ------------------------------------------------------------ cross-algorithm


@pytest.mark.parametrize("m", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_all_four_algorithms_agree(m, n):
    a = random_symmetric(m, n, m * 41 + n)
    x = random_matrix(n, n, m * 43 + n)
    oracle = sttsm_naive(a, x)
    assert max_relative_error(sttsm_scalar_temps(a, x), oracle) < 1e-10
    assert max_relative_error(sttsm_dense_ttm(a, x), oracle) < 1e-10
    for b in sorted({1, 2, n // 2, n}):
        out = sttsm_bcss(compress(a, b), x, b)
        assert max_relative_error(decompress(out), oracle) < 1e-10, (m, n, b)


def test_mode_product_preserves_leading_symmetry():
    # Fully symmetric input: contracting mode k leaves modes 0..k-1 symmetric.
    for m, k in [(3, 1), (3, 2), (4, 2), (4, 3), (5, 3)]:
        a = random_symmetric(m, 4, m * 10 + k)
        x = random_matrix(3, 4, m * 11 + k)
        out = mode_multiply(a, k, x)
        assert is_sym_in_modes(out, range(k), 1e-12), (m, k)
