import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksym import (
    BlockDivisibilityError,
    OpCounter,
    ParameterError,
    bcss_costs,
    bcss_impl_memops,
    compress,
    decompress,
    dense_costs,
    matmul_ref,
    max_relative_error,
    random_matrix,
    random_symmetric,
    set_matmul_backend,
    simplex_count,
    sttsm_bcss,
    sttsm_dense_ttm,
    sttsm_naive,
    sttsm_scalar_temps,
    symmetrize,
    temp_to_dense,
)
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
    with pytest.raises(Exception):
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
    # them one (N' x n) @ (n x p) GEMM with N' = p^d n^(m-1-d).  The last
    # two cases are larger than one slab of the tiled permute.
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
    assert c.flops == dense_costs(m, n, p).flops
    assert calls == [((p**d * n ** (m - 1 - d), n), (n, p)) for d in range(m)]
    want = a.array
    for k in range(m):
        want = np.moveaxis(np.tensordot(x, want, axes=([1], [k])), 0, k)
    assert out.dims == (p,) * m and out.array.flags.f_contiguous
    assert np.max(np.abs(out.array - want)) <= 1e-12 * np.max(np.abs(want))


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
        dense = temp_to_dense(temp)
        audited.append((k, dense.dims))
        assert is_sym_in_modes(dense, range(k), 1e-12), k

    sttsm_bcss(packed, x, 2, temp_hook=hook)
    ks = {k for k, _ in audited}
    assert ks == {1, 2, 3}
    # Temporary at level k: k symmetric modes of full dimension, tail blocks.
    for k, dims in audited:
        assert dims == (4,) * k + (2,) * (4 - k)


def test_bcss_temp_hook_no_reuse_flavor():
    a = random_symmetric(3, 4, 25)
    x = random_matrix(4, 4, 26)
    packed = compress(a, 2)
    seen = []
    sttsm_bcss(packed, x, 2, reuse=False, temp_hook=lambda k, t: seen.append((k, temp_to_dense(t))))
    for k, dense in seen:
        assert symmetry_violation(dense, range(k))[0] <= 1e-12 if k >= 2 else True


def test_bcss_validations():
    a = random_symmetric(3, 4, 27)
    packed = compress(a, 2)
    with pytest.raises(BlockDivisibilityError):
        sttsm_bcss(packed, random_matrix(4, 4, 28), 3)
    with pytest.raises(Exception):
        sttsm_bcss(packed, random_matrix(4, 5, 29), 2)


def test_order_one_rejected_everywhere():
    a = DenseTensor(np.ones(3))
    with pytest.raises(ParameterError):
        sttsm_naive(a, np.eye(3))
    with pytest.raises(ParameterError):
        sttsm_dense_ttm(a, np.eye(3))


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
        from blocksym import mode_multiply

        out = mode_multiply(a, k, x)
        assert is_sym_in_modes(out, range(k), 1e-12), (m, k)


# ------------------------------------------------------------ symmetrize


def test_symmetrize_fixed_point():
    t = random_symmetric(3, 4, 30)
    out = symmetrize(t)
    assert np.max(np.abs(out.array - t.array)) < 1e-15


def test_symmetrize_matrix_halves():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((4, 4))
    out = symmetrize(DenseTensor(a))
    assert np.allclose(out.array, 0.5 * (a + a.T), atol=1e-15)


def test_symmetrize_order3_exhaustive_transpositions():
    rng = np.random.default_rng(32)
    t = symmetrize(DenseTensor(rng.standard_normal((3, 3, 3))))
    for perm in itertools.permutations(range(3)):
        assert np.max(np.abs(t.array - np.transpose(t.array, perm))) < 1e-15


def test_symmetrize_rejects_ragged_dims():
    rng = np.random.default_rng(33)
    with pytest.raises(Exception):
        symmetrize(DenseTensor(rng.standard_normal((3, 4))))
