import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksym import (
    DenseTensor,
    ModeError,
    Permutation,
    RangeError,
    ShapeError,
    group_modes,
    ipermute,
    linear_offset,
    matmul_ref,
    mode_multiply,
    permute,
    set_matmul_backend,
)
from blocksym import dense
from blocksym.counters import OpCounter


def rand_tensor(dims, seed):
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.standard_normal(dims))


# ---------------------------------------------------------------- offsets


def test_linear_offset_origin_and_last():
    assert linear_offset((3, 4), (0, 0)) == 0
    assert linear_offset((3, 4), (2, 3)) == 11


def test_linear_offset_matches_brute_force_enumeration():
    # Independent oracle: enumerate the index box in mode-0-fastest order;
    # the k-th tuple enumerated must sit at offset k, and the map is a
    # bijection onto 0..23.
    dims = (2, 3, 4)
    seen = set()
    expected = 0
    for i2 in range(4):
        for i1 in range(3):
            for i0 in range(2):
                off = linear_offset(dims, (i0, i1, i2))
                assert off == expected
                seen.add(off)
                expected += 1
    assert seen == set(range(24))
    assert linear_offset(dims, (1, 2, 3)) == 23


def test_linear_offset_range_errors():
    with pytest.raises(RangeError):
        linear_offset((3, 4), (3, 0))
    with pytest.raises(ShapeError):
        linear_offset((3, 4), (0, 0, 0))


def test_dense_tensor_flat_layout_round_trip():
    t = rand_tensor((2, 3, 4), 0)
    flat = t.data
    for idx in itertools.product(range(2), range(3), range(4)):
        assert flat[linear_offset(t.dims, idx)] == t.array[idx]
    again = DenseTensor.from_flat(flat, t.dims)
    assert np.array_equal(again.array, t.array)


def test_from_flat_length_mismatch():
    with pytest.raises(ShapeError):
        DenseTensor.from_flat(np.zeros(5), (2, 3))


# ---------------------------------------------------------------- permute


def test_permute_identity_is_bitwise_copy():
    t = rand_tensor((3, 2, 4), 1)
    out = permute(t, Permutation.identity(3))
    assert np.array_equal(out.array, t.array)
    assert out.array is not t.array


def test_permute_matrix_transpose():
    t = rand_tensor((2, 3), 2)
    out = permute(t, Permutation((1, 0)))
    assert out.dims == (3, 2)
    assert np.array_equal(out.array, t.array.T)


def test_permute_against_elementwise_remap_oracle():
    t = rand_tensor((2, 3, 4), 3)
    p = Permutation((2, 0, 1))
    out = permute(t, p)
    assert out.dims == (4, 2, 3)
    for idx in itertools.product(range(2), range(3), range(4)):
        assert out.array[p.apply(idx)] == t.array[idx]


def test_permute_length_mismatch():
    with pytest.raises(ShapeError):
        permute(rand_tensor((2, 2), 4), Permutation((0, 1, 2)))


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_permute_ipermute_round_trip_bitwise(order):
    rng = np.random.default_rng(order)
    dims = tuple(rng.integers(1, 4, size=order).tolist())
    t = rand_tensor(dims, order + 10)
    for _ in range(4):
        p = Permutation(tuple(rng.permutation(order).tolist()))
        assert np.array_equal(ipermute(permute(t, p), p).array, t.array)


def test_ipermute_equals_permute_by_inverse():
    t = rand_tensor((3, 3, 3), 5)
    p = Permutation((1, 2, 0))
    assert np.array_equal(ipermute(t, p).array, permute(t, p.inverse()).array)


def test_permutation_compose_and_identity():
    a = Permutation((2, 0, 1))
    b = Permutation((1, 2, 0))
    t = rand_tensor((2, 3, 4), 6)
    lhs = permute(t, a.compose(b))
    rhs = permute(permute(t, a), b)
    assert np.array_equal(lhs.array, rhs.array)
    assert a.compose(a.inverse()).is_identity()


def test_permute_counts_two_memops_per_element():
    t = rand_tensor((3, 4), 7)
    c = OpCounter()
    permute(t, Permutation((1, 0)), c)
    assert c.memops == 2 * 12
    assert c.flops == 0


def _assert_permute_matches_numpy(t, p):
    c = OpCounter()
    out = permute(t, p, c)
    want = np.transpose(t.array, p.mapping).copy(order="F")
    assert out.dims == want.shape == p.apply(t.dims)
    assert out.array.tobytes(order="A") == want.tobytes(order="A")  # bitwise, -0.0 too
    assert out.array.flags.f_contiguous
    assert not np.shares_memory(out.array, t.array)
    assert (c.memops, c.flops) == (2 * t.array.size, 0)


@st.composite
def _tensor_and_permutation(draw):
    m = draw(st.integers(1, 6))
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m)))
    perm = Permutation(tuple(draw(st.permutations(range(m)))))
    return dims, perm, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(_tensor_and_permutation(), st.integers(1, 40))
@example(((3, 1, 4, 1, 5), Permutation((4, 1, 0, 3, 2)), 0), 1)
@example(((8, 1, 8), Permutation((2, 1, 0)), 1), 5)
@example(((1, 1, 1), Permutation((2, 0, 1)), 2), 1)
@example(((0, 3, 4), Permutation((1, 0, 2)), 3), 1)
@example(((5, 4, 0), Permutation((2, 0, 1)), 4), 1)
def test_permute_matches_numpy_property(case, slab):
    # A small slab sends these small shapes through the tiled copy.
    dims, p, seed = case
    t = rand_tensor(dims, seed)
    _assert_permute_matches_numpy(t, p)
    with mock.patch.object(dense, "_SLAB", slab):
        _assert_permute_matches_numpy(t, p)


@st.composite
def _larger_than_slab(draw):
    # Every dim but one is small; the long one puts the size past one slab.
    m = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    long = draw(st.integers(0, m - 1))
    others = math.prod(dims) // dims[long]
    dims[long] = dense._SLAB // others + 1 + draw(st.integers(0, 50))
    perm = Permutation(tuple(draw(st.permutations(range(m)))))
    return tuple(dims), perm, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(_larger_than_slab())
@example(((4, 3, 2**14), Permutation((2, 0, 1)), 0))
@example(((2**14, 3, 4), Permutation((1, 2, 0)), 1))
def test_permute_larger_than_one_slab_matches_numpy(case):
    dims, p, seed = case
    t = rand_tensor(dims, seed)
    assert t.array.size > dense._SLAB
    _assert_permute_matches_numpy(t, p)


@pytest.mark.parametrize("m,n", [(4, 16), (5, 9), (3, 40)])
def test_mode_product_permutes_round_trip_past_one_slab(m, n):
    # The front permutation of each mode product and its inverse, the two
    # transposes the dense chain runs on whole tensors.
    t = rand_tensor((n,) * m, m + n)
    assert t.array.size > dense._SLAB
    for k in range(m):
        front = dense.front_permutation(k, m)
        moved = permute(t, front)
        assert np.array_equal(moved.array, np.moveaxis(t.array, k, 0))
        assert np.array_equal(ipermute(moved, front).array, t.array)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mode_product_permutes_merge_to_batched_transpose(m):
    # Whatever m and k, the front permutation is (lead, n, rest) ->
    # (n, lead, rest) after merging and its inverse the reverse; at k = 0
    # both are the identity on one merged axis.
    n = 3
    dims = (n,) * m
    for k in range(m):
        front = dense.front_permutation(k, m)
        if k == 0:
            assert dense._merged_axes(dims, front.mapping) == ((n**m,), (0,))
            assert dense._merged_axes(dims, front.inverse().mapping) == ((n**m,), (0,))
            continue
        lead, rest = n**k, n ** (m - 1 - k)
        keep = 3 if rest > 1 else 2
        axes = (1, 0, 2)[:keep]
        assert dense._merged_axes(dims, front.mapping) == ((lead, n, rest)[:keep], axes)
        assert dense._merged_axes(dims, front.inverse().mapping) == ((n, lead, rest)[:keep], axes)


def test_merged_axes_drops_unit_axes():
    assert dense._merged_axes((3, 1, 4), (2, 1, 0)) == ((3, 4), (1, 0))
    assert dense._merged_axes((2, 3, 1, 5), (3, 2, 0, 1)) == ((6, 5), (1, 0))
    assert dense._merged_axes((2, 3, 1, 5), (2, 0, 1, 3)) == ((30,), (0,))
    assert dense._merged_axes((1, 1), (1, 0)) == ((), ())


@st.composite
def _permutations(draw, count):
    m = draw(st.integers(1, 6))
    return [Permutation(tuple(draw(st.permutations(range(m))))) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(_permutations(3))
def test_permutation_inverse_and_compose_algebra(perms):
    a, b, c = perms
    m = len(a)
    ident = Permutation.identity(m)
    seq = tuple(range(10, 10 + m))
    assert a.inverse().inverse() == a
    assert a.compose(a.inverse()) == a.inverse().compose(a) == ident
    assert a.compose(ident) == ident.compose(a) == a
    assert a.compose(b).compose(c) == a.compose(b.compose(c))
    assert a.inverse().apply(a.apply(seq)) == seq
    assert a.compose(b).apply(seq) == b.apply(a.apply(seq))
    assert a.compose(b).inverse() == b.inverse().compose(a.inverse())
    assert a.is_identity() == (a == ident)


@settings(max_examples=100, deadline=None)
@given(_permutations(2), st.integers(0, 2**16))
def test_permute_of_composition_and_ipermute_property(perms, seed):
    a, b = perms
    m = len(a)
    # Distinct dims, so a permutation applied the wrong way round changes
    # the shape and cannot pass by accident.
    dims = tuple(range(2, 2 + m))
    t = rand_tensor(dims, seed)
    assert np.array_equal(permute(t, a.compose(b)).array, permute(permute(t, a), b).array)
    assert np.array_equal(ipermute(permute(t, a), a).array, t.array)
    assert np.array_equal(permute(ipermute(t, a), a).array, t.array)


# ---------------------------------------------------------------- grouping


def test_group_modes_shapes():
    t = rand_tensor((2, 3, 4), 8)
    assert group_modes(t, 1).shape == (2, 12)
    assert group_modes(t, 2).shape == (6, 4)
    m = rand_tensor((5, 7), 9)
    assert group_modes(m, 1).shape == (5, 7)
    assert np.array_equal(group_modes(m, 1), m.array)


def test_group_modes_is_zero_copy_offset_identity():
    t = rand_tensor((2, 3, 4), 10)
    view = group_modes(t, 2)
    assert np.shares_memory(view, t.array)
    for i0, i1, i2 in itertools.product(range(2), range(3), range(4)):
        assert view[i0 + 2 * i1, i2] == t.array[i0, i1, i2]


def test_group_modes_split_out_of_range():
    t = rand_tensor((2, 3), 11)
    for bad in (0, 2, 5):
        with pytest.raises(ShapeError):
            group_modes(t, bad)


# ---------------------------------------------------------------- matmul


def dot_per_entry(a, b):
    # Independent oracle: one explicit dot product per output entry.
    p, q = a.shape
    r = b.shape[1]
    out = np.zeros((p, r))
    for i in range(p):
        for j in range(r):
            s = 0.0
            for k in range(q):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def test_matmul_identity_and_scalar():
    a = np.random.default_rng(12).standard_normal((4, 3))
    assert np.array_equal(matmul_ref(np.eye(4), a), a)
    assert matmul_ref(np.array([[2.0]]), np.array([[3.0]]))[0, 0] == 6.0


def test_matmul_against_dot_oracle():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    assert np.max(np.abs(matmul_ref(a, b) - dot_per_entry(a, b))) < 1e-13


def test_matmul_shape_error_and_flop_count():
    with pytest.raises(ShapeError):
        matmul_ref(np.zeros((2, 3)), np.zeros((2, 3)))
    c = OpCounter()
    matmul_ref(np.zeros((3, 4)), np.zeros((4, 2)), c)
    assert c.flops == 2 * 3 * 4 * 2


def test_matmul_backend_is_pluggable():
    calls = []

    def noisy(a, b):
        calls.append(a.shape)
        return a @ b

    set_matmul_backend(noisy)
    try:
        t = rand_tensor((2, 3), 14)
        mode_multiply(t, 0, np.eye(2))
        assert calls
    finally:
        set_matmul_backend(None)


# ---------------------------------------------------------------- mode product


def contract_mode_oracle(t, k, b):
    # Brute-force nested-loop contraction, no permute/GEMM machinery.
    dims = list(t.dims)
    out_dims = dims[:k] + [b.shape[0]] + dims[k + 1 :]
    out = np.zeros(out_dims)
    for idx in itertools.product(*(range(d) for d in out_dims)):
        s = 0.0
        for ik in range(dims[k]):
            src = idx[:k] + (ik,) + idx[k + 1 :]
            s += t.array[src] * b[idx[k], ik]
        out[idx] = s
    return out


def test_mode_multiply_identity_matrix_is_identity_map():
    t = rand_tensor((3, 3, 3), 15)
    for k in range(3):
        out = mode_multiply(t, k, np.eye(3))
        assert np.array_equal(out.array, t.array)


def test_mode_multiply_m2_matches_matrix_sandwich():
    rng = np.random.default_rng(16)
    a = DenseTensor(rng.standard_normal((4, 4)))
    x = rng.standard_normal((3, 4))
    got = mode_multiply(mode_multiply(a, 1, x), 0, x)
    want = matmul_ref(matmul_ref(x, a.array), x.T)
    assert np.max(np.abs(got.array - want)) < 1e-12


def test_mode_multiply_against_triple_loop_oracle():
    rng = np.random.default_rng(17)
    t = DenseTensor(rng.standard_normal((2, 2, 2)))
    b = rng.standard_normal((3, 2))
    got = mode_multiply(t, 2, b)
    want = contract_mode_oracle(t, 2, b)
    assert np.max(np.abs(got.array - want)) / np.max(np.abs(want)) < 1e-13


@pytest.mark.parametrize(
    "dims", [(5, 4), (4, 3, 5), (3, 4, 2, 5), (4, 3, 2, 5, 6)]
)
def test_mode_multiply_oracle_sweep(dims):
    rng = np.random.default_rng(len(dims))
    t = DenseTensor(rng.standard_normal(dims))
    for k in range(len(dims)):
        b = rng.standard_normal((3, dims[k]))
        got = mode_multiply(t, k, b)
        want = contract_mode_oracle(t, k, b)
        assert got.dims == want.shape
        assert np.max(np.abs(got.array - want)) / np.max(np.abs(want)) < 1e-13


def test_mode_multiply_errors():
    t = rand_tensor((2, 3), 18)
    with pytest.raises(ModeError):
        mode_multiply(t, 2, np.eye(2))
    with pytest.raises(ShapeError):
        mode_multiply(t, 0, np.zeros((2, 5)))


def test_mode_multiply_counts():
    # (J x I_k) against (2, 3, 4): permute in, gemm, permute out.
    t = rand_tensor((2, 3, 4), 19)
    c = OpCounter()
    mode_multiply(t, 1, np.zeros((5, 3)), c)
    assert c.flops == 2 * 5 * 3 * 8
    assert c.memops == 2 * 24 + 2 * 40
