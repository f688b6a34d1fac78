import copy
import itertools
import math
import os
import pickle
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocksym import (
    BcssTensor,
    DenseTensor,
    ModeError,
    ParameterError,
    ShapeError,
    ipermute,
    matmul_ref,
    mode_multiply,
    permute,
    set_matmul_backend,
)
from blocksym import dense, split
from blocksym.counters import OpCounter


def rand_tensor(dims, seed):
    rng = np.random.default_rng(seed)
    return DenseTensor(rng.standard_normal(dims))


# ---------------------------------------------------------------- layout


def test_linear_offset_matches_brute_force_enumeration():
    # Independent oracle for the dimensional (mode-0-fastest) order of
    # DenseTensor.data: enumerate the index box with mode 0 fastest; the k-th
    # tuple enumerated must sit at flat offset k, and the map is a bijection
    # onto 0..23. Each entry holds a distinct label naming its own index.
    dims = (2, 3, 4)
    labels = np.empty(dims)
    for idx in itertools.product(range(2), range(3), range(4)):
        labels[idx] = 100 * idx[0] + 10 * idx[1] + idx[2]
    flat = DenseTensor(labels).data
    seen = set()
    expected = 0
    for i2 in range(4):
        for i1 in range(3):
            for i0 in range(2):
                assert flat[expected] == 100 * i0 + 10 * i1 + i2
                seen.add(float(flat[expected]))
                expected += 1
    assert seen == {float(v) for v in labels.ravel()}
    assert len(seen) == 24 == flat.size
    assert flat[23] == 123


def test_dense_tensor_flat_layout_round_trip():
    t = rand_tensor((2, 3, 4), 0)
    flat = t.data
    for k, (i2, i1, i0) in enumerate(itertools.product(range(4), range(3), range(2))):
        assert flat[k] == t.array[i0, i1, i2]
    again = DenseTensor(flat.reshape(t.dims, order="F"))
    assert np.array_equal(again.array, t.array)


def test_dense_tensor_repr_names_its_dims():
    assert repr(DenseTensor(np.zeros((2, 3, 4)))) == "DenseTensor(dims=(2, 3, 4))"


# ---------------------------------------------------------------- permute


def test_permute_identity_is_bitwise_copy():
    t = rand_tensor((3, 2, 4), 1)
    out = permute(t, (0, 1, 2))
    assert np.array_equal(out.array, t.array)
    assert out.array is not t.array


def test_permute_matrix_transpose():
    t = rand_tensor((2, 3), 2)
    out = permute(t, (1, 0))
    assert out.dims == (3, 2)
    assert np.array_equal(out.array, t.array.T)


def test_permute_against_elementwise_remap_oracle():
    t = rand_tensor((2, 3, 4), 3)
    p = (2, 0, 1)
    out = permute(t, p)
    assert out.dims == (4, 2, 3)
    for idx in itertools.product(range(2), range(3), range(4)):
        assert out.array[tuple(idx[j] for j in p)] == t.array[idx]


def test_permute_length_mismatch():
    with pytest.raises(ShapeError):
        permute(rand_tensor((2, 2), 4), (0, 1, 2))


@pytest.mark.parametrize("fn", [permute, ipermute])
@pytest.mark.parametrize(
    "axes", [(0, 0), (0, 2), (-1, 0), (1,), (0, 1, 2), (), (1.0, 0), (True, 0)]
)
def test_permute_and_ipermute_reject_bad_axes(fn, axes):
    # ShapeError, never NumPy's ValueError or AxisError.  ipermute checks
    # its own argument: an invalid order can invert to a valid one.
    # (1.0, 0) and (True, 0) used to raise a bare TypeError from permute
    # and be taken by ipermute.
    with pytest.raises(ShapeError, match="do not order"):
        fn(rand_tensor((2, 3), 4), axes)


# Each call that takes a dense tensor, given another kind of operand.
_TAKE_DENSE = {
    "permute": lambda t: permute(t, (1, 0)),
    "ipermute": lambda t: ipermute(t, (1, 0)),
    "mode_multiply": lambda t: mode_multiply(t, 0, np.eye(4)),
}


@pytest.mark.parametrize("t", [BcssTensor(2, 4, 2), np.eye(4)], ids=["BcssTensor", "ndarray"])
@pytest.mark.parametrize("call", _TAKE_DENSE.values(), ids=_TAKE_DENSE.keys())
def test_calls_on_dense_tensors_reject_another_kind(call, t):
    # Each used to raise a bare AttributeError.
    with pytest.raises(ShapeError, match="needs a dense tensor"):
        call(t)


@pytest.mark.parametrize(
    "value", [3.0, np.float64(3.0), np.array(3.0), 7], ids=["float", "float64", "0-d", "int"]
)
def test_dense_tensor_of_a_scalar_is_rejected(value):
    # A 0-d value used to become an order-1 tensor of dims (1,).
    with pytest.raises(ShapeError, match="at least one mode"):
        DenseTensor(value)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_permute_ipermute_round_trip_bitwise(order):
    rng = np.random.default_rng(order)
    dims = tuple(rng.integers(1, 4, size=order).tolist())
    t = rand_tensor(dims, order + 10)
    for _ in range(4):
        p = tuple(rng.permutation(order).tolist())
        assert np.array_equal(ipermute(permute(t, p), p).array, t.array)


def test_ipermute_equals_permute_by_inverse():
    t = rand_tensor((3, 3, 3), 5)
    assert np.array_equal(ipermute(t, (1, 2, 0)).array, permute(t, (2, 0, 1)).array)


def test_permute_counts_two_memops_per_element():
    t = rand_tensor((3, 4), 7)
    c = OpCounter()
    permute(t, (1, 0), c)
    assert c.memops == 2 * 12
    assert c.flops == 0


def _assert_permute_matches_numpy(t, p):
    c = OpCounter()
    out = permute(t, p, c)
    want = np.transpose(t.array, p).copy(order="F")
    assert out.dims == want.shape == tuple(t.dims[j] for j in p)
    assert out.array.tobytes(order="A") == want.tobytes(order="A")  # bitwise, -0.0 too
    assert out.array.flags.f_contiguous
    assert not np.shares_memory(out.array, t.array)
    assert (c.memops, c.flops) == (2 * t.array.size, 0)


@st.composite
def _tensor_and_permutation(draw):
    m = draw(st.integers(1, 6))
    dims = tuple(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m)))
    perm = tuple(draw(st.permutations(range(m))))
    return dims, perm, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(_tensor_and_permutation())
@example(((3, 1, 4, 1, 5), (4, 1, 0, 3, 2), 0))
@example(((8, 1, 8), (2, 1, 0), 1))
@example(((1, 1, 1), (2, 0, 1), 2))
@example(((0, 3, 4), (1, 0, 2), 3))
@example(((5, 4, 0), (2, 0, 1), 4))
def test_permute_matches_numpy_property(case):
    dims, p, seed = case
    _assert_permute_matches_numpy(rand_tensor(dims, seed), p)


# Tensors past this many elements span many cache lines per output line.
_LARGE = 1 << 15


@st.composite
def _larger_than_slab(draw):
    # Every dim but one is small; the long one puts the size past _LARGE.
    m = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    long = draw(st.integers(0, m - 1))
    others = math.prod(dims) // dims[long]
    dims[long] = _LARGE // others + 1 + draw(st.integers(0, 50))
    perm = tuple(draw(st.permutations(range(m))))
    return tuple(dims), perm, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(_larger_than_slab())
@example(((4, 3, 2**14), (2, 0, 1), 0))
@example(((2**14, 3, 4), (1, 2, 0), 1))
def test_permute_larger_than_one_slab_matches_numpy(case):
    dims, p, seed = case
    t = rand_tensor(dims, seed)
    assert t.array.size > _LARGE
    _assert_permute_matches_numpy(t, p)


@pytest.mark.parametrize("m,n", [(4, 16), (5, 9), (3, 40)])
def test_mode_product_permutes_round_trip_past_one_slab(m, n):
    # The front permutation of a mode product and its inverse, on tensors
    # past _LARGE elements.
    t = rand_tensor((n,) * m, m + n)
    assert t.array.size > _LARGE
    for k in range(m):
        front = (k, *range(k), *range(k + 1, m))
        moved = permute(t, front)
        assert np.array_equal(moved.array, np.moveaxis(t.array, k, 0))
        assert np.array_equal(ipermute(moved, front).array, t.array)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_mode_product_permutes_merge_to_batched_transpose(m):
    # Whatever m and k, a mode product's front permutation is the batched
    # transpose (lead, n, trail) -> (n, lead, trail) of the input, which the
    # GEMM reads as its (w x n) operand, and its inverse the reverse: with
    # the identity matrix the output is the input, bitwise.  The operand's
    # values are compared, not its layout: it is F-ordered (lead fastest)
    # where the chunk's lead width is at least n, else C-ordered.  A
    # lead-wide chunk's GEMM takes it transposed, as its (n x w) right
    # operand, after the matrix.
    n = 3
    eye = np.eye(n)
    t = rand_tensor((n,) * m, m)
    for k in range(m):
        lead, trail = n**k, n ** (m - 1 - k)
        seen = []

        def capture(a, b):
            seen.append(b.T.copy() if np.array_equal(a, eye) else a.copy())
            return a @ b

        set_matmul_backend(capture)
        try:
            out = mode_multiply(t, k, eye)
        finally:
            set_matmul_backend(None)
        moved = np.transpose(t.array.reshape((lead, n, trail), order="F"), (1, 0, 2))
        assert len(seen) == 1  # at most 3^6 elements: one chunk
        assert np.array_equal(seen[0], moved.reshape((n, lead * trail), order="F").T)
        assert np.array_equal(out.array, t.array)


@st.composite
def _permutations(draw, count):
    m = draw(st.integers(1, 6))
    return [tuple(draw(st.permutations(range(m)))) for _ in range(count)]


@settings(max_examples=100, deadline=None)
@given(_permutations(2), st.integers(0, 2**16))
def test_permute_of_composition_and_ipermute_property(perms, seed):
    a, b = perms
    m = len(a)
    # Distinct dims, so a permutation applied the wrong way round changes
    # the shape and cannot pass by accident.
    dims = tuple(range(2, 2 + m))
    t = rand_tensor(dims, seed)
    a_then_b = tuple(a[j] for j in b)
    assert np.array_equal(permute(t, a_then_b).array, permute(permute(t, a), b).array)
    assert np.array_equal(ipermute(permute(t, a), a).array, t.array)
    assert np.array_equal(permute(ipermute(t, a), a).array, t.array)


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
    for a, b in [(np.zeros(3), np.zeros((3, 2))), (np.zeros((2, 3)), np.zeros((3, 2, 1)))]:
        with pytest.raises(ShapeError, match="must be matrices"):
            matmul_ref(a, b)
    c = OpCounter()
    matmul_ref(np.zeros((3, 4)), np.zeros((4, 2)), c)
    assert c.flops == 2 * 3 * 4 * 2


def test_real_values_still_convert_to_float64():
    # Bools and integers convert as they did before the real-operand rule.
    x = np.ones((2, 2))
    assert dense.real_array(x) is x
    assert dense.real_array([[True, 2]]).dtype == np.float64
    assert DenseTensor(np.arange(4).reshape(2, 2)).array.tolist() == [[0.0, 1.0], [2.0, 3.0]]
    got = matmul_ref(np.eye(2, dtype=int), np.ones((2, 1), dtype=bool))
    assert got.dtype == np.float64 and got.tolist() == [[1.0], [1.0]]


@pytest.mark.parametrize(
    "v,want",
    [(3, True), (np.int64(3), True), (np.uint8(0), True), (-1, True), (True, False),
     (np.bool_(True), False), (3.0, False), (np.float64(3), False), ("3", False), (None, False)],
)
def test_is_integer_is_an_int_or_numpy_integer_but_not_a_bool(v, want):
    assert dense.is_integer(v) is want


@pytest.mark.parametrize(
    "v,want",
    [(3, True), (-0.5, True), (np.float32(2), True), (np.uint8(0), True),
     (Fraction(1, 8), True), (np.nan, True), (True, False), (np.bool_(True), False),
     (1j, False), ("3", False), (None, False), (np.ones(1), False)],
)
def test_is_real_is_a_real_number_but_not_a_bool(v, want):
    assert dense.is_real(v) is want


def test_counter_rejects_negative_increments():
    c = OpCounter()
    # The package's own error, a ValueError.
    with pytest.raises(ParameterError, match="flop increment"):
        c.count_flops(-1)
    with pytest.raises(ParameterError, match="memop increment"):
        c.count_memops(-1)
    assert (c.flops, c.memops) == (0, 0)


@pytest.mark.parametrize(
    "n", [2.5, np.float64(1), Fraction(1), "a", None, True],
    ids=["2.5", "float64", "Fraction", "str", "None", "True"],
)
def test_counter_rejects_increments_that_are_not_integers(n):
    # 2.5 and np.float64(1) used to turn the tally into a float, which
    # still compares equal to an integral model, and "a" raised a bare
    # TypeError.
    c = OpCounter()
    with pytest.raises(ParameterError, match="flop increment must be a non-negative integer"):
        c.count_flops(n)
    with pytest.raises(ParameterError, match="memop increment must be a non-negative integer"):
        c.count_memops(n)
    assert (c.flops, c.memops) == (0, 0)
    assert type(c.flops) is int and type(c.memops) is int


@pytest.mark.parametrize("field", ["flops", "memops", "threads"])
@pytest.mark.parametrize("value", [2.5, -1, True, "0"], ids=["2.5", "-1", "True", "str"])
def test_counter_rejects_fields_that_are_not_non_negative_integers(field, value):
    with pytest.raises(ParameterError, match=f"{field} must be a non-negative integer"):
        OpCounter(**{field: value})


def test_counter_takes_integer_fields_and_increments():
    c = OpCounter(flops=3, memops=np.int64(4), threads=1)
    c.count_flops(np.int32(2))
    c.count_memops(0)
    assert (c.flops, c.memops, c.threads) == (5, 4, 1)


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
    # 1.0 and "0" used to raise a bare TypeError, and True was mode 1.
    for k in (2, -1, 1.0, "0", True):
        with pytest.raises(ModeError):
            mode_multiply(t, k, np.eye(2))
    with pytest.raises(ShapeError):
        mode_multiply(t, 0, np.zeros((2, 5)))
    # Other kinds of operand used to raise a bare AttributeError.
    for wrong in (BcssTensor(2, 2, 1), t.array):
        with pytest.raises(ShapeError, match="needs a dense tensor"):
            mode_multiply(wrong, 0, np.eye(2))


def test_mode_multiply_in_place_rejects_a_product_of_other_dims():
    # J != I_k: the product does not fit over its input.
    t = rand_tensor((2, 3, 4), 22)
    before = t.array.tobytes(order="F")
    with pytest.raises(ShapeError, match="in place"):
        mode_multiply(t, 1, np.ones((5, 3)), in_place=True)
    assert t.array.tobytes(order="F") == before


@pytest.mark.parametrize("kind", ["read-only"])
def test_mode_multiply_in_place_rejects_an_array_it_cannot_write(kind):
    # A read-only array cannot take the product; ``kind`` keeps the case's id.
    rng = np.random.default_rng(23)
    arr, b = rng.standard_normal((2, 3, 3, 2)).copy(order="F"), rng.standard_normal((3, 3))
    want = mode_multiply(DenseTensor(arr.copy(order="F")), 1, b).array.tobytes(order="F")
    t = DenseTensor(arr)
    arr.setflags(write=False)
    before = t.array.tobytes(order="A")
    with pytest.raises(ShapeError, match="in place"):
        mode_multiply(t, 1, b, in_place=True)
    assert t.array.tobytes(order="A") == before
    # Into a new array, either input gives the product.
    assert mode_multiply(t, 1, b).array.tobytes(order="F") == want


def test_dense_tensor_array_cannot_be_reassigned():
    # The slot keeps the F-contiguous array the constructor built, which
    # is the layout every kernel views, in place or not.
    t = DenseTensor(np.arange(6.0).reshape(2, 3))
    built = t.array
    with pytest.raises(AttributeError):
        t.array = np.ascontiguousarray(built)
    assert t.array is built and built.flags.f_contiguous


@pytest.mark.parametrize("field", ["array", "order", "dims", "data"])
def test_dense_tensor_fields_are_set_once(field):
    t = DenseTensor(np.arange(6.0).reshape(2, 3))
    kept = getattr(t, field)
    with pytest.raises(AttributeError):
        setattr(t, field, kept)
    with pytest.raises(AttributeError, match=f"{field} cannot be deleted"):
        delattr(t, field)
    assert np.array_equal(getattr(t, field), kept)


@pytest.mark.parametrize(
    "how",
    [copy.deepcopy, copy.copy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["deepcopy", "copy", "pickle"],
)
def test_dense_tensor_copy_views_its_own_array(how):
    # data is derived, not state: a copy's data views the copy's array.
    t = DenseTensor(np.arange(24.0).reshape(2, 3, 4))
    clone = how(t)
    assert np.shares_memory(clone.data, clone.array)
    assert clone.array.flags.f_contiguous
    assert (clone.order, clone.dims) == (3, (2, 3, 4))
    assert np.array_equal(clone.data, t.data)


@pytest.mark.parametrize("view", [pytest.param(lambda a: a, id="<lambda>0")])
def test_mode_multiply_rejects_an_out_that_shares_memory_with_the_input(view):
    # The name and id are those of the test from when mode_multiply took an
    # out array; of its cases only the input's own array is left, which
    # in_place now names.  That array is a view into a larger buffer: each
    # chunk has its whole region in its buffer before it writes the product
    # back there, and the buffer past the view is left as it was.
    rng = np.random.default_rng(23)
    base = rng.standard_normal(36)
    t = DenseTensor(base[:27].reshape((3, 3, 3), order="F"))
    b = rng.standard_normal((3, 3))
    tail = base[27:].copy()
    want = mode_multiply(DenseTensor(t.array.copy(order="F")), 1, b)
    out = view(t.array)
    assert mode_multiply(t, 1, b, in_place=True).array is out
    assert out.tobytes(order="F") == want.array.tobytes(order="F")
    assert base[27:].tobytes() == tail.tobytes()


@st.composite
def _in_place_case(draw):
    """Dims of order 1..5, each 1..7, a mode of them and a seed."""
    dims = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=5)))
    return dims, draw(st.integers(0, len(dims) - 1)), draw(st.integers(0, 2**16))


@pytest.mark.parametrize("chunk,threads", [(1 << 16, 1), (50, 1), (50, 3)])
def test_mode_multiply_in_place_is_bitwise_out_of_place_property(cpus, monkeypatch, chunk, threads):
    # J == I_k: written over its own input, a product, its counts and its
    # threads equal those of the product into a new array, whether chunks
    # are one or many, taken by one thread or three.
    monkeypatch.setattr(dense, "_CHUNK", chunk)
    cpus(threads)
    used = set()

    @settings(max_examples=60, deadline=None)
    @given(_in_place_case())
    @example(((7, 6, 5, 4), 1, 0))
    def check(case):
        dims, k, seed = case
        rng = np.random.default_rng(seed)
        t = DenseTensor(rng.standard_normal(dims))
        b = rng.standard_normal((dims[k], dims[k]))
        c_want = OpCounter()
        want = mode_multiply(t, k, b, c_want)
        c = OpCounter()
        assert mode_multiply(t, k, b, c, in_place=True).array is t.array
        assert t.array.tobytes(order="F") == want.array.tobytes(order="F")
        assert (c.flops, c.memops, c.threads) == (c_want.flops, c_want.memops, c_want.threads)
        used.add(c.threads)

    check()
    assert max(used) == threads


def test_mode_multiply_counts():
    # (J x I_k) against (2, 3, 4): permute in, gemm, permute out.
    t = rand_tensor((2, 3, 4), 19)
    c = OpCounter()
    mode_multiply(t, 1, np.zeros((5, 3)), c)
    assert c.flops == 2 * 5 * 3 * 8
    assert c.memops == 2 * 24 + 2 * 40


def test_mode_multiply_empty_modes():
    # No chunk when lead or trail is empty; an empty contracted mode sums
    # nothing, so the product is zero.
    out = mode_multiply(DenseTensor(np.zeros((3, 0, 2))), 1, np.ones((4, 0)))
    assert out.dims == (3, 4, 2) and not out.array.any()
    c = OpCounter()
    out = mode_multiply(DenseTensor(np.zeros((0, 3))), 1, np.ones((2, 3)), c)
    assert out.dims == (0, 2) and (c.flops, c.memops) == (0, 0)


# ---------------------------------------------------------------- chunks and threads


def chunk_threads(dims, k, rows):
    """Threads mode_multiply shares the mode-k product of a dims tensor
    with a rows-row matrix among."""
    return dense._chunk_grid(math.prod(dims[:k]), dims[k], math.prod(dims[k + 1 :]), rows)[2]


def _product(t, k, b):
    c = OpCounter()
    out = mode_multiply(t, k, b, c)
    return out.array.tobytes(order="F"), c.flops, c.memops


@pytest.mark.parametrize("chunk", [7, 20, 50, 1 << 16])
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_mode_multiply_split_is_bitwise_serial(cpus, monkeypatch, chunk, rows):
    # Non-cubic dims, J != I_k, and chunk widths that mostly do not divide
    # lead or trail; 3 threads, each of which takes a chunk before any
    # GEMM returns, so all three run.
    monkeypatch.setattr(dense, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk + rows)
    ragged = False
    for dims, k in [(d, k) for d in [(4, 3, 2, 5, 6), (7, 3, 5, 2, 11)] for k in range(5)]:
        t = DenseTensor(rng.standard_normal(dims))
        b = rng.standard_normal((rows, dims[k]))
        lead, trail = math.prod(dims[:k]), math.prod(dims[k + 1 :])
        w_lead, w_trail, _ = dense._chunk_grid(lead, dims[k], trail, rows)
        ragged |= bool(lead % w_lead or trail % w_trail)
        cpus(1)
        assert chunk_threads(dims, k, rows) == 1
        serial = _product(t, k, b)
        want = contract_mode_oracle(t, k, b)
        got = np.frombuffer(serial[0]).reshape(want.shape, order="F")
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert serial[1:] == (2 * rows * t.array.size, 2 * (t.array.size + want.size))
        cpus(3)
        threads = chunk_threads(dims, k, rows)
        if threads == 1:
            assert -(-lead // w_lead) * -(-trail // w_trail) < 2
            continue
        met = threading.Barrier(threads, timeout=10)
        seen = set()

        def gemm(a, b):
            if threading.get_ident() not in seen:
                seen.add(threading.get_ident())
                met.wait()
            return a @ b

        set_matmul_backend(gemm)
        try:
            assert _product(t, k, b) == serial
        finally:
            set_matmul_backend(None)
        assert len(seen) == threads
    if chunk in (20, 50):
        assert ragged  # some chunk is narrower than the others


def test_mode_threads_rule(monkeypatch):
    # The real split constants, so not the cpus fixture.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    # Every mode of the benchmark's dense chain: 16 to 32 chunks of 2^16.
    assert [chunk_threads((32,) * 5, k, 32) for k in range(5)] == [2] * 5
    # One chunk, as in every mode product of sttsm_scalar_temps there.
    assert chunk_threads((16,) * 4, 3, 1) == 1
    assert chunk_threads((8,) * 4, 2, 8) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # taskset -c 0
    assert chunk_threads((32,) * 5, 0, 32) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    for var in split._BLAS_THREADS:
        monkeypatch.delenv(var, raising=False)
    assert chunk_threads((32,) * 5, 0, 32) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert chunk_threads((32,) * 5, 0, 32) == 1


def test_mode_multiply_serial_makes_no_executor(cpus, monkeypatch):
    monkeypatch.setattr(dense, "_CHUNK", 8)
    t = rand_tensor((5, 4, 3), 20)
    b = np.random.default_rng(21).standard_normal((2, 4))
    cpus(2)
    split_run = _product(t, 1, b)

    def no_pool(*args):
        raise AssertionError("executor made with one CPU")

    cpus(1)
    monkeypatch.setattr(split, "ThreadPoolExecutor", no_pool)
    assert _product(t, 1, b) == split_run


def test_mode_multiply_split_stress_many_threads(cpus, monkeypatch):
    # More threads than CPUs, switching every microsecond: a chunk taken
    # twice or never would change the output or the counts.
    monkeypatch.setattr(dense, "_CHUNK", 6)
    t = rand_tensor((5, 7, 6), 22)
    b = np.random.default_rng(23).standard_normal((4, 7))
    cpus(1)
    serial = _product(t, 1, b)
    cpus(8)
    assert chunk_threads(t.dims, 1, 4) == 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        split_run = _product(t, 1, b)
    finally:
        sys.setswitchinterval(interval)
    assert split_run == serial
    assert time.perf_counter() - t0 < 30
