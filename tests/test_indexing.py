import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym import (
    BcssTensor,
    BlockDivisibilityError,
    ParameterError,
    PartialSymTensor,
    ShapeError,
    SymmetryError,
    approx_costs,
    bcss_costs,
    bcss_impl_memops,
    canonicalize,
    compress,
    decompress,
    hypertriangle_iter,
    is_sym_in_modes,
    random_matrix,
    random_symmetric,
    savings_table,
    simplex_count,
    sttsm_bcss,
    symmetry_violation,
)
from blocksym.dense import DenseTensor
from blocksym.generate import random_bcss
from blocksym.indexing import block_grid, replicate_canonical, sort_within


# ------------------------------------------------------------ canonicalize


def _reorder(canonical, axes):
    # Block index of np.transpose(block stored at canonical, axes).
    return tuple(canonical[j] for j in axes)


def test_canonicalize_constant_index():
    assert canonicalize((1, 1, 1)) == ((1, 1, 1), (0, 1, 2))


def test_canonicalize_sorts_and_reproduces():
    canonical, axes = canonicalize((2, 0, 1))
    assert canonical == (0, 1, 2)
    assert _reorder(canonical, axes) == (2, 0, 1)


def test_canonicalize_full_grid_dedup():
    canonicals = {canonicalize(idx)[0] for idx in itertools.product(range(3), repeat=3)}
    assert len(canonicals) == 10
    assert canonicals == set(hypertriangle_iter(3, 3))


def test_canonicalize_reproduces_every_index():
    for idx in itertools.product(range(3), repeat=4):
        canonical, axes = canonicalize(idx)
        assert canonical == tuple(sorted(idx))
        assert _reorder(canonical, axes) == idx


def test_canonicalize_idempotent_and_deterministic():
    canonical, _ = canonicalize((1, 0, 1, 2))
    assert canonicalize(canonical) == (canonical, (0, 1, 2, 3))
    # Repeated values: smallest order wins, so results are reproducible.
    assert canonicalize((1, 1, 0)) == canonicalize((1, 1, 0)) == ((0, 1, 1), (1, 2, 0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_canonicalize_property(values):
    idx = tuple(values)
    canonical, axes = canonicalize(idx)
    m = len(idx)
    assert canonical == tuple(sorted(idx))
    assert _reorder(canonical, axes) == idx
    assert sorted(axes) == list(range(m))
    assert canonicalize(canonical) == (canonical, tuple(range(m)))
    # Of all orders that reproduce idx, the lexicographically smallest.
    valid = [
        perm for perm in itertools.permutations(range(m)) if _reorder(canonical, perm) == idx
    ]
    assert axes == min(valid)


def test_meta_orbits_cover_full_grid():
    # Orbit sizes summed over canonical representatives tile the grid.
    for extent, m in [(2, 3), (3, 2), (3, 4)]:
        orbits = {}
        for idx in itertools.product(range(extent), repeat=m):
            orbits.setdefault(canonicalize(idx)[0], 0)
            orbits[canonicalize(idx)[0]] += 1
        assert sum(orbits.values()) == extent**m
        assert len(orbits) == simplex_count(extent, m)


# ------------------------------------------------------------ hypertriangle


def test_hypertriangle_small_cases():
    assert list(hypertriangle_iter(2, 2)) == [(0, 0), (0, 1), (1, 1)]
    assert len(list(hypertriangle_iter(3, 3))) == 10
    assert list(hypertriangle_iter(1, 5)) == [(0, 0, 0, 0, 0)]


def test_hypertriangle_matches_brute_force_filter():
    got = list(hypertriangle_iter(3, 3))
    want = [t for t in itertools.product(range(3), repeat=3) if list(t) == sorted(t)]
    assert got == sorted(want)


@pytest.mark.parametrize("extent", range(1, 9))
@pytest.mark.parametrize("m", range(1, 7))
def test_hypertriangle_lex_increasing_with_exact_count(extent, m):
    seq = list(hypertriangle_iter(extent, m))
    assert len(seq) == simplex_count(extent, m)
    assert all(a < b for a, b in zip(seq, seq[1:]))
    assert all(tuple(sorted(t)) == t for t in seq)


def test_hypertriangle_validates():
    with pytest.raises(ParameterError):
        list(hypertriangle_iter(0, 2))
    # 2.5 used to raise a bare TypeError.
    with pytest.raises(ParameterError, match="requires integers"):
        hypertriangle_iter(2.5, 2)


# ------------------------------------------------------------ simplex count


def test_simplex_count_values():
    assert simplex_count(512, 2) == 512 * 513 // 2 == 131328
    assert simplex_count(4, 3) == 20
    assert simplex_count(1, 7) == 1


def test_simplex_count_brute_force():
    assert simplex_count(4, 3) == sum(
        1 for t in itertools.product(range(4), repeat=3) if list(t) == sorted(t)
    )


def test_simplex_count_validates():
    with pytest.raises(ParameterError):
        simplex_count(0, 3)
    with pytest.raises(ParameterError):
        simplex_count(3, 0)
    # 2.5 used to raise a bare TypeError.
    with pytest.raises(ParameterError, match="requires integers"):
        simplex_count(2.5, 2)


# ------------------------------------------------------------ symmetry test


def test_symmetrized_tensor_is_symmetric():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((4, 4, 4))
    t = DenseTensor(sum(np.transpose(raw, p) for p in itertools.permutations(range(3))) / 6)
    assert is_sym_in_modes(t, {0, 1, 2}, 0.0) or symmetry_violation(t, {0, 1, 2})[0] < 1e-15


def test_random_tensor_is_not_symmetric():
    rng = np.random.default_rng(1)
    t = DenseTensor(rng.standard_normal((4, 4, 4)))
    assert not is_sym_in_modes(t, {0, 1}, 1e-6)
    rel, idx, jdx = symmetry_violation(t, {0, 1})
    assert rel > 1e-3
    # The reported pair really is a transposition within the checked modes.
    assert t.array[idx] != t.array[jdx]
    assert tuple(sorted(idx)) == tuple(sorted(jdx))


def test_singleton_mode_set_is_trivially_symmetric():
    rng = np.random.default_rng(2)
    t = DenseTensor(rng.standard_normal((3, 5)))
    assert is_sym_in_modes(t, {1}, 0.0)
    assert is_sym_in_modes(t, set(), 0.0)


def test_symmetry_check_on_nonadjacent_mode_set():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((4, 3, 4))
    sym = 0.5 * (base + np.swapaxes(base, 0, 2))
    assert is_sym_in_modes(DenseTensor(sym), {0, 2}, 0.0)
    assert not is_sym_in_modes(DenseTensor(base), {0, 2}, 1e-9)


def test_symmetry_check_shape_error():
    rng = np.random.default_rng(4)
    t = DenseTensor(rng.standard_normal((3, 5)))
    with pytest.raises(ShapeError):
        is_sym_in_modes(t, {0, 1}, 0.0)
    # Another kind of tensor used to raise a bare AttributeError.
    for wrong in (BcssTensor(2, 4, 2), np.eye(4)):
        with pytest.raises(ShapeError, match="needs a dense tensor"):
            symmetry_violation(wrong, {0, 1})
        with pytest.raises(ShapeError, match="needs a dense tensor"):
            is_sym_in_modes(wrong, {0, 1})


@pytest.mark.parametrize("tol", [np.nan, -1.0, "a", None, True, 1j])
def test_is_sym_in_modes_rejects_a_nan_or_negative_tol(tol):
    # As compress rules: NaN and -1 used to return False, True was taken
    # as 1, and "a" raised a bare TypeError.
    with pytest.raises(ParameterError, match="tol"):
        is_sym_in_modes(DenseTensor(np.eye(3)), {0, 1}, tol)


# [0.5, 1] and ["a"] used to raise a bare TypeError.
@pytest.mark.parametrize("modes", [{0, 2}, {-1, 0}, [0.5, 1], ["a"], [True, 0]])
def test_symmetry_violation_mode_out_of_range(modes):
    with pytest.raises(ShapeError, match="out of range for order 2"):
        symmetry_violation(DenseTensor(np.eye(3)), modes)
    with pytest.raises(ShapeError, match="out of range for order 2"):
        is_sym_in_modes(DenseTensor(np.eye(3)), modes)


@pytest.mark.parametrize("modes", [0, 1.5, None])
def test_symmetry_violation_modes_not_a_collection(modes):
    # 0 used to raise a bare TypeError ("'int' object is not iterable").
    with pytest.raises(ShapeError, match="not a collection of modes"):
        symmetry_violation(DenseTensor(np.eye(3)), modes)
    with pytest.raises(ShapeError, match="not a collection of modes"):
        is_sym_in_modes(DenseTensor(np.eye(3)), modes)


def _mismatch(x: float, y: float) -> float:
    """Relative mismatch of two entries: equal ones (zeros of either sign,
    equal infinities, NaN facing NaN) match, and a NaN facing a number or an
    infinity facing any other value is a full mismatch."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def full_symmetry_violation(t: DenseTensor, modes):
    """Reference: the first worst entry, in C order, of every adjacent pair,
    one entry at a time."""
    modes = sorted(set(modes))
    worst = (0.0, (0,) * t.order, (0,) * t.order)
    for a, b in zip(modes, modes[1:]):
        for idx in np.ndindex(*t.dims):
            jdx = list(idx)
            jdx[a], jdx[b] = jdx[b], jdx[a]
            val = _mismatch(float(t.array[idx]), float(t.array[tuple(jdx)]))
            if val > worst[0]:
                worst = (val, idx, tuple(jdx))
    return worst


def _sym_in_01(shape, seed):
    """Random tensor symmetric in modes 0 and 1 only."""
    base = np.random.default_rng(seed).standard_normal(shape)
    return 0.5 * (base + np.swapaxes(base, 0, 1))


def _same_report(t, modes):
    got = symmetry_violation(t, modes)
    assert got == full_symmetry_violation(t, modes)
    return got


@pytest.mark.parametrize("modes", [{0, 1}, {0, 1, 2}, {1, 2}, {0, 2}, {0, 1, 2, 3}])
def test_symmetry_violation_matches_full_report_on_partial_symmetry(modes):
    t = DenseTensor(_sym_in_01((3, 3, 3, 3), 21))
    rel, _, _ = _same_report(t, modes)
    assert (rel == 0.0) == (modes == {0, 1})


@pytest.mark.parametrize("modes", [{0, 1}, {0, 1, 2}, {1, 2}])
def test_symmetry_violation_matches_full_report_with_signed_zeros(modes):
    arr = _sym_in_01((3, 3, 3), 22)
    # Zeros of opposite sign at (0, 1)-swapped positions: still symmetric there.
    arr[0, 1, 2], arr[1, 0, 2] = 0.0, -0.0
    arr[2, 0, 2], arr[0, 2, 2] = 0.0, -0.0
    arr[2, 2, 0] = -0.0
    rel, _, _ = _same_report(DenseTensor(arr), modes)
    assert (rel == 0.0) == (modes == {0, 1})


def test_symmetry_violation_reports_one_ulp_asymmetry():
    arr = _sym_in_01((3, 3, 3), 24)
    arr[0, 1, 2] = np.nextafter(arr[0, 1, 2], np.inf)
    rel, idx, jdx = _same_report(DenseTensor(arr), {0, 1})
    assert 0.0 < rel < 1e-15
    assert {idx, jdx} == {(0, 1, 2), (1, 0, 2)}


@pytest.mark.parametrize("modes", [{0, 1}, {0, 1, 2}, {1, 2}])
@pytest.mark.parametrize("where", [[(0, 1, 2), (1, 0, 2)], [(2, 2, 2)], [(0, 1, 1)]])
def test_symmetry_violation_matches_full_report_with_nan(modes, where):
    arr = _sym_in_01((3, 3, 3), 23)
    for idx in where:
        arr[idx] = np.nan
    _same_report(DenseTensor(arr), modes)


@pytest.mark.parametrize("modes", [{0, 1}, {0, 1, 2}, {1, 2}])
@pytest.mark.parametrize("pair", [(np.inf, np.inf), (np.inf, -np.inf), (np.inf, 1.0)])
def test_symmetry_violation_matches_full_report_with_inf(modes, pair):
    arr = _sym_in_01((3, 3, 3), 25)
    arr[0, 1, 2], arr[1, 0, 2] = pair
    rel, _, _ = _same_report(DenseTensor(arr), modes)
    assert rel == (0.0 if pair == (np.inf, np.inf) and modes == {0, 1} else np.inf)


def test_nan_facing_a_number_is_a_full_mismatch():
    # The NaN used to count as no mismatch, so compress accepted this matrix
    # and decompress returned NaN at (2, 0), where it holds 1.0.
    arr = np.ones((4, 4))
    arr[0, 2] = np.nan
    t = DenseTensor(arr)
    assert symmetry_violation(t, {0, 1}) == (np.inf, (0, 2), (2, 0))
    assert not is_sym_in_modes(t, {0, 1}, 1e9)
    with pytest.raises(SymmetryError, match=r"asymmetry inf .* \(0, 2\) and \(2, 0\)"):
        compress(t, 2)
    arr[2, 0] = np.nan
    assert is_sym_in_modes(DenseTensor(arr), {0, 1})
    back = decompress(compress(DenseTensor(arr), 2)).array
    assert np.array_equal(back, arr, equal_nan=True)


# ------------------------------------------------------------ replication


@pytest.mark.parametrize("m,n", [(1, 4), (2, 1), (2, 5), (3, 4), (4, 3), (5, 3)])
def test_replicate_canonical_places_each_value_on_its_orbit(m, n):
    values = np.arange(1.0, 1.0 + simplex_count(n, m))
    out = replicate_canonical(values, n, m)
    assert out.shape == (n,) * m and out.flags.f_contiguous
    rank = {idx: r for r, idx in enumerate(hypertriangle_iter(n, m))}
    for idx in itertools.product(range(n), repeat=m):
        assert out[idx] == values[rank[tuple(sorted(idx))]]


def test_sort_within_copies_each_entry_from_its_run_sorted_entry():
    # Runs of modes 0-1, 2-4 and 5 (a single mode, left alone), as in a
    # diagonal block whose index is (i, i, j, j, j, k).
    rng = np.random.default_rng(29)
    orig = rng.standard_normal((3, 3, 2, 2, 2, 4))
    arr = orig.copy()
    sort_within(arr, 0, 2)
    sort_within(arr, 2, 3)
    sort_within(arr, 5, 1)
    for idx in np.ndindex(arr.shape):
        src = tuple(sorted(idx[0:2])) + tuple(sorted(idx[2:5])) + idx[5:]
        assert arr[idx] == orig[src], idx


def test_sort_within_on_a_strided_view_matches_a_contiguous_copy():
    # 384,000 entries, more than one slab: the swap of modes (1, 2) cuts
    # mode 0 into slabs, that of (2, 3) cuts mode 1 under each index of
    # mode 0, with a shorter last slab.  The view is neither C- nor
    # F-contiguous, and the entries the view skips stay as they were.
    rng = np.random.default_rng(31)
    base = rng.standard_normal((3, 4, 40, 40, 40))
    orig = base.copy()
    view = base.transpose(1, 2, 3, 4, 0)[::2]
    assert view.shape == (2, 40, 40, 40, 3)
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    copy = np.ascontiguousarray(view)
    ref = copy.copy()
    sort_within(view, 1, 3)
    sort_within(copy, 1, 3)
    assert np.array_equal(view, copy)
    coords = np.indices(ref.shape)
    coords[1:4] = np.sort(coords[1:4], axis=0)
    assert np.array_equal(copy, ref[tuple(coords)])
    assert np.array_equal(base[:, 1::2], orig[:, 1::2])


@pytest.mark.parametrize(
    "shape,start,g",
    [
        ((2, 3), 0, 2),  # unequal extents
        ((3, 3, 4), 1, 2),
        ((3, 3), -1, 2),
        ((3, 3), -1, 1),
        ((3, 3), 1, 2),  # past the last mode
        ((3, 3), 2, 1),
        ((3, 3), 0, 0),
        ((3, 3), 0.0, 2),
        ((3, 3), 0, 2.0),
        ((3, 3), True, 1),
        ((3, 3), 0, "2"),
    ],
)
def test_sort_within_rejects_what_is_not_a_run_of_equal_modes(shape, start, g):
    arr = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
    with pytest.raises(ShapeError):
        sort_within(arr, start, g)
    assert np.array_equal(arr, np.arange(arr.size).reshape(shape))


def test_sort_within_of_one_mode_copies_nothing():
    arr = np.arange(12.0).reshape(3, 4)
    for start in (0, 1, np.int64(1)):
        sort_within(arr, start, 1)
    assert np.array_equal(arr, np.arange(12.0).reshape(3, 4))


def test_replicate_canonical_rejects_the_wrong_number_of_values():
    # C(3, 2) = 3 values for order 2 and dimension 2.
    for values in (np.arange(4.0), np.arange(2.0), np.arange(3.0).reshape(3, 1), 1.0):
        with pytest.raises(ShapeError, match="3 canonical values"):
            replicate_canonical(values, 2, 2)
    # Ragged values used to raise NumPy's bare ValueError.
    with pytest.raises(ShapeError, match="ragged"):
        replicate_canonical([1.0, [2.0, 3.0], 4.0], 2, 2)


@pytest.mark.parametrize("n,m", [(2, 0), (0, 2), (2, -1), (2, 1.0), (2.0, 2), (2, True)])
def test_replicate_canonical_rejects_a_bad_order_or_dimension(n, m):
    with pytest.raises(ParameterError, match="n >= 1 and m >= 1"):
        replicate_canonical(np.ones(1), n, m)


# ------------------------------------------------------------ block_grid


def test_block_grid_is_the_grid_extent():
    assert block_grid(12, 3) == 4
    assert block_grid(5, 5) == 1
    assert block_grid(7, 1) == 7
    assert block_grid(np.int64(12), np.int64(3)) == 4


def test_block_grid_rejects_a_dimension_that_is_not_an_integer():
    with pytest.raises(ShapeError, match="dimension must be an integer"):
        block_grid(4.0, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: block_grid(0, 1),
        lambda: block_grid(-4, 2),
        lambda: BcssTensor(3, 0, 1),
        lambda: PartialSymTensor(2, 0, 1, ()),
        lambda: compress(DenseTensor(np.empty((0, 0, 0))), 1),
    ],
    ids=["block_grid(0)", "block_grid(-4)", "BcssTensor", "PartialSymTensor", "compress"],
)
def test_block_grid_rejects_a_dimension_below_1(call):
    # Each used to raise a ParameterError naming hypertriangle_iter, which
    # the caller never called.
    with pytest.raises(ShapeError, match="dimension must be an integer of at least 1"):
        call()


def _sym(m, n):
    return random_symmetric(m, n, 30)


# Every public entry point that takes a block dimension, given one for n = 4.
BLOCK_DIM_CALLS = {
    "compress": lambda b: compress(_sym(2, 4), b),
    "BcssTensor": lambda b: BcssTensor(2, 4, b),
    "PartialSymTensor": lambda b: PartialSymTensor(2, 4, b, (3,)),
    "random_bcss": lambda b: random_bcss(2, 4, b, 0),
    "sttsm_bcss(b_c)": lambda b: sttsm_bcss(compress(_sym(2, 4), 2), random_matrix(4, 4, 1), b),
    "bcss_costs(b_a)": lambda b: bcss_costs(2, 4, 4, b, 2),
    "bcss_costs(b_c)": lambda b: bcss_costs(2, 4, 4, 2, b),
    "bcss_impl_memops(b_a)": lambda b: bcss_impl_memops(2, 4, 4, b, 2),
    "bcss_impl_memops(b_c)": lambda b: bcss_impl_memops(2, 4, 4, 2, b),
    "approx_costs": lambda b: approx_costs(2, 4, b),
    "savings_table": lambda b: savings_table(2, 4, b),
}


# 2.0 used to raise a bare TypeError or AttributeError deep inside.
@pytest.mark.parametrize("b", [0, -2, 3, 2.0])
@pytest.mark.parametrize("call", BLOCK_DIM_CALLS.values(), ids=BLOCK_DIM_CALLS.keys())
def test_bad_block_dim_raises_block_divisibility_error(call, b):
    with pytest.raises(BlockDivisibilityError) as exc:
        call(b)
    assert isinstance(exc.value, ParameterError)
