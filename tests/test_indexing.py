import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym import (
    ParameterError,
    ShapeError,
    canonicalize,
    hypertriangle_iter,
    is_sym_in_modes,
    simplex_count,
    symmetry_violation,
)
from blocksym.dense import DenseTensor, Permutation
from blocksym.indexing import replicate_canonical


# ------------------------------------------------------------ canonicalize


def test_canonicalize_constant_index():
    ref = canonicalize((1, 1, 1))
    assert ref.canonical == (1, 1, 1)
    assert ref.applied.is_identity()


def test_canonicalize_sorts_and_reproduces():
    ref = canonicalize((2, 0, 1))
    assert ref.canonical == (0, 1, 2)
    assert ref.applied.apply(ref.canonical) == (2, 0, 1)


def test_canonicalize_full_grid_dedup():
    canonicals = {canonicalize(idx).canonical for idx in itertools.product(range(3), repeat=3)}
    assert len(canonicals) == 10
    assert canonicals == set(hypertriangle_iter(3, 3))


def test_canonicalize_reproduces_every_index():
    for idx in itertools.product(range(3), repeat=4):
        ref = canonicalize(idx)
        assert ref.canonical == tuple(sorted(idx))
        assert ref.applied.apply(ref.canonical) == idx


def test_canonicalize_idempotent_and_deterministic():
    ref = canonicalize((1, 0, 1, 2))
    again = canonicalize(ref.canonical)
    assert again.canonical == ref.canonical
    assert again.applied.is_identity()
    # Repeated values: smallest mapping wins, so results are reproducible.
    assert canonicalize((1, 1, 0)).applied.mapping == canonicalize((1, 1, 0)).applied.mapping
    assert canonicalize((1, 1, 0)).applied.mapping == (1, 2, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_canonicalize_property(values):
    idx = tuple(values)
    ref = canonicalize(idx)
    assert ref.canonical == tuple(sorted(idx))
    assert ref.applied.apply(ref.canonical) == idx
    assert ref.applied.inverse().apply(idx) == ref.canonical
    assert canonicalize(ref.canonical).applied.is_identity()
    # Of all mappings that reproduce idx, the lexicographically smallest.
    m = len(idx)
    valid = [
        perm
        for perm in itertools.permutations(range(m))
        if Permutation(perm).apply(ref.canonical) == idx
    ]
    assert ref.applied.mapping == min(valid)


def test_meta_orbits_cover_full_grid():
    # Orbit sizes summed over canonical representatives tile the grid.
    for extent, m in [(2, 3), (3, 2), (3, 4)]:
        orbits = {}
        for idx in itertools.product(range(extent), repeat=m):
            orbits.setdefault(canonicalize(idx).canonical, 0)
            orbits[canonicalize(idx).canonical] += 1
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


def full_symmetry_violation(t: DenseTensor, modes):
    """Reference: the relative report computed for every adjacent pair."""
    modes = sorted(set(modes))
    worst = (0.0, (0,) * t.order, (0,) * t.order)
    for a, b in zip(modes, modes[1:]):
        swapped = np.swapaxes(t.array, a, b)
        diff = np.abs(t.array - swapped)
        scale = np.maximum(np.abs(t.array), np.abs(swapped))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(diff > 0, diff / np.where(scale > 0, scale, 1.0), 0.0)
        flat = int(np.argmax(rel))
        val = float(rel.reshape(-1)[flat])
        if val > worst[0]:
            idx = tuple(int(i) for i in np.unravel_index(flat, t.dims))
            jdx = list(idx)
            jdx[a], jdx[b] = jdx[b], jdx[a]
            worst = (val, idx, tuple(jdx))
    return worst


def _sym_in_01(shape, seed):
    """Random tensor symmetric in modes 0 and 1 only."""
    base = np.random.default_rng(seed).standard_normal(shape)
    return 0.5 * (base + np.swapaxes(base, 0, 1))


def _same_report(t, modes):
    got = symmetry_violation(t, modes)
    ref = full_symmetry_violation(t, modes)
    assert got[1:] == ref[1:]
    assert got[0] == ref[0] or (np.isnan(got[0]) and np.isnan(ref[0]))
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


# ------------------------------------------------------------ replication


@pytest.mark.parametrize("m,n", [(1, 4), (2, 1), (2, 5), (3, 4), (4, 3), (5, 3)])
def test_replicate_canonical_places_each_value_on_its_orbit(m, n):
    values = np.arange(1.0, 1.0 + simplex_count(n, m))
    out = replicate_canonical(values, n, m)
    assert out.shape == (n,) * m and out.flags.f_contiguous
    rank = {idx: r for r, idx in enumerate(hypertriangle_iter(n, m))}
    for idx in itertools.product(range(n), repeat=m):
        assert out[idx] == values[rank[tuple(sorted(idx))]]
