import itertools
import math

import numpy as np
import pytest

from blocksym import (
    BcssTensor,
    BlockDivisibilityError,
    RangeError,
    ShapeError,
    SymmetryError,
    compress,
    decompress,
    hypertriangle_iter,
    measured_meta_k,
    meta_bytes,
    mode_multiply,
    random_matrix,
    random_symmetric,
    simplex_count,
    sttsm_bcss,
    sttsm_dense_ttm,
)
from blocksym.io import load_bcss, save_bcss
from blocksym.dense import DenseTensor
from blocksym.storage import identity_tables, symmetric_tables


# ------------------------------------------------------------ compress


def test_single_block_degenerate_case():
    t = random_symmetric(3, 4, 0)
    packed = compress(t, 4)
    assert len(packed.blocks) == 1
    assert np.array_equal(packed.blocks[(0, 0, 0)], t.array)


def test_matrix_compress_hand_enumerated():
    # 4x4 symmetric matrix, 2x2 blocks: stored blocks are exactly the
    # upper-triangle block grid and the (1,0) meta entry is the transpose
    # redirect to block (0,1).
    t = random_symmetric(2, 4, 1)
    packed = compress(t, 2)
    assert sorted(packed.blocks) == [(0, 0), (0, 1), (1, 1)]
    stored, axes = packed.stored_and_transform((1, 0))
    assert np.shares_memory(stored, packed.blocks[(0, 1)])
    assert np.array_equal(stored, packed.blocks[(0, 1)])
    assert axes == (1, 0)
    assert packed.tables.rank[1, 0] == packed.tables.rank[0, 1] == 1
    got = packed.block_at((1, 0))
    assert np.array_equal(got.array, packed.blocks[(0, 1)].T)
    assert np.array_equal(got.array, t.array[2:4, 0:2])


def test_block_count_m3():
    t = random_symmetric(3, 4, 2)
    packed = compress(t, 2)
    assert len(packed.blocks) == simplex_count(2, 3) == 4


def test_compress_requires_divisibility():
    with pytest.raises(BlockDivisibilityError):
        compress(random_symmetric(2, 4, 3), 3)


def test_compress_rejects_asymmetry_and_names_pair():
    rng = np.random.default_rng(4)
    t = DenseTensor(rng.standard_normal((4, 4)))
    with pytest.raises(SymmetryError) as exc:
        compress(t, 2)
    msg = str(exc.value)
    assert "between indices" in msg


def test_compress_tolerance_admits_small_asymmetry():
    t = random_symmetric(2, 4, 5)
    arr = t.array.copy()
    arr[1, 0] += 1e-14
    compress(DenseTensor(arr), 2, tol=1e-10)


# ------------------------------------------------------------ round trips


@pytest.mark.parametrize("m,n,b", [(2, 4, 2), (3, 6, 3), (3, 6, 2), (4, 4, 2), (2, 6, 1)])
def test_compress_decompress_bitwise(m, n, b):
    t = random_symmetric(m, n, m * 10 + n)
    packed = compress(t, b)
    assert np.array_equal(decompress(packed).array, t.array)


def test_single_block_round_trip():
    t = random_symmetric(2, 3, 6)
    packed = compress(t, 3)
    assert np.array_equal(decompress(packed).array, t.array)


# ------------------------------------------------------------ block access


@pytest.mark.parametrize("m,nbar", [(2, 3), (3, 2), (3, 3), (4, 2)])
def test_block_at_matches_dense_subtensor_exhaustively(m, nbar):
    b = 2
    t = random_symmetric(m, nbar * b, m + nbar)
    packed = compress(t, b)
    for idx in itertools.product(range(nbar), repeat=m):
        sl = tuple(slice(i * b, (i + 1) * b) for i in idx)
        assert np.array_equal(packed.block_at(idx).array, t.array[sl]), idx


def test_block_at_canonical_returns_stored_value():
    packed = compress(random_symmetric(3, 4, 7), 2)
    got = packed.block_at((0, 1, 1))
    assert np.array_equal(got.array, packed.blocks[(0, 1, 1)])


def test_block_at_m3_permuted_access():
    packed = compress(random_symmetric(3, 6, 8), 2)
    dense = decompress(packed)
    idx = (2, 0, 1)
    sl = tuple(slice(i * 2, (i + 1) * 2) for i in idx)
    assert np.array_equal(packed.block_at(idx).array, dense.array[sl])


def test_block_at_out_of_grid():
    # Negative indices included: NumPy would wrap them round to a real slab.
    packed = compress(random_symmetric(2, 4, 9), 2)
    for idx in [(0, 2), (-1, 0), (0, -1), (0,), (0, 0, 0)]:
        with pytest.raises(RangeError):
            packed.block_at(idx)


# ------------------------------------------------------------ storage counts


def test_meta_grid_is_dense_over_block_grid():
    # Every grid index resolves to the slab of its sorted (canonical) index.
    packed = compress(random_symmetric(3, 6, 10), 2)
    assert packed.tables.rank.shape == packed.tables.transpose.shape == (3, 3, 3)
    for idx in itertools.product(range(3), repeat=3):
        stored, axes = packed.stored_and_transform(idx)
        canonical = tuple(sorted(idx))
        assert canonical in packed.blocks
        assert np.shares_memory(stored, packed.blocks[canonical])
        assert tuple(canonical[a] for a in axes) == idx


def test_stored_element_count_formula():
    # payload = b^m * C(nbar + m - 1, m); meta adds k per grid cell.
    packed = compress(random_symmetric(2, 16, 11), 4)
    payload, total = packed.stored_element_count(meta_k=4)
    assert payload == 160
    assert total == 224


def test_stored_element_count_matches_simplex_formula():
    for m, n, b in [(2, 8, 2), (3, 6, 3), (4, 4, 2)]:
        packed = compress(random_symmetric(m, n, m + n + b), b)
        payload, _ = packed.stored_element_count()
        assert payload == b**m * simplex_count(n // b, m)


def test_savings_ratio_approaches_factorial():
    # Element-level blocking at a large grid: payload ratio close to m!.
    for m in (2, 3, 4):
        payload = simplex_count(64, m)  # b = 1, so payload is the simplex count
        assert 64**m / payload >= 0.8 * math.factorial(m)


def test_measured_meta_k_positive():
    packed = compress(random_symmetric(3, 4, 12), 2)
    assert meta_bytes(packed) > 0
    assert measured_meta_k(packed) >= 1.0


# ------------------------------------------------------------ partial symmetry


def _temp_visits(m, pbar):
    """(level k, block rows jb_k..jb_{m-1}) of each temporary, in the order
    ``sttsm_bcss`` hands them to ``temp_hook``."""

    def descend(k, j_hi, suffix):
        for jb in range(j_hi + 1):
            if k > 0:
                yield k, (jb,) + suffix
                yield from descend(k - 1, jb, (jb,) + suffix)

    return list(descend(m - 1, pbar - 1, ()))


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("m,n,p,b_a,b_c", [(3, 6, 4, 2, 2), (4, 6, 6, 3, 2)])
def test_temporary_block_at_matches_mode_product_chain(reuse, m, n, p, b_a, b_c):
    # T(k) is A contracted in modes k..m-1 with block rows jb_k..jb_{m-1} of
    # x: its symmetric modes are blocked at b_A, its tail modes one block.
    a = random_symmetric(m, n, 27)
    x = random_matrix(p, n, 28)
    temps = []
    sttsm_bcss(compress(a, b_a), x, b_c, reuse=reuse, temp_hook=lambda k, t: temps.append((k, t)))
    visits = _temp_visits(m, p // b_c)
    assert [k for k, _ in temps] == [k for k, _ in visits]
    for (k, temp), (_, rows) in zip(temps, visits):
        assert temp.tail_dims == (b_c,) * (m - k)
        chain = a
        for mode in range(m - 1, k - 1, -1):
            jb = rows[mode - k]
            chain = mode_multiply(chain, mode, x[jb * b_c : (jb + 1) * b_c])
        scale = np.max(np.abs(chain.array))
        for idx in itertools.product(range(n // b_a), repeat=k):
            sl = tuple(slice(i * b_a, (i + 1) * b_a) for i in idx)
            got = temp.block_at(idx).array
            assert got.shape == (b_a,) * k + (b_c,) * (m - k)
            assert np.max(np.abs(got - chain.array[sl])) <= 1e-12 * scale, (k, rows, idx)


# ------------------------------------------------------------ redirection tables


def test_symmetric_tables_rank_slabs_in_hypertriangle_order():
    tables = symmetric_tables(3, 2, 3)
    assert tables.rank.dtype == np.intp
    assert tables.stored_keys() == list(hypertriangle_iter(3, 2))
    for r, key in enumerate(hypertriangle_iter(3, 2)):
        assert tables.rank[key] == r and tables.rank[key[::-1]] == r
    # Tail modes pass through every transpose; id 0 is the identity.
    assert tables.transposes == ((0, 1, 2), (1, 0, 2))
    assert tables.transpose.tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 0]]


def test_transpose_ids_sized_to_the_transposes_present():
    # Order 6 on a grid of 6 realizes all 720 transposes: past 8 bits.
    big = symmetric_tables(6, 6, 6)
    assert len(big.transposes) == 720
    assert big.transpose.dtype == np.uint16
    assert int(big.transpose.max()) == 719
    assert symmetric_tables(4, 5, 5).transpose.dtype == np.uint8


def test_identity_tables_store_every_block_untransposed():
    tables = identity_tables(3, 2, 4)
    assert tables.rank.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert tables.transposes == ((0, 1, 2, 3),)
    assert tables.stored_keys() == list(itertools.product(range(3), repeat=2))


def test_packed_blocks_are_views_of_their_slabs():
    packed = compress(random_symmetric(3, 6, 25), 2)
    assert packed.data.shape == (2, 2, 2, simplex_count(3, 3))
    assert packed.data.flags.f_contiguous
    for r, key in enumerate(hypertriangle_iter(3, 3)):
        assert np.shares_memory(packed.blocks[key], packed.data[..., r])
    packed.blocks[(0, 1, 2)][0, 0, 0] = 7.0
    assert packed.block_at((2, 1, 0)).array[0, 0, 0] == 7.0


def test_assigning_a_block_writes_its_slab_for_every_reader(tmp_path):
    d = random_symmetric(3, 4, 1)
    packed = compress(d, 2)
    rng = np.random.default_rng(7)
    new = rng.standard_normal((2, 2, 2))
    new = new + new.transpose(0, 2, 1)  # block (0, 1, 1) repeats its last two indices
    packed.blocks[(0, 1, 1)] = new
    assert np.shares_memory(packed.blocks[(0, 1, 1)], packed.data)
    with pytest.raises(KeyError):
        packed.blocks[(1, 0, 1)] = new  # not stored: a transpose of (0, 1, 1)

    # The dense tensor ``packed`` now stands for: ``d`` with ``new`` at
    # (0, 1, 1) and its transposes at every permutation of that index.
    want = d.array.copy()
    for perm in itertools.permutations(range(3)):
        key = tuple((0, 1, 1)[i] for i in perm)
        want[tuple(slice(2 * i, 2 * i + 2) for i in key)] = np.transpose(new, perm)
    assert np.array_equal(decompress(packed).array, want)
    assert np.array_equal(packed.block_at((1, 1, 0)).array, np.transpose(new, (1, 2, 0)))
    save_bcss(packed, tmp_path / "t.bcss")
    assert np.array_equal(load_bcss(tmp_path / "t.bcss").blocks[(0, 1, 1)], new)
    x = random_matrix(4, 4, 2)
    got = decompress(sttsm_bcss(packed, x, 2)).array
    ref = sttsm_dense_ttm(DenseTensor(want), x).array
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_measured_meta_k_is_nine_bytes_per_record():
    # One intp slab rank plus one 8-bit transpose id per block index.
    packed = compress(random_symmetric(5, 4, 26), 1)
    assert meta_bytes(packed) == 9 * 4**5
    assert measured_meta_k(packed) == 1.125


def test_packed_shape_mismatch_is_rejected():
    with pytest.raises(ShapeError):
        BcssTensor(2, 4, 2, np.zeros((2, 2, 4), order="F"))
