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
    compress_partial,
    decompress,
    hypertriangle_iter,
    measured_meta_k,
    meta_bytes,
    mode_multiply,
    random_matrix,
    random_symmetric,
    simplex_count,
)
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


def test_compress_partial_all_modes_behaves_as_compress():
    t = random_symmetric(3, 4, 13)
    part = compress_partial(t, 3, 2)
    full = compress(t, 2)
    assert sorted(part.blocks) == sorted(full.blocks)
    for key in part.blocks:
        assert np.array_equal(part.blocks[key], full.blocks[key])


def test_compress_partial_single_sym_mode_stores_everything():
    rng = np.random.default_rng(14)
    t = DenseTensor(rng.standard_normal((6, 3, 2)))
    part = compress_partial(t, 1, 2)
    assert len(part.blocks) == 3  # nbar blocks, no savings
    payload, _ = part.stored_element_count()
    assert payload == t.array.size
    assert np.array_equal(decompress(part).array, t.array)


def test_partial_from_mode_product_of_symmetric_tensor():
    # A x_2 X is symmetric in modes {0, 1}: compress that group and round trip.
    a = random_symmetric(3, 4, 15)
    x = random_matrix(2, 4, 16)
    t = mode_multiply(a, 2, x)
    part = compress_partial(t, 2, 2)
    assert len(part.blocks) == simplex_count(2, 2) == 3
    assert np.allclose(decompress(part).array, t.array, rtol=0, atol=0)
    assert part.tail_dims == (2,)


def test_partial_block_at_permutes_sym_modes_only():
    a = random_symmetric(3, 4, 17)
    x = random_matrix(3, 4, 18)
    t = mode_multiply(a, 2, x)
    part = compress_partial(t, 2, 2)
    got = part.partial_block_at((1, 0))
    want = np.swapaxes(part.blocks[(0, 1)], 0, 1)
    assert np.array_equal(got.array, want)


def test_partial_block_at_against_dense_subtensor():
    a = random_symmetric(4, 6, 19)
    x = random_matrix(2, 6, 20)
    t = mode_multiply(a, 3, x)
    part = compress_partial(t, 3, 3)
    for idx in itertools.product(range(2), repeat=3):
        sl = tuple(slice(i * 3, (i + 1) * 3) for i in idx) + (slice(None),)
        assert np.array_equal(part.partial_block_at(idx).array, t.array[sl])


def test_partial_compress_validates_symmetry_group():
    rng = np.random.default_rng(21)
    t = DenseTensor(rng.standard_normal((4, 4, 3)))
    with pytest.raises(SymmetryError):
        compress_partial(t, 2, 2)


def test_partial_compress_validates_tail_shapes():
    rng = np.random.default_rng(22)
    t = DenseTensor(rng.standard_normal((4, 3, 3)))
    with pytest.raises(Exception):
        compress_partial(t, 2, 2)  # leading modes unequal


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


def test_measured_meta_k_is_nine_bytes_per_record():
    # One intp slab rank plus one 8-bit transpose id per block index.
    packed = compress(random_symmetric(5, 4, 26), 1)
    assert meta_bytes(packed) == 9 * 4**5
    assert measured_meta_k(packed) == 1.125


def test_packed_shape_mismatch_is_rejected():
    with pytest.raises(ShapeError):
        BcssTensor(2, 4, 2, np.zeros((2, 2, 4), order="F"))
