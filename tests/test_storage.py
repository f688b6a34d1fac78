import copy
import itertools
import math
import operator
import pickle
from collections.abc import Mapping

import numpy as np
import pytest

from blocksym import (
    BcssTensor,
    BlockDivisibilityError,
    ParameterError,
    PartialSymTensor,
    RangeError,
    ShapeError,
    SymmetryError,
    compress,
    decompress,
    hypertriangle_iter,
    measured_meta_k,
    meta_bytes,
    metadata_sweep,
    mode_multiply,
    random_matrix,
    random_symmetric,
    simplex_count,
    sttsm_bcss,
    sttsm_dense_ttm,
)
from blocksym.io import load_bcss, save_bcss
from blocksym.dense import DenseTensor
from blocksym.generate import random_bcss
from blocksym.storage import MAX_TABLE_ENTRIES, identity_tables, symmetric_tables, table_excess


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
    tables = packed.tables
    assert tables.rank[1, 0] == tables.rank[0, 1] == 1
    assert tables.transposes[tables.transpose[1, 0]] == (1, 0)
    assert tables.transposes[tables.transpose[0, 1]] == (0, 1)
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


@pytest.mark.parametrize("tol", [np.nan, -1.0, "x", None, True, 1j])
def test_compress_rejects_a_nan_or_negative_tol(tol):
    # NaN used to accept any asymmetry, -1 to reject an exactly symmetric
    # tensor, and "x" or None to raise a bare TypeError.
    with pytest.raises(ParameterError, match="tol"):
        compress(random_symmetric(2, 4, 5), 2, tol=tol)


def test_compress_rejects_unequal_dims():
    with pytest.raises(ShapeError, match="unequal dimensions"):
        compress(DenseTensor(np.zeros((4, 2), order="F")), 2)


@pytest.mark.parametrize("t", [BcssTensor(2, 4, 2), np.eye(4)], ids=["BcssTensor", "ndarray"])
def test_compress_rejects_another_kind_of_tensor(t):
    # Both used to raise a bare AttributeError.
    with pytest.raises(ShapeError, match="compress needs a dense tensor"):
        compress(t, 2)


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


def test_decompress_needs_blocked_input():
    # A DenseTensor used to raise a bare AttributeError.
    with pytest.raises(ShapeError, match="needs blocked input"):
        decompress(random_symmetric(2, 4, 1))


@pytest.mark.parametrize("call", [meta_bytes, measured_meta_k], ids=lambda f: f.__name__)
def test_meta_measures_need_blocked_input(call):
    # A DenseTensor used to raise a bare AttributeError ("no attribute 'tables'").
    with pytest.raises(ShapeError, match=f"{call.__name__} needs blocked input"):
        call(random_symmetric(3, 4, 1))


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
    # (0.0, 1) used to raise NumPy's bare IndexError, and 1 and None a
    # bare TypeError.
    packed = compress(random_symmetric(2, 4, 9), 2)
    for idx in [(0, 2), (-1, 0), (0, -1), (0,), (0, 0, 0), (0.0, 1), (True, 0), 1, None]:
        with pytest.raises(RangeError):
            packed.block_at(idx)


# ------------------------------------------------------------ storage counts


def test_meta_grid_is_dense_over_block_grid():
    # Every grid index resolves to the slab of its sorted (canonical) index.
    packed = compress(random_symmetric(3, 6, 10), 2)
    tables = packed.tables
    assert tables.rank.shape == tables.transpose.shape == (3, 3, 3)
    for idx in itertools.product(range(3), repeat=3):
        canonical = tuple(sorted(idx))
        assert canonical in packed.blocks
        stored = packed.data[..., tables.rank[idx]]
        assert np.shares_memory(stored, packed.blocks[canonical])
        axes = tables.transposes[tables.transpose[idx]]
        assert tuple(canonical[a] for a in axes) == idx


def test_blocked_tensor_repr_names_dims_block_and_stored_blocks():
    # C(3 + 2 - 1, 2) = 6 canonical blocks of a (6, 6) grid of b = 2; a
    # tail mode of one block keeps the symmetric grid's 3 blocks.
    assert repr(BcssTensor(2, 6, 2)) == "BcssTensor(dims=(6, 6), b=2, blocks=6)"
    assert repr(PartialSymTensor(1, 6, 2, (5,))) == (
        "PartialSymTensor(dims=(6, 5), b=2, blocks=3)"
    )


def test_stored_element_count_formula():
    # payload = b^m * C(nbar + m - 1, m); meta adds k per grid cell.
    dense = random_symmetric(2, 16, 11)
    rows, _ = metadata_sweep(2, 16, 4)
    for b, payload, total in rows:
        packed = compress(dense, b)
        assert packed.data.size == payload
        assert packed.data.size + 4 * packed.tables.rank.size == total
    assert rows[2] == (4, 160, 224)


def test_stored_element_count_matches_simplex_formula():
    for m, n, b in [(2, 8, 2), (3, 6, 3), (4, 4, 2)]:
        packed = compress(random_symmetric(m, n, m + n + b), b)
        assert packed.data.size == b**m * simplex_count(n // b, m)


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

    def snapshot(k, t):
        # Siblings refill one temporary, so each is copied inside the hook.
        temps.append((k, copy.deepcopy(t)))

    sttsm_bcss(compress(a, b_a), x, b_c, reuse=reuse, temp_hook=snapshot)
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


@pytest.mark.parametrize("tail", [0, 1, 2])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_symmetric_tables_match_brute_force(s, tail):
    # The id names the lexicographically smallest axes tuple that turns the
    # canonical block into the block at the index, tail modes fixed; the
    # rank is the sorted index's position among the nondecreasing indices.
    fixed = tuple(range(s, s + tail))
    for grid in range(1, 5):
        tables = symmetric_tables(grid, s, s + tail)
        grid_indices = list(itertools.product(range(grid), repeat=s))
        sorted_indices = [idx for idx in grid_indices if list(idx) == sorted(idx)]
        for idx in grid_indices:
            canonical = tuple(sorted(idx))
            reproducing = [
                axes
                for axes in itertools.permutations(range(s))
                if tuple(canonical[j] for j in axes) == idx
            ]
            assert tables.transposes[tables.transpose[idx]] == min(reproducing) + fixed
            assert tables.rank[idx] == sorted_indices.index(canonical)


def test_transpose_ids_sized_to_the_transposes_present():
    # Order 6 on a grid of 6 realizes all 720 transposes: past 8 bits.
    big = symmetric_tables(6, 6, 6)
    assert len(big.transposes) == 720
    assert big.transpose.dtype == np.uint16
    assert int(big.transpose.max()) == 719
    assert symmetric_tables(4, 5, 5).transpose.dtype == np.uint8


def test_symmetric_tables_bound_entries():
    # The whole m=5, n=32 grid at unit blocks; one index more is rejected
    # before anything is built.
    assert MAX_TABLE_ENTRIES == 32**5
    for grid, s in [(2, 26), (33, 5), (2, 30)]:
        with pytest.raises(ParameterError, match="table entries"):
            symmetric_tables(grid, s, s)


def test_symmetric_tables_bound_transposes():
    # 2**25 indices of a 2-grid, each with its own 25-axis transpose, are
    # refused before anything is built; grids whose transposes stay few pass.
    with pytest.raises(ParameterError, match="transposes"):
        symmetric_tables(2, 25, 25)
    assert table_excess(2, 25) is not None
    assert table_excess(4, 9) is None
    assert table_excess(6, 6) is None
    assert table_excess(32, 5) is None


def test_identity_tables_store_every_block_untransposed():
    tables = identity_tables(3, 2, 4)
    assert tables.rank.tolist() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert tables.transposes == ((0, 1, 2, 3),)
    assert tables.stored_keys() == list(itertools.product(range(3), repeat=2))


@pytest.mark.parametrize("tail", [(), (2,)])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("grid", [1, 2, 3, 4, 5])
def test_partial_sym_tensor_has_one_slab_per_stored_block(grid, s, tail):
    # The slab count is read from the last grid index's rank, not a scan.
    order = s + len(tail)
    for tables, slabs in [
        (symmetric_tables(grid, s, order), simplex_count(grid, s)),
        (identity_tables(grid, s, order), grid**s),
    ]:
        temp = PartialSymTensor(s, 2 * grid, 2, tail, tables)
        assert temp.data.shape == (2,) * s + tail + (slabs,)


def test_packed_blocks_are_views_of_their_slabs():
    packed = compress(random_symmetric(3, 6, 25), 2)
    assert packed.data.shape == (2, 2, 2, simplex_count(3, 3))
    assert packed.data.flags.f_contiguous
    for r, key in enumerate(hypertriangle_iter(3, 3)):
        assert np.shares_memory(packed.blocks[key], packed.data[..., r])
    packed.blocks[(0, 1, 2)][0, 0, 0] = 7.0
    assert packed.block_at((2, 1, 0)).array[0, 0, 0] == 7.0
    assert isinstance(packed.blocks, Mapping)
    assert len(packed.blocks) == simplex_count(3, 3)
    for (key, blk), view in zip(packed.blocks.items(), packed.blocks.values()):
        assert blk is view is packed.blocks[key]


def _hooked_temporary():
    temps = []
    hook = lambda k, t: temps.append(copy.deepcopy(t)) if k == 2 else None  # noqa: E731
    sttsm_bcss(random_bcss(4, 6, 2, 0), random_matrix(6, 6, 1), 3, temp_hook=hook)
    return temps[-1]


TAIL_TENSORS = {
    "symmetric": lambda: PartialSymTensor(2, 6, 2, (3, 4), symmetric_tables(3, 2, 4)),
    "identity": lambda: PartialSymTensor(2, 6, 2, (3, 4), identity_tables(3, 2, 4)),
    "temporary": _hooked_temporary,
}


@pytest.mark.parametrize("source", list(TAIL_TENSORS))
def test_tail_tensor_stores_tail_modes_first_and_reads_blocks_in_logical_order(source):
    # Slabs hold the tail modes first, so the mode a level of sttsm_bcss
    # contracts is the slowest in its slab; blocks, block_at and decompress
    # still read (sym..., tail...), and blocks are views of the slabs.
    t = TAIL_TENSORS[source]()
    if source != "temporary":
        t.data[...] = np.arange(t.data.size).reshape(t.data.shape, order="F")
    s, b = t.sym_modes, t.block_dim
    assert t.data.shape == t.tail_dims + (b,) * s + (len(t.tables.stored_keys()),)
    assert t.data.flags.f_contiguous
    for key in t.tables.stored_keys():
        got = t.blocks[key]
        assert got.shape == (b,) * s + t.tail_dims
        assert got.tobytes() == t.block_at(key).array.tobytes()
        assert np.shares_memory(got, t.data)
    key = next(key for key in t.tables.stored_keys() if key[0] < key[1])
    value = np.full((b,) * s + t.tail_dims, -1.0)
    value[(1,) * (s + len(t.tail_dims))] = -2.0
    t.blocks[key] = value
    assert np.array_equal(t.block_at(key).array, value)
    sl = tuple(slice(i * b, (i + 1) * b) for i in key)
    assert np.array_equal(decompress(t).array[sl], value)
    # A block redirected to the same slab reads it transposed among its
    # symmetric modes only.
    if t.tables.rank[key[::-1]] == t.tables.rank[key]:
        assert np.array_equal(t.block_at(key[::-1]).array, value.transpose(1, 0, 2, 3))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda blocks: blocks.update({(0, 1, 1): np.zeros((2, 2, 2))}),
        lambda blocks: blocks.setdefault((1, 0, 1), np.zeros((2, 2, 2))),
        lambda blocks: blocks.pop((0, 1, 1)),
        lambda blocks: blocks.popitem(),
        lambda blocks: blocks.clear(),
        lambda blocks: operator.delitem(blocks, (0, 1, 1)),
    ],
    ids=["update", "setdefault", "pop", "popitem", "clear", "del"],
)
def test_blocks_cannot_add_drop_or_bypass_a_slab(mutate):
    # Only ``blocks[key] = value`` writes; nothing can leave ``blocks`` out
    # of step with ``data``.
    packed = compress(random_symmetric(3, 4, 1), 2)
    keys = list(packed.blocks)
    before = packed.data.copy()
    with pytest.raises((AttributeError, TypeError)):
        mutate(packed.blocks)
    assert list(packed.blocks) == keys
    assert np.array_equal(packed.data, before)
    for r, key in enumerate(keys):
        assert np.shares_memory(packed.blocks[key], packed.data[..., r])


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


@pytest.mark.parametrize("value", [np.ones(2), np.ones((2, 2)), np.ones((1, 2, 2)), 5.0])
def test_assigning_a_block_of_another_shape_is_rejected(value):
    # NumPy would broadcast each of these across the (2, 2, 2) slab.
    packed = compress(random_symmetric(3, 4, 1), 2)
    before = packed.data.copy()
    with pytest.raises(ShapeError, match=r"block \(0, 1, 1\) has shape \(2, 2, 2\)"):
        packed.blocks[(0, 1, 1)] = value
    assert np.array_equal(packed.data, before)


def test_measured_meta_k_is_nine_bytes_per_record():
    # One intp slab rank plus one 8-bit transpose id per block index.
    packed = compress(random_symmetric(5, 4, 26), 1)
    assert meta_bytes(packed) == 9 * 4**5
    assert measured_meta_k(packed) == 1.125


@pytest.mark.parametrize("m,n,b", [(2, 4, 2), (3, 6, 2), (4, 4, 4), (3, 5, 1), (5, 4, 1)])
def test_constructor_allocates_the_packed_array(m, n, b):
    # One F-ordered float64 slab per canonical block, b = n and b = 1 included.
    data = BcssTensor(m, n, b).data
    assert data.dtype == np.float64
    assert data.flags.f_contiguous and data.flags.writeable
    assert data.shape == (b,) * m + (math.comb(n // b + m - 1, m),)
    grid, tail = n // b, (3, 2)
    temp = PartialSymTensor(m, n, b, tail, identity_tables(grid, m, m + len(tail)))
    assert temp.data.flags.f_contiguous
    assert temp.data.shape == tail + (b,) * m + (grid**m,)


def test_partial_sym_tensor_needs_a_symmetric_mode():
    with pytest.raises(ShapeError, match="at least one symmetric mode"):
        PartialSymTensor(0, 4, 2, (3,))


@pytest.mark.parametrize("tail", [(-1,), (3, -2)])
def test_partial_sym_tensor_rejects_a_negative_tail_dim(tail):
    # Checked before any table is built or np.empty raises a bare ValueError.
    with pytest.raises(ShapeError, match=r"tail dims .* include a negative dimension"):
        PartialSymTensor(1, 4, 2, tail)


@pytest.mark.parametrize(
    "args", [(1, 4, 2, (2.0,)), (1, 4, 2, (3, "2")), (1.0, 4, 2, (3,)), (1, 4.0, 2, (3,))]
)
def test_partial_sym_tensor_rejects_a_size_that_is_not_an_integer(args):
    # Each used to raise a bare TypeError from NumPy or range().
    with pytest.raises(ShapeError, match="integer"):
        PartialSymTensor(*args)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BcssTensor(64, 1, 1),
        lambda: random_bcss(64, 1, 1, 0),
        lambda: compress(DenseTensor(np.ones((1,) * 64)), 1),
        lambda: PartialSymTensor(1, 1, 1, (1,) * 63),
    ],
    ids=["BcssTensor", "random_bcss", "compress", "PartialSymTensor"],
)
def test_blocked_tensor_past_order_63_is_a_shape_error(build):
    # Its packed array would have 65 axes, one past NumPy's limit, which
    # used to raise NumPy's bare ValueError.
    with pytest.raises(ShapeError, match="order at most 63"):
        build()


def test_blocked_tensor_of_order_63_builds():
    assert BcssTensor(63, 1, 1).data.shape == (1,) * 64
    assert PartialSymTensor(1, 1, 1, (1,) * 62).data.shape == (1,) * 64


def test_partial_sym_tensor_tail_dim_zero_builds_empty_slabs():
    temp = PartialSymTensor(1, 4, 2, (0,))
    assert temp.data.shape == (0, 2, 2)


def test_partial_sym_tensor_rejects_tables_of_another_grid():
    # Tables of a 3-grid given to a tensor whose grid is 2.
    with pytest.raises(ShapeError, match=r"tables cover grid \(3, 3\), expected 2\^2"):
        PartialSymTensor(2, 4, 2, (), symmetric_tables(3, 2, 2))


def test_partial_sym_tensor_rejects_tables_that_are_not_block_tables():
    # 3 used to raise a bare AttributeError.
    with pytest.raises(ShapeError, match="not BlockTables"):
        PartialSymTensor(2, 4, 2, (3,), 3)


def test_partial_sym_tensor_rejects_tables_of_another_order():
    # Tables of an order-2 tensor given to one of order 3: the tensor used
    # to build, and block_at and decompress then raised NumPy's bare
    # ValueError ("axes don't match array").
    with pytest.raises(ShapeError, match="identity on 3 modes"):
        PartialSymTensor(2, 4, 2, (3,), symmetric_tables(2, 2, 2))


# ------------------------------------------------------------ set-once fields and copies


def _temporary(tmp_path):
    temps = []
    hook = lambda k, t: temps.append(t)  # noqa: E731
    sttsm_bcss(random_bcss(3, 4, 2, 0), random_matrix(4, 4, 1), 2, temp_hook=hook)
    return temps[0]


def _loaded(tmp_path):
    save_bcss(random_bcss(3, 4, 2, 0), tmp_path / "a.bcss")
    return load_bcss(tmp_path / "a.bcss")


BLOCKED_SOURCES = {
    "random_bcss": lambda tmp_path: random_bcss(3, 4, 2, 0),
    "compress": lambda tmp_path: compress(random_symmetric(3, 4, 0), 2),
    "load_bcss": _loaded,
    "temporary": _temporary,
}
BLOCKED_FIELDS = (
    "sym_modes", "sym_dim", "block_dim", "grid", "tail_dims", "order", "dims", "data", "tables"
)


@pytest.mark.parametrize(
    "source,field",
    [(s, f) for s in BLOCKED_SOURCES for f in BLOCKED_FIELDS]
    + [(s, f) for s in BLOCKED_SOURCES if s != "temporary" for f in ("n", "b")],
)
def test_blocked_tensor_fields_are_set_once(tmp_path, source, field):
    # Reassigning a field used to leave the tensor at odds with its blocks,
    # its saved files and its tables.
    a = BLOCKED_SOURCES[source](tmp_path)
    kept = getattr(a, field)
    with pytest.raises(AttributeError, match=f"{field} is set once"):
        setattr(a, field, kept)
    with pytest.raises(AttributeError, match=f"{field} cannot be deleted"):
        delattr(a, field)
    assert getattr(a, field) is kept


@pytest.mark.parametrize(
    "field,value",
    [("data", lambda a: np.zeros(3)), ("data", lambda a: np.zeros_like(a.data)),
     ("tables", lambda a: None), ("grid", lambda a: 3)],
    ids=["data-short", "data-zeros", "tables-None", "grid-3"],
)
def test_assignments_that_corrupted_a_tensor_now_raise(tmp_path, field, value):
    # Each assignment used to succeed: a 3-element data saved a 48-byte file
    # load_bcss rejected and made sttsm_bcss raise NumPy's bare ValueError;
    # zeroed data left blocks reading the old values; tables of None and a
    # grid of 3 made decompress raise a bare AttributeError and IndexError.
    a = random_bcss(3, 4, 2, 0)
    want = decompress(a).array.copy()
    stale = a.blocks[(0, 0, 1)].copy()
    with pytest.raises(AttributeError, match="set once"):
        setattr(a, field, value(a))
    assert np.array_equal(decompress(a).array, want)
    assert np.array_equal(a.blocks[(0, 0, 1)], stale)
    assert np.array_equal(a.block_at((0, 0, 1)).array, stale)
    save_bcss(a, tmp_path / "a.bcss")
    assert np.array_equal(decompress(load_bcss(tmp_path / "a.bcss")).array, want)
    got = sttsm_bcss(a, np.eye(4), 2)
    assert np.array_equal(decompress(got).array, want)


COPIES = {
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
    "pickle": lambda a: pickle.loads(pickle.dumps(a)),
}


@pytest.mark.parametrize("how", list(COPIES))
def test_copy_builds_blocks_as_views_of_its_own_data(tmp_path, how):
    # A copy used to carry the original's cached views as state: a deep
    # copy or a pickle held each slab twice, and a write through its blocks
    # reached neither its data, nor block_at, nor a file saved from it.
    a = random_bcss(3, 4, 2, 0)
    a.blocks  # cached before the copy
    before = a.data.copy()
    clone = COPIES[how](a)
    key, value = (0, 1, 1), np.full((2, 2, 2), 7.0)
    clone.blocks[key] = value
    r = clone.tables.stored_keys().index(key)
    assert np.array_equal(clone.data[..., r], value)
    assert np.array_equal(clone.block_at(key).array, value)
    assert np.array_equal(clone.block_at((1, 0, 1)).array, value.transpose(1, 0, 2))
    assert all(np.shares_memory(v, clone.data) for v in clone.blocks.values())
    save_bcss(clone, tmp_path / "clone.bcss")
    assert np.array_equal(load_bcss(tmp_path / "clone.bcss").blocks[key], value)
    if how != "copy":  # a shallow copy shares data by design
        assert np.array_equal(a.data, before)
        assert not np.shares_memory(clone.data, a.data)


@pytest.mark.parametrize("build", [symmetric_tables, identity_tables])
def test_table_arrays_are_read_only(build):
    # One level's tables serve every temporary of the level, and a blocked
    # tensor holds its tables for life: a write used to redirect blocks of
    # them all.
    tables = build(3, 2, 3)
    for got in (tables, copy.deepcopy(tables), pickle.loads(pickle.dumps(tables))):
        assert not got.rank.flags.writeable
        assert not got.transpose.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.rank[0, 0] = 1
        assert np.array_equal(got.rank, tables.rank)
        assert got.transposes == tables.transposes
