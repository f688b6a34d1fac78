import hashlib
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym import (
    BlockDivisibilityError,
    ParameterError,
    compress,
    decompress,
    hypertriangle_iter,
    random_matrix,
    random_symmetric,
    simplex_count,
    sttsm_bcss,
    sttsm_dense_ttm,
    sttsm_naive,
    sttsm_scalar_temps,
)
from blocksym.cli import compare_bcss_dense
from blocksym.counters import OpCounter
from blocksym.generate import random_bcss

# (m, n, b): orders 2..6, single-block (b == n) and unit-block (b == 1) cases.
SHAPES = [
    (2, 6, 3),
    (2, 4, 4),
    (3, 6, 2),
    (3, 5, 5),
    (3, 4, 1),
    (4, 8, 2),
    (4, 3, 1),
    (5, 4, 2),
    (5, 5, 5),
    (6, 4, 2),
    (6, 3, 1),
    (6, 3, 3),
]


@pytest.mark.parametrize("m,n,b", SHAPES)
def test_random_bcss_payload_count(m, n, b):
    t = random_bcss(m, n, b, 0)
    assert t.data.size == b**m * simplex_count(n // b, m)


@pytest.mark.parametrize("m,n,b", SHAPES)
def test_random_bcss_exactly_symmetric(m, n, b):
    for seed in range(3):
        t = random_bcss(m, n, b, seed)
        again = compress(decompress(t), b, tol=0.0)
        assert again.blocks.keys() == t.blocks.keys()
        for key, blk in t.blocks.items():
            assert again.blocks[key].tobytes() == blk.tobytes(), (seed, key)


def test_random_bcss_same_seed_bit_identical():
    t1 = random_bcss(4, 6, 2, 17)
    t2 = random_bcss(4, 6, 2, 17)
    assert t1.blocks.keys() == t2.blocks.keys()
    for key, blk in t1.blocks.items():
        assert blk.tobytes() == t2.blocks[key].tobytes()


def test_random_bcss_different_seed_differs():
    t1 = random_bcss(4, 6, 2, 17)
    t2 = random_bcss(4, 6, 2, 18)
    assert any(not np.array_equal(blk, t2.blocks[key]) for key, blk in t1.blocks.items())


@pytest.mark.parametrize("m,n,b,p,b_c", [(2, 6, 3, 4, 2), (3, 6, 2, 6, 3), (4, 4, 2, 3, 1)])
def test_random_bcss_change_of_basis_matches_oracle(m, n, b, p, b_c):
    a = random_bcss(m, n, b, 3)
    x = random_matrix(p, n, 4)
    err, _ = compare_bcss_dense(sttsm_bcss(a, x, b_c), sttsm_naive(decompress(a), x))
    assert err <= 1e-10


def gather_random_bcss(m: int, n: int, b: int, seed: int) -> np.ndarray:
    """Reference: the packed blocks of ``random_bcss`` built by the
    sorted-coordinate gather it once used in place of the swap network."""

    def group_sorted_index(runs):
        # Flat C-order index of each entry with its coordinates sorted
        # within each run of modes that share a block index.
        coords = list(np.ogrid[(slice(0, b),) * sum(runs)])
        start = 0
        for g in runs:
            if g > 1:
                group = np.broadcast_arrays(*coords[start : start + g])
                coords[start : start + g] = np.sort(np.stack(group), axis=0)
            start += g
        return np.ravel_multi_index(tuple(coords), (b,) * len(coords))

    rng = np.random.default_rng(seed)
    data = np.empty((b,) * m + (simplex_count(n // b, m),), order="F")
    for r, key in enumerate(hypertriangle_iter(n // b, m)):
        arr = rng.uniform(-1.0, 1.0, size=(b,) * m)
        runs = tuple(len(list(group)) for _, group in itertools.groupby(key))
        if len(runs) < m:
            arr = arr.reshape(-1)[group_sorted_index(runs)]
        data[..., r] = arr
    return data


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 6),
    nbar=st.integers(1, 3),
    b=st.integers(1, 3),
    seed=st.integers(0, 2**63 - 1),
)
def test_random_bcss_bitwise_equals_gather_reference(m, nbar, b, seed):
    got = random_bcss(m, nbar * b, b, seed).data
    assert got.tobytes(order="F") == gather_random_bcss(m, nbar * b, b, seed).tobytes(order="F")


def test_random_bcss_rejects_zero_block_dim():
    with pytest.raises(ParameterError):
        random_bcss(3, 4, 0, 1)


def test_random_bcss_rejects_nondividing_block_dim():
    with pytest.raises(BlockDivisibilityError):
        random_bcss(3, 4, 3, 1)


@pytest.mark.parametrize(
    "make",
    [lambda: random_symmetric(2, 0, 1), lambda: random_symmetric(0, 3, 1),
     lambda: random_matrix(0, 3, 1), lambda: random_matrix(3, 0, 1)],
)
def test_dense_generators_reject_a_dimension_below_one(make):
    with pytest.raises(ParameterError, match=">= 1"):
        make()


@pytest.mark.parametrize(
    "make",
    [lambda: random_symmetric(2.5, 3, 1), lambda: random_symmetric(2, 3.0, 1),
     lambda: random_matrix(2.0, 3, 1), lambda: random_matrix(2, "3", 1),
     lambda: random_bcss(3.0, 4, 2, 1), lambda: random_bcss(3, 4.0, 2, 1),
     lambda: random_matrix(True, 2, 0)],
)
def test_generators_reject_a_size_that_is_not_an_integer(make):
    # These used to raise a bare TypeError from range() or NumPy; a bool
    # passed the integer check and failed inside NumPy.
    with pytest.raises(ParameterError, match="requires integers"):
        make()


def test_generators_take_numpy_integer_sizes():
    m, n = np.int64(2), np.int32(3)
    assert random_symmetric(m, n, 1).array.tobytes() == random_symmetric(2, 3, 1).array.tobytes()
    assert random_bcss(m, np.int64(4), np.int64(2), 1).data.shape == (2, 2, 3)


def test_random_bcss_rejects_order_below_two():
    with pytest.raises(ParameterError):
        random_bcss(1, 4, 2, 1)


@pytest.mark.parametrize("m,n,b", [(26, 2, 1), (25, 2, 1), (5, 64, 1)])
def test_random_bcss_rejects_a_grid_past_the_table_bound_before_drawing(m, n, b):
    # (26, 2, 1) used to ask for 2**26 table entries built as Python lists,
    # (25, 2, 1) to keep 2**25 distinct 25-axis transposes, several GB, and
    # (5, 64, 1) to draw 10**7 blocks first.
    t0 = time.perf_counter()
    with pytest.raises(ParameterError, match="table entries"):
        random_bcss(m, n, b, 0)
    assert time.perf_counter() - t0 < 0.5


GENERATORS = {
    "random_symmetric": lambda seed: random_symmetric(2, 3, seed),
    "random_matrix": lambda seed: random_matrix(2, 3, seed),
    "random_bcss": lambda seed: random_bcss(2, 4, 2, seed),
}


@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS.keys())
@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, None])
def test_generators_reject_a_seed_that_is_not_a_non_negative_integer(make, seed):
    # -1 used to reach NumPy and raise its own ValueError.
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        make(seed)


def test_numpy_integer_seed_draws_as_the_same_int():
    assert random_matrix(2, 3, np.int64(7)).tobytes() == random_matrix(2, 3, 7).tobytes()


# ------------------------------------------------------------ random_symmetric


def loop_random_symmetric(m: int, n: int, seed: int) -> np.ndarray:
    """Reference: the per-permutation loop ``random_symmetric`` was built on."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(-1.0, 1.0, size=simplex_count(n, m))
    out = np.empty((n,) * m, dtype=np.float64, order="F")
    for value, idx in zip(draws, hypertriangle_iter(n, m)):
        for perm_idx in set(itertools.permutations(idx)):
            out[perm_idx] = value
    return out


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**63 - 1),
)
def test_random_symmetric_bitwise_equals_loop_reference(m, n, seed):
    got = random_symmetric(m, n, seed).array
    ref = loop_random_symmetric(m, n, seed)
    assert got.shape == (n,) * m
    assert got.flags.f_contiguous
    assert got.tobytes(order="F") == ref.tobytes(order="F")


# (4, 24) and (5, 12) hold more entries than one slab of sort_within.
@pytest.mark.parametrize("m,n", [(2, 5), (3, 8), (4, 6), (5, 8), (6, 4), (4, 24), (5, 12)])
def test_random_symmetric_bitwise_equals_loop_reference_larger(m, n):
    got = random_symmetric(m, n, 99).array
    assert got.flags.f_contiguous
    assert got.tobytes(order="F") == loop_random_symmetric(m, n, 99).tobytes(order="F")


@pytest.mark.parametrize(
    "make,digest",
    [
        (lambda: random_symmetric(4, 48, 1).array, "ade12aab75a1e398"),
        (lambda: random_symmetric(5, 12, 3).array, "2d11840adfa86cf8"),
        (lambda: random_bcss(5, 32, 8, 1).data, "375ed0df68293dee"),
    ],
    ids=["random_symmetric(4,48,1)", "random_symmetric(5,12,3)", "random_bcss(5,32,8,1)"],
)
def test_generators_keep_their_bytes(make, digest):
    # A seed's output is part of the contract: a faster generator must
    # give the same bytes, here pinned as sha256 prefixes of F-order bytes.
    data = make().tobytes(order="F")
    assert hashlib.sha256(data).hexdigest()[:16] == digest


ORACLES = {
    "naive": sttsm_naive,
    "full_nest": lambda a, x: sttsm_naive(a, x, full_nest=True),
    "sttsm_scalar_temps": sttsm_scalar_temps,
    "sttsm_dense_ttm": sttsm_dense_ttm,
}


@pytest.mark.parametrize(
    "m,n,p,digests",
    [
        (3, 5, 7, ["e3f187bde9bed0eb", "ca85bf4e105e7677", "2525a2c567791a59", "ccbf5613e41d6829"]),
        (4, 6, 6, ["10b2f38373b4e95f", "4f77580c7a5e9bff", "204ce6521bfa4d28", "0c8d566b55c2ddd6"]),
    ],
)
def test_oracles_keep_their_bytes(m, n, p, digests):
    # The oracles and the dense chain give the same bytes however they
    # assemble their result, pinned as sha256 prefixes of F-order bytes.
    a, x = random_symmetric(m, n, 7), random_matrix(p, n, 8)
    for (name, call), digest in zip(ORACLES.items(), digests):
        data = call(a, x).array.tobytes(order="F")
        assert hashlib.sha256(data).hexdigest()[:16] == digest, name


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize(
    "m,n,p,b_a,b_c,digest",
    [
        (3, 6, 4, 2, 2, "28ef9dada5a62df2"),
        (4, 6, 6, 3, 2, "1002a5478c0885e0"),
        (3, 8, 6, 2, 3, "1d60b72c6b778871"),
        (4, 8, 8, 2, 2, "37a052ee88c7bf7d"),
    ],
)
def test_bcss_keeps_its_bytes(m, n, p, b_a, b_c, digest, reuse):
    # The blocked algorithm gives the same bytes however its temporaries
    # are laid out, with or without reuse, pinned as sha256 prefixes of
    # F-order bytes.
    out = sttsm_bcss(random_bcss(m, n, b_a, 1), random_matrix(p, n, 2), b_c, reuse=reuse)
    data = out.data.tobytes(order="F")
    assert hashlib.sha256(data).hexdigest()[:16] == digest


@pytest.mark.parametrize("m,n,p", [(2, 3, 4), (3, 4, 3), (4, 3, 2)])
def test_naive_counts_two_replication_memops_per_output_element(m, n, p):
    counter = OpCounter()
    sttsm_naive(random_symmetric(m, n, 5), random_matrix(p, n, 6), counter)
    assert counter.memops == 2 * p**m
