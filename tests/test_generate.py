import itertools

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
    sttsm_naive,
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
    payload, _ = t.stored_element_count()
    assert payload == b**m * simplex_count(n // b, m)


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


def test_random_bcss_rejects_order_below_two():
    with pytest.raises(ParameterError):
        random_bcss(1, 4, 2, 1)


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


@pytest.mark.parametrize("m,n", [(2, 5), (3, 8), (4, 6), (5, 8), (6, 4)])
def test_random_symmetric_bitwise_equals_loop_reference_larger(m, n):
    got = random_symmetric(m, n, 99).array
    assert got.flags.f_contiguous
    assert got.tobytes(order="F") == loop_random_symmetric(m, n, 99).tobytes(order="F")


@pytest.mark.parametrize("m,n,p", [(2, 3, 4), (3, 4, 3), (4, 3, 2)])
def test_naive_counts_two_replication_memops_per_output_element(m, n, p):
    counter = OpCounter()
    sttsm_naive(random_symmetric(m, n, 5), random_matrix(p, n, 6), counter)
    assert counter.memops == 2 * p**m
