import itertools
import math
from fractions import Fraction

import pytest

from blocksym import (
    ParameterError,
    approx_costs,
    bcss_costs,
    bcss_impl_memops,
    crossover_table,
    dense_costs,
    metadata_sweep,
    savings_table,
    simplex_count,
)
from blocksym.costs import divisors


# ------------------------------------------------------------ blocked costs


def test_blocked_flops_anchor_224():
    assert bcss_costs(2, 4, 4, 2, 2, meta_k=0).flops == 224


def test_single_block_storage_is_dense_plus_one_meta_record():
    rep = bcss_costs(3, 8, 8, 8, 8, meta_k=1)
    assert rep.storage_A == 8**3 + 1
    assert rep.storage_C == 8**3 + 1


def test_unit_block_flops_match_direct_summation():
    # b_A = b_C = 1, n = p: the per-level sum evaluated straight from the
    # triangular loop counts (executions x canonical blocks x 2n).
    m, n = 3, 4
    direct = 2 * n * sum(
        math.comb(n + d, d + 1) * math.comb(n + m - d - 2, m - d - 1)
        for d in range(m)
    )
    assert bcss_costs(m, n, n, 1, 1, meta_k=0).flops == direct


def test_blocked_formula_reduces_to_plain_blocked_at_m2():
    # One symmetric temporary mode carries no redundancy, so reuse on/off
    # agree for matrices.
    a = bcss_costs(2, 8, 8, 2, 2, meta_k=0, reuse=True)
    b = bcss_costs(2, 8, 8, 2, 2, meta_k=0, reuse=False)
    assert a.flops == b.flops
    assert a.memops == b.memops


def test_reuse_strictly_cheaper_from_m3():
    on = bcss_costs(3, 8, 8, 2, 2, meta_k=0, reuse=True)
    off = bcss_costs(3, 8, 8, 2, 2, meta_k=0, reuse=False)
    assert on.flops < off.flops


def test_no_reuse_flops_collapse_to_direct_formula():
    for m, n, b in [(3, 8, 2), (4, 8, 4), (5, 4, 2)]:
        pbar = n // b
        direct = sum(
            2 * b ** (d + 1) * n ** (m - d) * math.comb(pbar + d, d + 1)
            for d in range(m)
        )
        assert bcss_costs(m, n, n, b, b, meta_k=0, reuse=False).flops == direct


def test_blocked_parameter_validation():
    with pytest.raises(ParameterError):
        bcss_costs(2, 4, 4, 3, 2)
    with pytest.raises(ParameterError):
        bcss_costs(2, 4, 4, 2, 3)
    with pytest.raises(ParameterError):
        bcss_costs(1, 4, 4, 2, 2)


def test_temporaries_payload_and_meta_are_separate():
    rep = bcss_costs(3, 8, 8, 2, 2, meta_k=2)
    nbar = 4
    payload = 2 * 2 ** 2 * sum(
        simplex_count(nbar, 3 - d - 1) for d in range(2)
    )
    assert rep.storage_temps == payload
    assert rep.storage_temps_meta == 2 * (nbar + nbar**2)
    assert rep.storage_temps_total == payload + 2 * (nbar + nbar**2)


def test_impl_memops_anchor_and_ratio_to_model_below_two():
    assert bcss_impl_memops(5, 32, 32, 8, 8) == 241_172_480
    for m, (n, b_a), (p, b_c), reuse in itertools.product(
        (2, 3, 5), [(8, 1), (8, 2), (12, 3), (8, 8)], [(8, 2), (6, 3), (4, 4)], (True, False)
    ):
        model = bcss_costs(m, n, p, b_a, b_c, meta_k=0, reuse=reuse).memops
        counted = bcss_impl_memops(m, n, p, b_a, b_c, reuse=reuse)
        nbar, r = n // b_a, Fraction(b_c, b_a)
        assert Fraction(counted, model) == (2 * nbar + 2 * r) / (nbar + 2 * r) < 2


def test_impl_memops_parameter_validation():
    with pytest.raises(ParameterError):
        bcss_impl_memops(2, 4, 4, 3, 2)
    with pytest.raises(ParameterError):
        bcss_impl_memops(1, 4, 4, 2, 2)


def closed_forms(m, n, p, b_a, b_c, meta_k, reuse):
    """The paper's closed forms, in rational arithmetic, with ``r = b_C/b_A``:
    ``{field: value}`` for a blocked CostReport plus ``impl_memops``."""
    nbar, pbar, r = n // b_a, p // b_c, Fraction(b_c, b_a)
    if reuse:
        middle = [math.comb(nbar + m - d - 2, m - d - 1) for d in range(m)]
    else:
        middle = [nbar ** (m - 1 - d) for d in range(m)]
    core = sum(math.comb(pbar + d, d + 1) * middle[d] * r**d for d in range(m))
    if reuse:
        temps = b_c * b_a ** (m - 1) * sum(middle[d] * r**d for d in range(m - 1))
        temps_meta = meta_k * sum(nbar ** (d + 1) for d in range(m - 1))
    else:
        temps = sum(b_c ** (d + 1) * n ** (m - 1 - d) for d in range(m - 1))
        temps_meta = 0
    return {
        "storage_A": b_a**m * math.comb(nbar + m - 1, m) + meta_k * nbar**m,
        "storage_C": b_c**m * math.comb(pbar + m - 1, m) + meta_k * pbar**m,
        "storage_temps": temps,
        "storage_temps_meta": temps_meta,
        "flops": 2 * nbar * b_c * b_a**m * core,
        "memops": (nbar + 2 * r) * b_a**m * core,
        "impl_memops": (2 * nbar + 2 * r) * b_a**m * core,
    }


@pytest.mark.parametrize("reuse", [True, False])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_level_sums_equal_the_closed_forms(m, reuse):
    # Every divisor pair with b_A != b_C, at p != n in both directions.
    for n, p in [(12, 6), (6, 12), (9, 6)]:
        for b_a, b_c in itertools.product(range(1, n + 1), range(1, p + 1)):
            if n % b_a or p % b_c or b_a == b_c:
                continue
            want = closed_forms(m, n, p, b_a, b_c, 3, reuse)
            rep = bcss_costs(m, n, p, b_a, b_c, meta_k=3, reuse=reuse)
            got = {f: getattr(rep, f) for f in want if f != "impl_memops"}
            got["impl_memops"] = bcss_impl_memops(m, n, p, b_a, b_c, reuse=reuse)
            assert got == want, (n, p, b_a, b_c)


# ------------------------------------------------------------ dense costs


def test_dense_flops_m2_is_4n3():
    n = 8
    assert dense_costs(2, n, n).flops == 4 * n**3


def test_dense_flops_anchor_448():
    assert dense_costs(3, 4, 2).flops == 448


def test_dense_rejects_p0_supports_p1():
    with pytest.raises(ParameterError):
        dense_costs(3, 4, 0)
    rep = dense_costs(3, 4, 1)
    assert rep.flops == 2 * (4**3 + 4**2 + 4)


def test_dense_costs_equal_the_chain_closed_forms():
    # Mode d of the chain reads p^d n^(m-d) elements, writes p^(d+1)
    # n^(m-1-d) and keeps that as a temporary unless it is the output.
    for m, n, p in itertools.product(range(2, 8), range(1, 13), range(1, 13)):
        rep = dense_costs(m, n, p)
        want = {
            "variant": "Dense", "b_a": n, "b_c": p, "meta_k": 0,
            "storage_A": n**m, "storage_C": p**m, "storage_X": p * n,
            "storage_temps": sum(p ** (d + 1) * n ** (m - 1 - d) for d in range(m - 1)),
            "storage_temps_meta": 0,
            "flops": 2 * sum(p ** (d + 1) * n ** (m - d) for d in range(m)),
            "memops": sum(
                p**d * n ** (m - d) + 2 * p ** (d + 1) * n ** (m - 1 - d) for d in range(m)
            ),
        }
        got = {f: getattr(rep, f) for f in want}
        assert got == want and all(type(got[f]) is type(want[f]) for f in want), (m, n, p)


def test_dense_storage_fields():
    rep = dense_costs(3, 4, 2)
    assert rep.storage_A == 64
    assert rep.storage_C == 8
    assert rep.storage_X == 8
    assert rep.storage_temps == 2 * 16 + 4 * 4


# ------------------------------------------------------------ degeneracies


@pytest.mark.parametrize("m,n", [(2, 8), (3, 8), (4, 4)])
def test_single_block_grid_degenerates_to_dense(m, n):
    blocked = bcss_costs(m, n, n, n, n, meta_k=0)
    dense = dense_costs(m, n, n)
    assert blocked.flops == dense.flops
    assert blocked.memops == dense.memops


def test_unit_block_payload_is_minimal_compact_count():
    for m, n in [(2, 16), (3, 8), (4, 8)]:
        rep = bcss_costs(m, n, n, 1, 1, meta_k=0)
        assert rep.storage_A == simplex_count(n, m)


# ------------------------------------------------------------ approximations


def test_speedup_limits():
    assert approx_costs(2, 8).speedup_limit == Fraction(3, 2)
    assert approx_costs(5, 8).speedup_limit == Fraction(45, 2)


def test_speedup_limit_growth_ratio():
    for m in range(2, 7):
        lo = approx_costs(m, 8).speedup_limit
        hi = approx_costs(m + 1, 8).speedup_limit
        assert hi / lo == Fraction(m + 2, 2)


def test_exact_flop_ratio_near_refined_constant():
    # The exact formula ratio approaches m * m! / 2^m within 25 percent
    # (measured against the exact value, in exact rational arithmetic).
    for m in (2, 3, 4):
        exact = Fraction(
            dense_costs(m, 256, 256).flops, bcss_costs(m, 256, 256, 1, 1, meta_k=0).flops
        )
        target = approx_costs(m, 256).speedup_limit_exact
        assert abs(target - exact) / exact <= Fraction(1, 4), m


def test_vandermonde_collapse_numerically():
    # sum_k C(a + k - 1, k) C(a + r - k - 1, r - k) over k = 0..r equals
    # C(2a + r - 1, r); the flop sum is that total minus the k = 0 term.
    for a, r in [(4, 3), (6, 5), (8, 4)]:
        total = sum(
            math.comb(a + k - 1, k) * math.comb(a + r - k - 1, r - k)
            for k in range(r + 1)
        )
        assert total == math.comb(2 * a + r - 1, r)


def test_approx_costs_fields_and_validation():
    est = approx_costs(3, 16, b=4)
    assert est.bcss_flops == Fraction(2 * 7 * 16**4, 6)
    assert est.dense_flops == 2 * 3 * 16**4
    assert est.bcss_memops == Fraction(6 * 7 * 16**3, 6)
    assert est.dense_memops == 9 * 16**3
    assert est.dense_temps == 2 * 16**3
    with pytest.raises(ParameterError):
        approx_costs(3, 16, b=5)
    # 2.5 used to raise a bare TypeError.
    with pytest.raises(ParameterError, match="requires integers"):
        approx_costs(2.5, 4)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_approx_storage_and_temps_converge_to_the_exact_model(m):
    # At a fixed block dimension the exact payloads over their closed forms
    # tend to 1 as n grows.  bcss_temps used to be n^m/m!, the operand's
    # form, which over-states the temporaries' payload by about n/(b m).
    b = 8
    gaps = []
    for n in (256, 1024, 4096):
        est = approx_costs(m, n, b)
        exact = bcss_costs(m, n, n, b, b, meta_k=0)
        gaps.append((abs(exact.storage_A / est.bcss_storage - 1),
                     abs(exact.storage_temps / est.bcss_temps - 1)))
    assert gaps[1][0] < gaps[0][0] / 3 and gaps[2][0] < gaps[1][0] / 3
    assert gaps[1][1] < gaps[0][1] / 3 and gaps[2][1] < gaps[1][1] / 3
    assert max(gaps[2]) < Fraction(1, 40)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_approx_flops_and_memops_converge_to_the_exact_model(m):
    # The level sums' leading constant is 2^m - 1: with 2^m the exact
    # flops and memops over their closed forms tended to 1 - 2^-m, not 1.
    b = 8
    gaps = []
    for n in (256, 1024, 4096):
        est = approx_costs(m, n, b)
        exact = bcss_costs(m, n, n, b, b, meta_k=0)
        gaps.append((abs(exact.flops / est.bcss_flops - 1),
                     abs(exact.memops / est.bcss_memops - 1)))
    assert gaps[1][0] < gaps[0][0] / 3 and gaps[2][0] < gaps[1][0] / 3
    assert gaps[1][1] < gaps[0][1] / 3 and gaps[2][1] < gaps[1][1] / 3
    assert max(gaps[2]) < Fraction(1, 40)


def test_approx_temps_need_a_block_dimension():
    assert approx_costs(4, 64).bcss_temps is None
    assert approx_costs(4, 64, 8).bcss_temps == Fraction(8 * 64**3, 6)


# ------------------------------------------------------------ savings table


def test_savings_table_published_points():
    expected = {2: (0.67, 1.33), 4: (0.80, 1.60), 8: (0.89, 1.78), 16: (0.94, 1.88)}
    for nbar, (want_min, want_dense) in expected.items():
        got_min, got_dense = savings_table(2, 512, 512 // nbar)
        assert abs(got_min - want_min) <= 0.005
        assert abs(got_dense - want_dense) <= 0.005


def test_savings_table_unit_block():
    got_min, got_dense = savings_table(2, 64, 1)
    assert got_min == 1.0
    assert abs(got_dense - 2 * 64 / 65) < 1e-12


def test_savings_table_validates():
    with pytest.raises(ParameterError):
        savings_table(2, 10, 3)


# ------------------------------------------------------------ metadata sweep


def test_metadata_sweep_extremes_and_anchor():
    rows, best = metadata_sweep(2, 16, 4)
    table = {b: (payload, total) for b, payload, total in rows}
    assert table[16] == (16**2 * 1, 16**2 + 4)  # single block: dense + k
    assert table[1][1] == 4 * 16**2 + simplex_count(16, 2)
    assert table[1][1] > 16**2  # unit blocks cost more than dense for k >= 1
    assert table[4] == (160, 224)
    assert best not in (1,)


def test_metadata_sweep_sqrt_block_closed_form():
    m, n, k = 2, 256, 4
    rows, _ = metadata_sweep(m, n, k)
    total = dict((b, t) for b, _, t in rows)[16]  # b = sqrt(n)
    approx = n ** (m / 2) * (k + n ** (m / 2) / math.factorial(m))
    assert abs(total - approx) / approx < 0.1


@pytest.mark.parametrize("m,n", [(3, 4.5), (2.0, 8), (3, True)])
def test_metadata_sweep_rejects_a_size_that_is_not_an_integer(m, n):
    # 4.5 used to raise a bare TypeError from range().
    with pytest.raises(ParameterError, match="requires integers"):
        metadata_sweep(m, n, 1)


def test_divisors_of_12():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


@pytest.mark.parametrize("n", [2.5, 0, -3, True, "4"])
def test_divisors_rejects_a_size_below_1_or_not_an_integer(n):
    # 2.5 used to raise a bare TypeError, and 0 and -3 returned [].
    with pytest.raises(ParameterError, match="integer n >= 1"):
        divisors(n)


def test_metadata_sweep_interior_minimum_m5():
    rows, best = metadata_sweep(5, 64, 30)
    totals = {b: t for b, _, t in rows}
    assert totals[best] < 64**5
    assert best not in (1, 64)
    assert totals[1] > 64**5


@pytest.mark.parametrize(
    "meta_k", [-1, -0.5, math.nan, math.inf, Fraction(-1, 8), True, "a", 1j, None]
)
def test_meta_k_must_be_finite_and_at_least_zero(meta_k):
    # The rule --meta-k follows: such a meta_k makes totals negative, NaN or
    # infinite, and the sweep's argmin meaningless.
    with pytest.raises(ParameterError, match="meta_k must be finite and at least 0"):
        metadata_sweep(3, 8, meta_k)
    with pytest.raises(ParameterError, match="meta_k must be finite and at least 0"):
        bcss_costs(3, 8, 8, 2, 2, meta_k=meta_k)


# ------------------------------------------------------------ crossover


def test_crossover_requires_square():
    with pytest.raises(ParameterError):
        crossover_table(3, 8, 4)
    # 4.5 used to raise a bare TypeError.
    with pytest.raises(ParameterError, match="requires integers"):
        crossover_table(3, 4.5, 4.5)


def test_crossover_flops_monotone_and_memops_blow_up():
    rows = crossover_table(5, 64, 64)
    by_b = {b: (f, mo) for b, f, mo in rows}
    bs = sorted(by_b)
    flops = [by_b[b][0] for b in bs]
    assert all(a <= b for a, b in zip(flops, flops[1:]))  # smaller b, fewer flops
    assert by_b[1][1] > by_b[64][1]  # unit blocks pay far more memops
    # Tail behavior: below some threshold, shrinking b increases memops.
    memops = [by_b[b][1] for b in bs]
    assert memops[0] > memops[1] > memops[2]


def test_crossover_m2_endpoints():
    rows = crossover_table(2, 64, 64)
    by_b = {b: mo for b, _, mo in rows}
    assert by_b[1] > by_b[64]
