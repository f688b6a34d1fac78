"""Acceptance suite: one test per shipping criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Criterion 7 (wall-clock trend) is informational unless SYMTENSOR_STRICT=1.
"""

import itertools
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from blocksym import (
    OpCounter,
    approx_costs,
    bcss_costs,
    compress,
    decompress,
    dense_costs,
    ipermute,
    is_sym_in_modes,
    max_relative_error,
    metadata_sweep,
    permute,
    random_matrix,
    random_symmetric,
    simplex_count,
    sttsm_bcss,
    sttsm_dense_ttm,
    sttsm_naive,
)
from blocksym.cli import probe_meta_k, time_dense_vs_blocked

SEED = 20240801


def verdict(n: int, ok: bool, text: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")


def sweep_b_values(n: int) -> list[int]:
    return sorted({1, 2, n // 2, n})


@pytest.fixture(scope="module")
def sweep():
    """Criterion-1 grid, shared by criteria 1, 2, and 6."""
    t0 = time.perf_counter()
    cases = []
    for m in (2, 3, 4, 5):
        for n in (4, 6, 8):
            a = random_symmetric(m, n, SEED + 7 * m + n)
            x = random_matrix(n, n, SEED + 11 * m + n)
            oracle = sttsm_naive(a, x)
            rng = np.random.default_rng(SEED + m * 13 + n)
            for b in sweep_b_values(n):
                packed = compress(a, b)
                out = sttsm_bcss(packed, x, b)
                err = max_relative_error(decompress(out), oracle)
                payload = packed.data.size
                payload_ok = payload == b**m * simplex_count(n // b, m)
                round_ok = bool(np.array_equal(decompress(packed).array, a.array))
                perm = tuple(rng.permutation(m).tolist())
                perm_ok = bool(
                    np.array_equal(ipermute(permute(a, perm), perm).array, a.array)
                )
                cases.append(
                    dict(m=m, n=n, b=b, err=err, payload_ok=payload_ok,
                         round_ok=round_ok, perm_ok=perm_ok)
                )
    elapsed = time.perf_counter() - t0
    return {"cases": cases, "elapsed": elapsed}


def test_criterion_1_oracle_equivalence(sweep):
    worst = max(sweep["cases"], key=lambda c: c["err"])
    ok = worst["err"] <= 1e-10 and sweep["elapsed"] < 60.0
    verdict(
        1,
        ok,
        f"blocked vs elementwise oracle over {len(sweep['cases'])} grid points: "
        f"worst max_rel={worst['err']:.2e} at (m={worst['m']}, n={worst['n']}, "
        f"b={worst['b']}), tol 1e-10; sweep {sweep['elapsed']:.1f}s < 60s",
    )
    assert worst["err"] <= 1e-10
    assert sweep["elapsed"] < 60.0


def test_criterion_2_storage_exactness(sweep):
    grid_ok = all(c["payload_ok"] for c in sweep["cases"])

    big = random_symmetric(2, 512, SEED)
    published = {2: (0.67, 1.33), 4: (0.80, 1.60), 8: (0.89, 1.78), 16: (0.94, 1.88)}
    ratio_fail = []
    minimal = simplex_count(512, 2)
    for nbar, (want_min, want_dense) in published.items():
        payload = compress(big, 512 // nbar).data.size
        got_min = minimal / payload
        got_dense = 512**2 / payload
        if abs(got_min - want_min) > 0.005 or abs(got_dense - want_dense) > 0.005:
            ratio_fail.append((nbar, got_min, got_dense))
    ok = grid_ok and not ratio_fail
    verdict(
        2,
        ok,
        "payload == b^m C(nbar+m-1, m) on all grid points; "
        f"n=512 measured ratios match published table +-0.005 "
        f"({'no deviations' if not ratio_fail else ratio_fail})",
    )
    assert grid_ok
    assert not ratio_fail


def test_criterion_3_counter_formula_agreement():
    bad = []
    memop_worst = 1.0
    for m, n in itertools.product((2, 3), (4, 8)):
        a = random_symmetric(m, n, SEED + m + n)
        x = random_matrix(n, n, SEED + m + n + 1)
        c = OpCounter()
        sttsm_dense_ttm(a, x, c)
        rep = dense_costs(m, n, n)
        if c.flops != rep.flops:
            bad.append(("dense", m, n, None, c.flops, rep.flops))
        ratio = c.memops / rep.memops
        memop_worst = max(memop_worst, ratio, 1 / ratio)
        if not 0.5 <= ratio <= 2.0:
            bad.append(("dense-memops", m, n, None, c.memops, rep.memops))
        for b in (1, 2, 4):
            packed = compress(a, b)
            for reuse in (True, False):
                c = OpCounter()
                sttsm_bcss(packed, x, b, c, reuse=reuse)
                rep = bcss_costs(m, n, n, b, b, meta_k=0, reuse=reuse)
                if c.flops != rep.flops:
                    bad.append(("bcss", m, n, (b, reuse), c.flops, rep.flops))
                ratio = c.memops / rep.memops
                memop_worst = max(memop_worst, ratio, 1 / ratio)
                if not 0.5 <= ratio <= 2.0:
                    bad.append(("bcss-memops", m, n, (b, reuse), c.memops, rep.memops))
    ok = not bad
    verdict(
        3,
        ok,
        "instrumented flops equal formulas exactly (dense column; blocked with "
        "and without temporary reuse) at m in {2,3}, n=p in {4,8}, b in {1,2,4}; "
        f"memop counts within 2x (worst factor {memop_worst:.2f})"
        + ("" if ok else f"; deviations: {bad}"),
    )
    assert not bad


def test_criterion_4_partially_symmetric_temporaries():
    combos = [
        (m, n, b) for m in (3, 4, 5) for n in (4, 6) for b in ((1, 2) if n == 4 else (2, 3))
    ]
    runs = 0
    worst = 0.0
    failures = []
    seed = 0
    while runs < 100:
        m, n, b = combos[runs % len(combos)]
        seed += 1
        a = random_symmetric(m, n, SEED + seed)
        x = random_matrix(n, n, SEED + 1000 + seed)
        packed = compress(a, b)

        def audit(k, temp, _case=(m, n, b, seed)):
            nonlocal worst
            dense = decompress(temp)
            from blocksym import symmetry_violation

            rel = symmetry_violation(dense, range(k))[0] if k >= 2 else 0.0
            worst = max(worst, rel)
            if not is_sym_in_modes(dense, range(k), 1e-12):
                failures.append((_case, k, rel))

        sttsm_bcss(packed, x, b, temp_hook=audit)
        runs += 1
    ok = not failures
    verdict(
        4,
        ok,
        f"all temporaries of {runs} seeded runs (m in {{3,4,5}}, n <= 6) are "
        f"symmetric in their leading modes within 1e-12 (worst {worst:.1e})"
        + ("" if ok else f"; failures: {failures[:3]}"),
    )
    assert not failures


def test_criterion_5_savings_asymptotics():
    payload_fail = []
    for m in (2, 3, 4):
        ratio = 64**m / simplex_count(64, m)
        if ratio < 0.8 * math.factorial(m):
            payload_fail.append((m, ratio))
    flop_fail = []
    reports = []
    for m in (2, 3, 4):
        exact = Fraction(
            dense_costs(m, 256, 256).flops,
            bcss_costs(m, 256, 256, 1, 1, meta_k=0).flops,
        )
        est = approx_costs(m, 256)
        gap = abs(est.speedup_limit_exact - exact) / exact
        reports.append(
            f"m={m}: exact {float(exact):.3f}, m*m!/2^m {float(est.speedup_limit_exact):.3f} "
            f"(gap {float(gap) * 100:.1f}%), (m+1)!/2^m {float(est.speedup_limit):.3f}"
        )
        if gap > Fraction(1, 4):
            flop_fail.append((m, float(gap)))
    ok = not payload_fail and not flop_fail
    verdict(
        5,
        ok,
        "payload ratio n^m / C(n+m-1,m) >= 0.8 m! at n=64; exact flop ratios "
        "within 25% of m*m!/2^m at n=p=256, b=1 [" + "; ".join(reports) + "]",
    )
    assert not payload_fail
    assert not flop_fail


def test_criterion_6_round_trips(sweep):
    bad = [c for c in sweep["cases"] if not (c["round_ok"] and c["perm_ok"])]
    ok = not bad
    verdict(
        6,
        ok,
        f"compress/decompress and permute/ipermute bitwise exact on all "
        f"{len(sweep['cases'])} grid points"
        + ("" if ok else f"; failures at {[(c['m'], c['n'], c['b']) for c in bad]}"),
    )
    assert not bad


def test_criterion_7_wall_clock_trend():
    m, n, b = 5, 32, 8
    strict = os.environ.get("SYMTENSOR_STRICT") == "1"
    try:
        dense_t, bcss_t = time_dense_vs_blocked(m, n, b, SEED)
    except MemoryError:
        verdict(7, True, "dense baseline does not fit in memory; trend not measurable "
                         "(informational)")
        return
    ok = bcss_t <= dense_t
    verdict(
        7,
        ok or not strict,
        f"median wall time at m=5, n=p=32, b=8: blocked {bcss_t:.3f}s vs dense "
        f"{dense_t:.3f}s (speedup {dense_t / bcss_t:.2f}x); "
        + ("gating (SYMTENSOR_STRICT=1)" if strict else "informational, non-gating"),
    )
    if strict:
        assert ok


def test_criterion_8_metadata_sweep():
    k, nbytes, entries = probe_meta_k(5, SEED)
    rows, best = metadata_sweep(5, 64, k)
    totals = {b: float(t) for b, _, t in rows}
    dense = 64**5
    interior = best not in (1, 64)
    below = totals[best] < dense
    unit_exceeds = k >= 1.0 and totals[1] > dense
    ok = interior and below and unit_exceeds
    verdict(
        8,
        ok,
        f"measured k = {k:.1f} floats/block ({nbytes} bytes / {entries} records); "
        f"total-with-meta curve over divisors of 64 has interior minimum at "
        f"b={best} ({totals[best]:.3e} < dense {dense:.3e}); unit blocks exceed "
        f"dense ({totals[1]:.3e})",
    )
    assert interior and below and unit_exceeds
