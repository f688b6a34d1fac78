"""Analytical storage, flop, and memop models for the change of basis.

Every exact formula is evaluated in integer/rational arithmetic
(``fractions.Fraction`` for the ``(b_C/b_A)^d`` terms, which always cancel
back to integers) so that "instrumented counter equals formula" is testable
as integer equality.  Floating point appears only in ratio outputs.

Closed forms, with ``nbar = n/b_A`` and ``pbar = p/b_C``:

* blocked storage payload of an order-m symmetric tensor:
  ``b^m * C(nbar + m - 1, m)``; the redirection tables add ``k * nbar^m``
  float equivalents, ``k`` being the per-block meta cost.
* blocked flops (temporaries reused via partial symmetry):
  ``2 nbar b_C b_A^m * sum_d C(pbar+d, d+1) C(nbar+m-d-2, m-d-1) (b_C/b_A)^d``
  and with reuse disabled the middle binomial becomes ``nbar^{m-1-d}``,
  which collapses to ``sum_d 2 b_C^{d+1} n^{m-d} C(pbar+d, d+1)``.
* blocked memops: same sum scaled by ``(nbar + 2 b_C/b_A) b_A^m``; the
  implementation moves every summand block twice as often as this model
  charges and counts exactly ``(2 nbar + 2 b_C/b_A) b_A^m`` times the sum
  (:func:`bcss_impl_memops`).
* dense flops ``2 p n^m sum_d (p/n)^d`` and memops
  ``(1 + 2p/n) n^m sum_d (p/n)^d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ParameterError
from .indexing import simplex_count

Number = Union[int, float, Fraction]


def _as_int(x: Fraction, what: str) -> int:
    if x.denominator != 1:
        raise ParameterError(f"{what} did not reduce to an integer: {x}")
    return int(x)


@dataclass(frozen=True)
class CostReport:
    """One row of the cost model: storage in elements, flops, memops.

    ``storage_temps`` is the temporaries' payload; their meta cost is kept
    separate in ``storage_temps_meta`` and only summed when reporting.
    ``storage_A``/``storage_C`` already include the meta term
    ``meta_k * grid^m`` for the blocked variant.
    """

    variant: str
    m: int
    n: int
    p: int
    b_a: int
    b_c: int
    meta_k: Number
    storage_A: Number
    storage_C: Number
    storage_X: int
    storage_temps: int
    storage_temps_meta: Number
    flops: int
    memops: int

    @property
    def storage_temps_total(self) -> Number:
        return self.storage_temps + self.storage_temps_meta


def _validate_blocked(m: int, n: int, p: int, b_a: int, b_c: int) -> tuple[int, int]:
    if m < 2:
        raise ParameterError("cost model is defined for order >= 2")
    if n < 1 or p < 1 or b_a < 1 or b_c < 1:
        raise ParameterError("dimensions and block dimensions must be positive")
    if n % b_a != 0:
        raise ParameterError(f"b_A={b_a} does not divide n={n}")
    if p % b_c != 0:
        raise ParameterError(f"b_C={b_c} does not divide p={p}")
    return n // b_a, p // b_c


def _level_sum(m: int, nbar: int, pbar: int, ratio: Fraction, reuse: bool) -> Fraction:
    """``sum_d C(pbar+d, d+1) * blocks(d) * (b_C/b_A)^d``, the level sum that
    every blocked flop and memop formula scales.

    Level ``d`` contracts mode ``k = m-1-d``; each of its ``C(pbar+d, d+1)``
    visits produces ``blocks(d)`` blocks: the canonical ``k``-tuples with
    reuse, the whole ``nbar^k`` grid without.
    """
    total = Fraction(0)
    for d in range(m):
        k = m - 1 - d
        blocks = simplex_count(nbar, k) if reuse and k >= 1 else nbar**k
        total += math.comb(pbar + d, d + 1) * blocks * ratio**d
    return total


def bcss_costs(
    m: int,
    n: int,
    p: int,
    b_a: int,
    b_c: int,
    meta_k: Number = 1,
    reuse: bool = True,
) -> CostReport:
    """Costs of the blocked algorithm on compact symmetric storage.

    ``reuse`` mirrors the algorithm toggle: with partial-symmetry reuse the
    temporary-level block counts are simplex numbers, without it they are
    full grid powers.
    """
    nbar, pbar = _validate_blocked(m, n, p, b_a, b_c)
    ratio = Fraction(b_c, b_a)
    core = _level_sum(m, nbar, pbar, ratio, reuse)
    flops = _as_int(2 * nbar * b_c * b_a**m * core, "blocked flop count")
    memops = _as_int((nbar + 2 * ratio) * b_a**m * core, "blocked memop count")

    payload_A = b_a**m * simplex_count(nbar, m)
    payload_C = b_c**m * simplex_count(pbar, m)
    if reuse:
        temps = _as_int(
            b_c
            * b_a ** (m - 1)
            * sum(simplex_count(nbar, m - d - 1) * ratio**d for d in range(m - 1)),
            "temporary payload",
        )
        temps_meta = meta_k * sum(nbar ** (d + 1) for d in range(m - 1))
    else:
        temps = sum(b_c ** (d + 1) * n ** (m - 1 - d) for d in range(m - 1))
        temps_meta = 0
    return CostReport(
        variant="BCSS",
        m=m,
        n=n,
        p=p,
        b_a=b_a,
        b_c=b_c,
        meta_k=meta_k,
        storage_A=payload_A + meta_k * nbar**m,
        storage_C=payload_C + meta_k * pbar**m,
        storage_X=p * n,
        storage_temps=temps,
        storage_temps_meta=temps_meta,
        flops=flops,
        memops=memops,
    )


def bcss_impl_memops(
    m: int, n: int, p: int, b_a: int, b_c: int, reuse: bool = True
) -> int:
    """Memops ``sttsm_bcss`` counts: ``(2 nbar + 2 b_C/b_A) b_A^m * core``.

    ``core`` is the level sum of :func:`bcss_costs`.  Each produced block
    copies its ``nbar`` summand blocks into the GEMM operand and copies its
    result back to logical mode order, 2 memops per element each time.  The
    paper's model in :func:`bcss_costs`, ``(nbar + 2 b_C/b_A) b_A^m * core``,
    charges 1 per summand element and 2 per result element, so counted over
    modelled is ``(2 nbar + 2r) / (nbar + 2r)`` with ``r = b_C/b_A``, which
    is below 2 for every ``r > 0``.
    """
    nbar, pbar = _validate_blocked(m, n, p, b_a, b_c)
    ratio = Fraction(b_c, b_a)
    core = _level_sum(m, nbar, pbar, ratio, reuse)
    return _as_int((2 * nbar + 2 * ratio) * b_a**m * core, "implementation memop count")


def dense_costs(m: int, n: int, p: int) -> CostReport:
    """Costs of the dense mode-product chain (no symmetry, no blocking)."""
    if m < 2:
        raise ParameterError("cost model is defined for order >= 2")
    if n < 1 or p < 1:
        raise ParameterError("dimensions must be positive")
    flops = 2 * sum(p ** (d + 1) * n ** (m - d) for d in range(m))
    memops = sum(
        p**d * n ** (m - d) + 2 * p ** (d + 1) * n ** (m - 1 - d) for d in range(m)
    )
    temps = sum(p ** (d + 1) * n ** (m - 1 - d) for d in range(m - 1))
    return CostReport(
        variant="Dense",
        m=m,
        n=n,
        p=p,
        b_a=n,
        b_c=p,
        meta_k=0,
        storage_A=n**m,
        storage_C=p**m,
        storage_X=p * n,
        storage_temps=temps,
        storage_temps_meta=0,
        flops=flops,
        memops=memops,
    )


@dataclass(frozen=True)
class ApproxCosts:
    """Large-n closed forms under ``n = p`` and equal block dimensions.

    ``speedup_limit`` is the commonly quoted flop-ratio constant
    ``(m+1)!/2^m``; ``speedup_limit_exact`` keeps the ``m * m!`` numerator
    unapproximated.  Both are large-n simplifications of the exact formula
    ratio ``dense_costs(...).flops / bcss_costs(...).flops``.
    """

    m: int
    n: int
    bcss_storage: Fraction
    bcss_temps: Fraction
    bcss_flops: Fraction
    bcss_memops: Fraction | None
    dense_storage: int
    dense_temps: int
    dense_flops: int
    dense_memops: int
    speedup_limit: Fraction
    speedup_limit_exact: Fraction


def approx_costs(m: int, n: int, b: int | None = None) -> ApproxCosts:
    """Limit-regime cost estimates (tensor dims equal, block dims equal)."""
    if m < 2 or n < 1:
        raise ParameterError("approx_costs requires m >= 2 and n >= 1")
    if b is not None and n % b != 0:
        raise ParameterError(f"block dimension {b} does not divide {n}")
    fact = math.factorial(m)
    memops = None
    if b is not None:
        nbar = n // b
        memops = Fraction((nbar + 2) * (2 * n) ** m, fact)
    return ApproxCosts(
        m=m,
        n=n,
        bcss_storage=Fraction(n**m, fact),
        bcss_temps=Fraction(n**m, fact),
        bcss_flops=Fraction((2 * n) ** (m + 1), fact),
        bcss_memops=memops,
        dense_storage=n**m,
        dense_temps=(m - 1) * n**m,
        dense_flops=2 * m * n ** (m + 1),
        dense_memops=3 * m * n**m,
        speedup_limit=Fraction(math.factorial(m + 1), 2**m),
        speedup_limit_exact=Fraction(m * fact, 2**m),
    )


def savings_table(m: int, n: int, b: int) -> tuple[float, float]:
    """(minimal / blocked, dense / blocked) storage payload ratios."""
    if m < 2 or n < 1:
        raise ParameterError("savings_table requires m >= 2 and n >= 1")
    if n % b != 0:
        raise ParameterError(f"block dimension {b} does not divide {n}")
    payload = b**m * simplex_count(n // b, m)
    return simplex_count(n, m) / payload, n**m / payload


def divisors(n: int) -> list[int]:
    return [b for b in range(1, n + 1) if n % b == 0]


def metadata_sweep(
    m: int, n: int, meta_k: Number
) -> tuple[list[tuple[int, int, Number]], int]:
    """Total storage (payload + meta) per block-dimension divisor of ``n``.

    Returns ``([(b, payload, total)], argmin_b)`` where
    ``total = meta_k * nbar^m + b^m * C(nbar + m - 1, m)``.
    """
    if m < 2 or n < 1:
        raise ParameterError("metadata_sweep requires m >= 2 and n >= 1")
    rows = []
    for b in divisors(n):
        nbar = n // b
        payload = b**m * simplex_count(nbar, m)
        rows.append((b, payload, payload + meta_k * nbar**m))
    best = min(rows, key=lambda r: r[2])[0]
    return rows, best


def crossover_table(m: int, n: int, p: int) -> list[tuple[int, int, int]]:
    """(b, flops, memops) of the blocked algorithm per divisor of ``n``.

    Shrinking the block dimension lowers flops but, past a point, the
    permutation traffic grows sharply; the two columns expose the
    crossover.
    """
    if n != p:
        raise ParameterError("crossover_table assumes n = p")
    rows = []
    for b in divisors(n):
        rep = bcss_costs(m, n, p, b, b, meta_k=0)
        rows.append((b, rep.flops, rep.memops))
    return rows
