"""Analytical storage, flop, and memop models for the change of basis.

The blocked algorithm contracts modes ``k = m-1, .., 0`` in turn.  Level
``k`` runs ``C(pbar+m-1-k, m-k)`` times, and each run produces one block
per block index of its temporary: the canonical ``k``-tuples of the block
grid, ``C(nbar+k-1, k)`` of them, with partial-symmetry reuse, the whole
``nbar^k`` grid without.  A produced block holds ``b_A^k b_C^(m-k)``
elements and costs the flops of one ``(rest x n) @ (n x b_C)`` GEMM on a
gathered operand of ``rest n`` elements, ``rest = b_A^k b_C^(m-1-k)``,
however the implementation cuts that product into row panels.  Every
blocked count is an integer sum of these terms over the levels
(:func:`_levels`), so "instrumented counter equals formula" is testable
as integer equality.  Floating point appears only in ratio outputs and a
float ``meta_k``.

With ``nbar = n/b_A``, ``pbar = p/b_C``, ``r = b_C/b_A`` and ``d = m-1-k``,
the sums equal the paper's closed forms:

* blocked storage payload of an order-m symmetric tensor:
  ``b^m * C(nbar + m - 1, m)``; the redirection tables add ``k * nbar^m``
  float equivalents, ``k`` being the per-block meta cost.
* blocked flops (temporaries reused via partial symmetry):
  ``2 nbar b_C b_A^m * sum_d C(pbar+d, d+1) C(nbar+m-d-2, m-d-1) r^d``
  and with reuse disabled the middle binomial becomes ``nbar^{m-1-d}``,
  which collapses to ``sum_d 2 b_C^{d+1} n^{m-d} C(pbar+d, d+1)``.
* blocked memops: same sum scaled by ``(nbar + 2r) b_A^m``, 1 per
  gathered element and 2 per produced one; the implementation moves
  every gathered element twice and counts exactly ``(2 nbar + 2r) b_A^m``
  times the sum (:func:`bcss_impl_memops`).
* temporaries' payload ``b_C b_A^{m-1} sum_{d<m-1} C(nbar+m-d-2, m-d-1) r^d``
  with reuse and ``sum_{d<m-1} b_C^{d+1} n^{m-1-d}`` without; their meta
  ``k * sum_{d<m-1} nbar^{d+1}`` with reuse and 0 without.
* the dense chain (:func:`dense_costs`) is the case ``b_A = n, b_C = p``:
  flops ``2 p n^m sum_d (p/n)^d``, memops ``(1 + 2p/n) n^m sum_d (p/n)^d``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Union

from .dense import is_integer, is_real
from .errors import ParameterError
from .indexing import block_grid, simplex_count

Number = Union[int, float, Fraction]


def _check(m: int, *dims: int) -> None:
    """The models cover an integer order ``m >= 2`` and integer dimensions
    of at least 1."""
    if not all(map(is_integer, (m, *dims))) or m < 2 or min(dims) < 1:
        raise ParameterError(
            f"cost model requires integers m >= 2 and dimensions >= 1, got m={m!r}, dims={dims!r}"
        )


def _check_meta_k(meta_k: Number) -> None:
    """A per-block meta cost is a real number (:func:`~blocksym.dense.is_real`),
    finite and at least 0 (a NaN is neither)."""
    if not is_real(meta_k) or not 0 <= meta_k < math.inf:
        raise ParameterError(f"meta_k must be finite and at least 0, got {meta_k!r}")


def _payload(m: int, n: int, b: int) -> int:
    """``b^m * C(nbar + m - 1, m)``, the elements in the canonical blocks of
    an order-``m`` symmetric tensor of dimension ``n`` blocked at ``b``."""
    return b**m * simplex_count(block_grid(n, b), m)


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


def _levels(m: int, n: int, p: int, b_a: int, b_c: int, reuse: bool) -> Iterator[tuple]:
    """``(k, visits, blocks, gather, out)`` of each level ``k = m-1, .., 0``.

    Level ``k`` contracts mode ``k`` in ``visits`` runs.  Each run produces
    ``blocks`` blocks of ``out`` elements, each from a gathered operand of
    ``gather`` elements times a ``b_C``-row block of ``x``: one GEMM's
    flops, whether it runs as one call or as one per row panel.
    """
    _check(m, n, p)
    nbar, pbar = block_grid(n, b_a), block_grid(p, b_c)
    for k in range(m - 1, -1, -1):
        visits = math.comb(pbar + m - 1 - k, m - k)
        blocks = simplex_count(nbar, k) if reuse and k >= 1 else nbar**k
        yield k, visits, blocks, b_a**k * b_c ** (m - 1 - k) * n, b_a**k * b_c ** (m - k)


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
    _check_meta_k(meta_k)
    levels = list(_levels(m, n, p, b_a, b_c, reuse))
    nbar, pbar = n // b_a, p // b_c
    return CostReport(
        variant="BCSS",
        m=m,
        n=n,
        p=p,
        b_a=b_a,
        b_c=b_c,
        meta_k=meta_k,
        storage_A=_payload(m, n, b_a) + meta_k * nbar**m,
        storage_C=_payload(m, p, b_c) + meta_k * pbar**m,
        storage_X=p * n,
        storage_temps=sum(blocks * out for k, _, blocks, _, out in levels if k >= 1),
        storage_temps_meta=meta_k * sum(nbar**k for k in range(1, m)) if reuse else 0,
        flops=sum(v * blocks * 2 * gather * b_c for _, v, blocks, gather, _ in levels),
        memops=sum(v * blocks * (gather + 2 * out) for _, v, blocks, gather, out in levels),
    )


def bcss_impl_memops(m: int, n: int, p: int, b_a: int, b_c: int, reuse: bool = True) -> int:
    """Memops ``sttsm_bcss`` counts: ``2 (gather + out)`` per produced block.

    Each produced block copies its ``nbar`` summand blocks into the GEMM
    operand and copies its result into its slab, 2 memops per element each
    time.  The paper's model in :func:`bcss_costs` charges
    ``gather + 2 out``, 1 per summand element and 2 per result element, so
    counted over modelled is ``(2 nbar + 2r) / (nbar + 2r)`` with
    ``r = b_C/b_A``, which is below 2 for every ``r > 0``.
    """
    return sum(
        v * blocks * 2 * (gather + out)
        for _, v, blocks, gather, out in _levels(m, n, p, b_a, b_c, reuse)
    )


def dense_costs(m: int, n: int, p: int) -> CostReport:
    """Costs of the dense mode-product chain: the blocked algorithm at one
    block per mode, ``b_A = n`` and ``b_C = p``."""
    return replace(bcss_costs(m, n, p, n, p, meta_k=0), variant="Dense")


@dataclass(frozen=True)
class ApproxCosts:
    """Large-n closed forms under ``n = p`` and equal block dimensions.

    ``bcss_storage`` is ``n^m/m!``, and ``bcss_temps``, the temporaries'
    payload with reuse, ``b n^(m-1)/(m-1)!``; ``bcss_flops`` is
    ``2 (2^m-1) n^(m+1)/m!`` and ``bcss_memops`` ``(nbar+2)(2^m-1) n^m/m!``.
    At a fixed block dimension ``b`` the exact model's ``storage_A``,
    ``storage_temps``, ``flops`` and ``memops`` approach them as ``n``
    grows.  ``bcss_temps`` and ``bcss_memops`` need ``b``, and are ``None``
    without it.

    ``speedup_limit`` is the commonly quoted flop-ratio constant
    ``(m+1)!/2^m``; ``speedup_limit_exact`` keeps the ``m * m!`` numerator
    unapproximated.  Both are large-n simplifications of the exact formula
    ratio ``dense_costs(...).flops / bcss_costs(...).flops``.
    """

    m: int
    n: int
    bcss_storage: Fraction
    bcss_temps: Fraction | None
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
    _check(m, n)
    fact = math.factorial(m)
    temps = memops = None
    if b is not None:
        memops = Fraction((block_grid(n, b) + 2) * (2**m - 1) * n**m, fact)
        temps = Fraction(b * n ** (m - 1), math.factorial(m - 1))
    return ApproxCosts(
        m=m,
        n=n,
        bcss_storage=Fraction(n**m, fact),
        bcss_temps=temps,
        bcss_flops=Fraction(2 * (2**m - 1) * n ** (m + 1), fact),
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
    _check(m, n)
    payload = _payload(m, n, b)
    return simplex_count(n, m) / payload, n**m / payload


def divisors(n: int) -> list[int]:
    """Divisors of ``n``, ascending; :class:`ParameterError` unless ``n`` is an integer >= 1."""
    if not is_integer(n) or n < 1:
        raise ParameterError(f"divisors needs an integer n >= 1, got {n!r}")
    return [b for b in range(1, n + 1) if n % b == 0]


def metadata_sweep(
    m: int, n: int, meta_k: Number
) -> tuple[list[tuple[int, int, Number]], int]:
    """Total storage (payload + meta) per block-dimension divisor of ``n``.

    Returns ``([(b, payload, total)], argmin_b)`` where
    ``total = meta_k * nbar^m + b^m * C(nbar + m - 1, m)``.
    """
    _check(m, n)
    _check_meta_k(meta_k)
    rows = []
    for b in divisors(n):
        payload = _payload(m, n, b)
        rows.append((b, payload, payload + meta_k * (n // b) ** m))
    best = min(rows, key=lambda r: r[2])[0]
    return rows, best


def crossover_table(m: int, n: int, p: int) -> list[tuple[int, int, int]]:
    """(b, flops, memops) of the blocked algorithm per divisor of ``n``.

    Shrinking the block dimension lowers flops but, past a point, the
    permutation traffic grows sharply; the two columns expose the
    crossover.
    """
    _check(m, n, p)
    if n != p:
        raise ParameterError("crossover_table assumes n = p")
    rows = []
    for b in divisors(n):
        rep = bcss_costs(m, n, p, b, b, meta_k=0)
        rows.append((b, rep.flops, rep.memops))
    return rows
