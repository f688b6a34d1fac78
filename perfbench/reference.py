"""Checks made apart from the library: NumPy only, no blocksym import.

Every function here recomputes what the library should produce from the
definitions (blocked symmetric storage, the change of basis as a chain of
tensor contractions, the file layout, the paper's closed forms) so that the
benchmark never compares the library against itself or against a stored
copy of earlier output.  A check returns ``None`` when it holds and a
one-line description naming the worst block when it does not.
"""

from __future__ import annotations

import itertools
import math
import struct
from fractions import Fraction

import numpy as np

REL_TOL = 1e-10


def canonical_keys(grid: int, m: int) -> list[tuple[int, ...]]:
    """Nondecreasing block indices in lexicographic order."""
    return list(itertools.combinations_with_replacement(range(grid), m))


def block_slices(key, b: int) -> tuple[slice, ...]:
    return tuple(slice(i * b, (i + 1) * b) for i in key)


def densify(blocks: dict, m: int, n: int, b: int) -> np.ndarray:
    """Full tensor from its canonical blocks.

    The logical block at ``(key[s_0], .., key[s_{m-1}])`` is the stored block
    of ``key`` with its modes transposed by ``s``; every grid index is such
    a reordering of exactly one canonical key.
    """
    out = np.empty((n,) * m, dtype=np.float64, order="F")
    perms = list(itertools.permutations(range(m)))
    for key, blk in blocks.items():
        placed: dict[tuple[int, ...], tuple[int, ...]] = {}
        for s in perms:
            placed.setdefault(tuple(key[j] for j in s), s)
        for idx, s in placed.items():
            out[block_slices(idx, b)] = np.transpose(blk, s)
    return out


def change_of_basis(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``t x_0 x x_1 x .. x_{m-1} x`` as a chain of ``tensordot`` calls.

    Each step contracts the current leading mode and appends the new one
    last, so after ``m`` steps the modes are back in order.
    """
    for _ in range(t.ndim):
        t = np.tensordot(t, x, axes=(0, 1))
    return t


def symmetry_problem(t: np.ndarray, b: int) -> str | None:
    """Exact invariance under every adjacent mode swap (generators of S_m)."""
    for a in range(t.ndim - 1):
        swapped = np.swapaxes(t, a, a + 1)
        if not np.array_equal(t, swapped):
            flat = int(np.argmax(np.abs(t - swapped)))
            idx = np.unravel_index(flat, t.shape)
            return (
                f"not symmetric under swapping modes {a},{a + 1}: "
                f"worst entry {tuple(int(i) for i in idx)} in block "
                f"{tuple(int(i) // b for i in idx)}"
            )
    return None


def blocks_problem(blocks: dict, ref: np.ndarray, b: int, grid: int, m: int) -> str | None:
    """Every canonical block present and within ``REL_TOL`` of ``ref``
    (relative to ``max |ref|``); names the worst block otherwise."""
    expected = set(canonical_keys(grid, m))
    if set(blocks) != expected:
        missing = sorted(expected - set(blocks))[:3]
        extra = sorted(set(blocks) - expected)[:3]
        return f"block keys differ from the hypertriangle: missing {missing}, extra {extra}"
    scale = float(np.max(np.abs(ref))) or 1.0
    worst_err, worst_key = -1.0, None
    for key, blk in blocks.items():
        err = float(np.max(np.abs(blk - ref[block_slices(key, b)]))) / scale
        if math.isnan(err):
            err = math.inf
        if err > worst_err:
            worst_err, worst_key = err, key
    if worst_err > REL_TOL:
        return f"worst block {worst_key} rel err {worst_err:.3e} > {REL_TOL:.0e}"
    return None


def dense_problem(result: np.ndarray, ref: np.ndarray, b: int) -> str | None:
    """Whole dense result within ``REL_TOL`` of ``ref``."""
    if result.shape != ref.shape:
        return f"shape {result.shape} != reference {ref.shape}"
    scale = float(np.max(np.abs(ref))) or 1.0
    diff = np.abs(result - ref)
    flat = int(np.argmax(diff))
    err = float(diff.reshape(-1)[flat]) / scale
    if not err <= REL_TOL:
        idx = tuple(int(i) for i in np.unravel_index(flat, ref.shape))
        return (
            f"worst block {tuple(i // b for i in idx)} (entry {idx}) "
            f"rel err {err:.3e} > {REL_TOL:.0e}"
        )
    return None


def same_blocks_problem(got: dict, want: dict) -> str | None:
    """Bitwise equality of two block dicts over the same keys."""
    if set(got) != set(want):
        return f"{len(got)} blocks against {len(want)} expected"
    for key, blk in want.items():
        if got[key].shape != blk.shape or not np.array_equal(got[key], blk):
            return f"block {key} differs bitwise"
    return None


BCSS_HEADER = struct.Struct("<4sHHQQ")


def bcss_file_bytes(blocks: dict, m: int, n: int, b: int) -> bytes:
    """The ``.bcss`` file the library should write: header, then canonical
    blocks in lexicographic order, each as little-endian doubles with mode 0
    fastest."""
    parts = [BCSS_HEADER.pack(b"BCSS", 1, m, n, b)]
    for key in canonical_keys(n // b, m):
        parts.append(np.asarray(blocks[key], dtype="<f8").tobytes(order="F"))
    return b"".join(parts)


def file_problem(raw: bytes, expected: bytes, m: int, n: int, b: int) -> str | None:
    if raw == expected:
        return None
    if raw[: BCSS_HEADER.size] != expected[: BCSS_HEADER.size]:
        return f"header {raw[:BCSS_HEADER.size]!r} != {expected[:BCSS_HEADER.size]!r}"
    if len(raw) != len(expected):
        return f"file has {len(raw)} bytes, expected {len(expected)}"
    block_bytes = 8 * b**m
    for i, key in enumerate(canonical_keys(n // b, m)):
        lo = BCSS_HEADER.size + i * block_bytes
        if raw[lo : lo + block_bytes] != expected[lo : lo + block_bytes]:
            return f"block {key} differs bitwise in the file"
    return "file differs"


def payload_elems(m: int, n: int, b: int) -> int:
    """``b^m * C(nbar + m - 1, m)``: the canonical blocks' element count."""
    return b**m * math.comb(n // b + m - 1, m)


def paper_flops(m: int, n: int, p: int, b_a: int, b_c: int, reuse: bool) -> int:
    """The paper's closed form for the blocked algorithm's flops.

    With reuse: ``2 nbar b_C b_A^m sum_d C(pbar+d, d+1) C(nbar+m-d-2, m-d-1)
    (b_C/b_A)^d``; without: ``sum_d 2 b_C^{d+1} n^{m-d} C(pbar+d, d+1)``.
    """
    nbar, pbar = n // b_a, p // b_c
    if reuse:
        core = sum(
            math.comb(pbar + d, d + 1) * math.comb(nbar + m - d - 2, m - d - 1)
            * Fraction(b_c, b_a) ** d
            for d in range(m)
        )
        total = 2 * nbar * b_c * b_a**m * core
    else:
        total = Fraction(
            sum(2 * b_c ** (d + 1) * n ** (m - d) * math.comb(pbar + d, d + 1) for d in range(m))
        )
    if total.denominator != 1:
        raise ValueError(f"closed form is not an integer: {total}")
    return int(total)


def temps_at_level(m: int, p: int, b_c: int, k: int) -> int:
    """Temporaries ``T(k)`` built in one call: ``C(pbar + m - 1 - k, m - k)``."""
    return math.comb(p // b_c + m - 1 - k, m - k)


def temp_payload_at_level(m: int, n: int, b_a: int, b_c: int, k: int) -> int:
    """Payload of one ``T(k)``: ``b_C^{m-k} b_A^k C(nbar + k - 1, k)``."""
    return b_c ** (m - k) * b_a**k * math.comb(n // b_a + k - 1, k)
