"""Command-line driver: verification sweeps, benchmarks, cost tables.

Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
The environment variable ``SYMTENSOR_MAX_DENSE_ELEMS`` (a positive
integer, default 10**7) caps how large a dense tensor the verify/bench
commands will materialize; oversized dense baselines are reported as skipped
rather than attempted.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import costs as cost_model
from .change_of_basis import (
    max_relative_error,
    sttsm_bcss,
    sttsm_dense_ttm,
    sttsm_naive,
    sttsm_scalar_temps,
)
from .counters import OpCounter
from .dense import DenseTensor, Permutation, ipermute, permute
from .errors import BlockDivisibilityError, ParameterError
from .generate import random_bcss, random_matrix, random_symmetric
from .storage import BcssTensor, compress, decompress, measured_meta_k, meta_bytes

DEFAULT_MAX_DENSE = 10**7


def dense_elem_cap() -> int:
    raw = os.environ.get("SYMTENSOR_MAX_DENSE_ELEMS")
    if not raw:
        return DEFAULT_MAX_DENSE
    if not raw.isdecimal() or int(raw) < 1:
        raise ParameterError(f"SYMTENSOR_MAX_DENSE_ELEMS must be a positive integer, got {raw!r}")
    return int(raw)


@dataclass
class CheckResult:
    case: tuple[int, int, int, int, int]  # (m, n, p, b_a, b_c)
    name: str
    value: float
    tol: float
    ok: bool
    detail: str = ""

    def line(self) -> str:
        m, n, p, b_a, b_c = self.case
        status = "ok" if self.ok else "FAIL"
        extra = f" {self.detail}" if self.detail else ""
        return (
            f"m={m} n={n} p={p} b_A={b_a} b_C={b_c} {self.name}: "
            f"max_rel={self.value:.3e} tol={self.tol:.1e} {status}{extra}"
        )


def compare_bcss_dense(result: BcssTensor, oracle: DenseTensor) -> tuple[float, tuple]:
    """Max relative error over stored blocks, plus the worst block index."""
    scale = float(np.max(np.abs(oracle.array))) or 1.0
    b = result.b
    worst = (0.0, next(iter(result.blocks)))
    for key, blk in result.blocks.items():
        sl = tuple(slice(i * b, (i + 1) * b) for i in key)
        err = float(np.max(np.abs(blk - oracle.array[sl]))) / scale
        if err > worst[0]:
            worst = (err, key)
    return worst


def verify_case(
    m: int,
    n: int,
    p: int,
    b_a: int,
    b_c: int,
    seed: int,
    tol: float = 1e-10,
    corrupt_block: tuple | None = None,
) -> list[CheckResult]:
    """Cross-algorithm equivalence, round trips, and counter checks for one
    parameter point.  ``corrupt_block`` perturbs that block of the blocked
    result before comparison (fault-injection hook for tests)."""
    case = (m, n, p, b_a, b_c)
    a = random_symmetric(m, n, seed)
    x = random_matrix(p, n, seed + 1)
    oracle = sttsm_naive(a, x)
    results: list[CheckResult] = []

    err = max_relative_error(sttsm_scalar_temps(a, x), oracle)
    results.append(CheckResult(case, "scalar_temps vs naive", err, tol, err <= tol))

    dense_counter = OpCounter()
    dense = sttsm_dense_ttm(a, x, dense_counter)
    err = max_relative_error(dense, oracle)
    results.append(CheckResult(case, "dense_ttm vs naive", err, tol, err <= tol))

    packed = compress(a, b_a)
    round_trip = decompress(packed)
    exact = bool(np.array_equal(round_trip.array, a.array))
    results.append(
        CheckResult(case, "compress/decompress bitwise", 0.0 if exact else 1.0, 0.0, exact)
    )

    rng = np.random.default_rng(seed + 2)
    perm = Permutation(tuple(rng.permutation(m).tolist()))
    back = ipermute(permute(a, perm), perm)
    exact = bool(np.array_equal(back.array, a.array))
    results.append(
        CheckResult(case, "permute/ipermute bitwise", 0.0 if exact else 1.0, 0.0, exact)
    )

    for reuse in (True, False):
        counter = OpCounter()
        out = sttsm_bcss(packed, x, b_c, counter, reuse=reuse)
        if corrupt_block is not None:
            out.blocks[tuple(corrupt_block)] = out.blocks[tuple(corrupt_block)] + 1.0
        err, worst = compare_bcss_dense(out, oracle)
        label = f"bcss(reuse={'on' if reuse else 'off'}) vs naive"
        detail = f"worst block {worst}" if err > tol else ""
        results.append(CheckResult(case, label, err, tol, err <= tol, detail))

        formula = cost_model.bcss_costs(m, n, p, b_a, b_c, meta_k=0, reuse=reuse)
        ok = counter.flops == formula.flops
        results.append(
            CheckResult(
                case,
                f"bcss(reuse={'on' if reuse else 'off'}) flops == formula",
                0.0 if ok else 1.0,
                0.0,
                ok,
                f"counted {counter.flops}, formula {formula.flops}" if not ok else "",
            )
        )
        ratio = counter.memops / formula.memops if formula.memops else 1.0
        ok = 0.5 <= ratio <= 2.0
        results.append(
            CheckResult(
                case,
                f"bcss(reuse={'on' if reuse else 'off'}) memops within 2x",
                ratio,
                2.0,
                ok,
            )
        )

    dense_formula = cost_model.dense_costs(m, n, p)
    ok = dense_counter.flops == dense_formula.flops
    results.append(
        CheckResult(
            case,
            "dense flops == formula",
            0.0 if ok else 1.0,
            0.0,
            ok,
            f"counted {dense_counter.flops}, formula {dense_formula.flops}" if not ok else "",
        )
    )
    return results


def default_verify_cases() -> list[tuple[int, int, int]]:
    return [(m, n, b) for m in (2, 3, 4) for n in (4, 6) for b in (1, 2)]


def cmd_verify(args) -> int:
    if args.m is not None:
        n = _given(args.n, 4)
        cases = [(args.m, n, _given(args.ba, 1))]
    else:
        cases = default_verify_cases()
    cap = dense_elem_cap()
    failures = 0
    for m, n, b in cases:
        if n**m > cap:
            raise ParameterError(
                f"dense oracle for m={m}, n={n} exceeds SYMTENSOR_MAX_DENSE_ELEMS={cap}"
            )
        p = _given(args.p, n)
        b_c = _given(args.bc, b)
        for res in verify_case(m, n, p, b, b_c, args.seed):
            print(res.line())
            if not res.ok:
                failures += 1
    if failures:
        print(f"{failures} checks failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _given(value: int | None, default: int) -> int:
    """An optional option's value, or ``default`` when it was not given."""
    return default if value is None else value


def _check_options(args) -> None:
    """Dimensions, block dimensions and grid extents are at least one, the
    meta cost is finite and not negative, and timings take three or more
    repetitions."""
    for flag in ("n", "p", "ba", "bc", "nbar"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ParameterError(f"--{flag} must be at least 1, got {value}")
    if not 0 <= args.meta_k < math.inf:
        raise ParameterError(f"--meta-k must be finite and at least 0, got {args.meta_k}")
    if args.reps < 3:
        raise ParameterError(f"--reps must be at least 3, got {args.reps}")


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cmd_bench(args) -> int:
    m, n = _given(args.m, 3), _given(args.n, 8)
    p = _given(args.p, n)
    b_a = _given(args.ba, max(1, n // 2))
    b_c = _given(args.bc, b_a)
    algos = ["naive", "scalar", "dense", "bcss"] if args.algo == "all" else [args.algo]
    cap = dense_elem_cap()
    dense_ok = n**m <= cap and p**m <= cap

    rows = []
    wall: dict[str, float] = {}
    a = random_symmetric(m, n, args.seed) if dense_ok else None
    x = random_matrix(p, n, args.seed + 1)
    packed = None
    if "bcss" in algos:
        if dense_ok:
            packed = compress(a, b_a)
        else:
            # Build the compact operand directly; the dense source never exists.
            packed = random_bcss(m, n, b_a, args.seed)

    for algo in algos:
        if algo in ("naive", "scalar", "dense") and not dense_ok:
            formula = cost_model.dense_costs(m, n, p) if algo == "dense" else None
            rows.append(
                [algo, m, n, p, b_a, b_c, args.seed, "skipped",
                 formula.flops if formula else "", formula.memops if formula else ""]
            )
            continue
        counter = OpCounter()
        if algo == "naive":
            fn = lambda c=None: sttsm_naive(a, x, c)
        elif algo == "scalar":
            fn = lambda c=None: sttsm_scalar_temps(a, x, c)
        elif algo == "dense":
            fn = lambda c=None: sttsm_dense_ttm(a, x, c)
        else:
            fn = lambda c=None: sttsm_bcss(packed, x, b_c, c)
        fn(counter)
        seconds = _median_seconds(fn, args.reps)
        wall[algo] = seconds
        rows.append(
            [algo, m, n, p, b_a, b_c, args.seed, f"{seconds:.6f}", counter.flops, counter.memops]
        )

    out = _io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["algorithm", "m", "n", "p", "b_A", "b_C", "seed", "wall_seconds", "flops", "memops"]
    )
    writer.writerows(rows)
    if "dense" in wall and "bcss" in wall and wall["bcss"] > 0:
        out.write(f"# speedup dense/bcss: {wall['dense'] / wall['bcss']:.3f}\n")
    _emit(out.getvalue(), args.out)
    return 0


def _model_sweep(args) -> list[tuple[int, int]]:
    """(n, b) points: fixed block dimension or fixed grid extent."""
    n_max = _given(args.n, 64)
    points = []
    if args.nbar is not None:
        n = args.nbar
        while n <= n_max:
            points.append((n, n // args.nbar))
            n *= 2
    else:
        b = _given(args.ba, 8)
        n = b
        while n <= n_max:
            points.append((n, b))
            n *= 2
    return points


def cmd_model(args) -> int:
    m = _given(args.m, 4)
    out = _io.StringIO()
    writer = csv.writer(out)
    writer.writerow(
        ["variant", "m", "n", "p", "b_A", "b_C", "storage_A", "storage_C",
         "storage_X", "storage_temps", "flops", "memops"]
    )
    for n, b in _model_sweep(args):
        p = _given(args.p, n)
        try:
            blocked = cost_model.bcss_costs(m, n, p, b, _given(args.bc, b), meta_k=args.meta_k)
        except BlockDivisibilityError:
            continue  # the output block dimension does not divide this point's p
        for rep in (blocked, cost_model.dense_costs(m, n, p)):
            writer.writerow(
                [rep.variant, rep.m, rep.n, rep.p, rep.b_a, rep.b_c,
                 rep.storage_A, rep.storage_C, rep.storage_X,
                 rep.storage_temps_total, rep.flops, rep.memops]
            )
    _emit(out.getvalue(), args.out)
    return 0


def probe_meta_k(m: int, seed: int = 0) -> tuple[float, int, int]:
    """Measure the per-block meta cost of this implementation.

    Builds a small instance (grid extent 4, unit blocks), returns
    ``(k_in_float_equivalents, meta_bytes, meta_entries)``.
    """
    probe = compress(random_symmetric(m, 4, seed), 1)
    return measured_meta_k(probe), meta_bytes(probe), probe.tables.rank.size


def cmd_storage(args) -> int:
    m, n = _given(args.m, 5), _given(args.n, 64)
    k, probe_bytes, probe_entries = probe_meta_k(m, args.seed)
    rows, best = cost_model.metadata_sweep(m, n, k)
    cap = dense_elem_cap()
    lines = [
        f"meta probe: {probe_bytes} bytes over {probe_entries} blocks -> k = {k:.3f} floats/block",
        f"dense element count n^m = {n**m}",
    ]
    measured_col = {}
    if n**m <= cap:
        dense = random_symmetric(m, n, args.seed)
        for b, _, _ in rows:
            if (n // b) ** m <= 10**5:
                measured_col[b] = compress(dense, b).stored_element_count()[0]
    if args.csv:
        out = _io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["b", "payload", "measured_payload", "total_with_meta"])
        for b, payload, total in rows:
            writer.writerow([b, payload, measured_col.get(b, ""), f"{float(total):.1f}"])
        out.write(f"# argmin b = {best}\n")
        _emit(out.getvalue(), args.out)
        return 0
    for b, payload, total in rows:
        measured = measured_col.get(b)
        tag = f" measured={measured}" if measured is not None else ""
        marker = "  <-- min" if b == best else ""
        lines.append(f"b={b:>5}  payload={payload:>14}  total={float(total):>16.1f}{tag}{marker}")
    lines.append(f"argmin b = {best}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_or_float(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blocksym",
        description="Symmetric-tensor change-of-basis toolkit: verify, bench, "
        "cost model, storage report.",
    )
    ap.add_argument("--cmd", required=True, choices=["verify", "bench", "model", "storage"])
    ap.add_argument("--m", type=int, help="tensor order (>= 2)")
    ap.add_argument("--n", type=int, help="input dimension per mode")
    ap.add_argument("--p", type=int, help="output dimension per mode (default n)")
    ap.add_argument("--ba", type=int, help="input block dimension")
    ap.add_argument("--bc", type=int, help="output block dimension (default ba)")
    ap.add_argument("--nbar", type=int, help="fixed block-grid extent for model sweeps")
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--reps", type=int, default=3, help="timing repetitions (>= 3)")
    ap.add_argument("--algo", choices=["naive", "scalar", "dense", "bcss", "all"], default="all")
    ap.add_argument("--meta-k", type=_int_or_float, default=1,
                    help="meta cost per block, in float equivalents")
    ap.add_argument("--out", help="write output to this path instead of stdout")
    ap.add_argument("--csv", action="store_true", help="storage: CSV output")
    ap.add_argument("--strict", action="store_true",
                    help="verify: also require the blocked timing to beat dense")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.m is not None and args.m < 2:
        ap.error("--m must be at least 2")  # exits 2
    try:
        _check_options(args)
        if args.cmd == "verify":
            status = cmd_verify(args)
            if status == 0 and args.strict:
                status = _strict_timing_check()
            return status
        if args.cmd == "bench":
            return cmd_bench(args)
        if args.cmd == "model":
            return cmd_model(args)
        return cmd_storage(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2


def time_dense_vs_blocked(m: int, n: int, b: int, seed: int, reps: int = 3) -> tuple[float, float]:
    """Median wall seconds of ``sttsm_dense_ttm`` and ``sttsm_bcss``, in that order.

    Both transform ``random_symmetric(m, n, seed)`` by the square
    ``random_matrix(n, n, seed + 1)``; the blocked call takes the input
    compressed with block dimension ``b`` and produces blocks of ``b`` too.
    """
    a = random_symmetric(m, n, seed)
    x = random_matrix(n, n, seed + 1)
    packed = compress(a, b)
    dense_t = _median_seconds(lambda: sttsm_dense_ttm(a, x), reps)
    bcss_t = _median_seconds(lambda: sttsm_bcss(packed, x, b), reps)
    return dense_t, bcss_t


def _strict_timing_check(m: int = 5, n: int = 32, b: int = 8, seed: int = 1234) -> int:
    """Require the blocked algorithm to beat the dense chain on wall time."""
    dense_t, bcss_t = time_dense_vs_blocked(m, n, b, seed)
    print(f"timing: dense {dense_t:.3f}s, blocked {bcss_t:.3f}s")
    if bcss_t <= dense_t:
        return 0
    print("strict timing check failed: blocked slower than dense", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
