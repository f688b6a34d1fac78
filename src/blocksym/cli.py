"""Command-line driver: verification sweeps, benchmarks, cost tables.

``verify`` prints one line per check; ``bench``, ``model`` and ``storage``
print a CSV table followed by ``# `` note lines.
Exit codes: 0 success, 1 verification failure, 2 usage/parameter error.
The environment variable ``SYMTENSOR_MAX_DENSE_ELEMS`` (a positive
integer, default 10**7) caps how many elements a dense tensor the CLI
materializes may hold.  ``verify`` raises a parameter error when its input
(``n**m``) or its oracle (``p**m``) would exceed the cap, and ``storage``
when its meta probe (``4**m``) would; ``bench`` reports oversized dense
algorithms as skipped, and ``storage`` leaves the measured column empty, with
a note, when ``n**m`` exceeds the cap or where ``(n//b)**m > 10**5``.
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
from .dense import DenseTensor, ipermute, permute
from .errors import BlockDivisibilityError, ParameterError
from .generate import random_bcss, random_matrix, random_symmetric
from .indexing import block_grid
from .storage import BcssTensor, compress, decompress, measured_meta_k, meta_bytes

DEFAULT_MAX_DENSE = 10**7


def dense_elem_cap() -> int:
    raw = os.environ.get("SYMTENSOR_MAX_DENSE_ELEMS")
    if not raw:
        return DEFAULT_MAX_DENSE
    if not raw.isdecimal() or int(raw) < 1:
        raise ParameterError(f"SYMTENSOR_MAX_DENSE_ELEMS must be a positive integer, got {raw!r}")
    return int(raw)


def dense_fits(m: int, *dims: int, need: str = "") -> bool:
    """Whether dense order-``m`` tensors of each dimension in ``dims`` fit
    under ``SYMTENSOR_MAX_DENSE_ELEMS``.  With ``need`` (what requires
    them), a tensor that does not fit raises :class:`ParameterError`."""
    cap = dense_elem_cap()
    for d in dims:
        if d**m > cap:
            if need:
                raise ParameterError(
                    f"{need}: {d}**{m} elements exceed SYMTENSOR_MAX_DENSE_ELEMS={cap}"
                )
            return False
    return True


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


def verify_case(m: int, n: int, p: int, b_a: int, b_c: int, seed: int) -> list[CheckResult]:
    """Cross-algorithm equivalence, round trips, and counter checks for one
    parameter point."""
    case = (m, n, p, b_a, b_c)
    results: list[CheckResult] = []

    def within(name: str, value: float, tol: float = 1e-10, ok=None, detail: str = "") -> None:
        ok = value <= tol if ok is None else ok
        results.append(CheckResult(case, name, value, tol, ok, "" if ok else detail))

    def exact(name: str, ok: bool, detail: str = "") -> None:
        results.append(CheckResult(case, name, 0.0 if ok else 1.0, 0.0, ok, "" if ok else detail))

    a = random_symmetric(m, n, seed)
    x = random_matrix(p, n, seed + 1)
    oracle = sttsm_naive(a, x)
    within("scalar_temps vs naive", max_relative_error(sttsm_scalar_temps(a, x), oracle))
    dense_counter = OpCounter()
    within("dense_ttm vs naive", max_relative_error(sttsm_dense_ttm(a, x, dense_counter), oracle))

    packed = compress(a, b_a)
    exact("compress/decompress bitwise", bool(np.array_equal(decompress(packed).array, a.array)))
    perm = tuple(np.random.default_rng(seed + 2).permutation(m).tolist())
    back = ipermute(permute(a, perm), perm)
    exact("permute/ipermute bitwise", bool(np.array_equal(back.array, a.array)))

    for reuse in (True, False):
        label = f"bcss(reuse={'on' if reuse else 'off'})"
        counter = OpCounter()
        err, worst = compare_bcss_dense(sttsm_bcss(packed, x, b_c, counter, reuse=reuse), oracle)
        within(f"{label} vs naive", err, detail=f"worst block {worst}")
        formula = cost_model.bcss_costs(m, n, p, b_a, b_c, meta_k=0, reuse=reuse)
        exact(f"{label} flops == formula", counter.flops == formula.flops,
              f"counted {counter.flops}, formula {formula.flops}")
        ratio = counter.memops / formula.memops if formula.memops else 1.0
        within(f"{label} memops within 2x", ratio, 2.0, ok=0.5 <= ratio <= 2.0)

    formula = cost_model.dense_costs(m, n, p)
    exact("dense flops == formula", dense_counter.flops == formula.flops,
          f"counted {dense_counter.flops}, formula {formula.flops}")
    return results


def default_verify_cases() -> list[tuple[int, int, int]]:
    return [(m, n, b) for m in (2, 3, 4) for n in (4, 6) for b in (1, 2)]


def cmd_verify(args) -> int:
    if args.m is not None:
        n = _given(args.n, 4)
        cases = [(args.m, n, _given(args.ba, 1))]
    else:
        cases = default_verify_cases()
    failures = 0
    for m, n, b in cases:
        p = _given(args.p, n)
        dense_fits(m, n, p, need="verify's dense input and oracle")
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
    """The order is at least two; dimensions, block dimensions and grid
    extents are at least one; the seed is not negative; the meta cost is
    finite and not negative; timings take three or more repetitions; and
    ``--out`` names a writeable file in an existing directory, checked
    before any work.  Every command checks every option, used or not."""
    if args.m is not None and args.m < 2:
        raise ParameterError(f"--m must be at least 2, got {args.m}")
    if args.seed < 0:
        raise ParameterError(f"--seed must be at least 0, got {args.seed}")
    for flag in ("n", "p", "ba", "bc", "nbar"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ParameterError(f"--{flag} must be at least 1, got {value}")
    if not 0 <= args.meta_k < math.inf:
        raise ParameterError(f"--meta-k must be finite and at least 0, got {args.meta_k}")
    if args.reps < 3:
        raise ParameterError(f"--reps must be at least 3, got {args.reps}")
    if args.out:
        folder = os.path.dirname(args.out) or "."
        target = args.out if os.path.exists(args.out) else folder
        if os.path.isdir(args.out) or not os.path.isdir(folder) or not os.access(target, os.W_OK):
            raise ParameterError(f"--out {args.out!r} is not a file that can be written")


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
    # Every row reports both block dimensions, so both divide whatever runs.
    block_grid(n, b_a)
    block_grid(p, b_c)
    run = {
        "naive": lambda c=None: sttsm_naive(a, x, c),
        "scalar": lambda c=None: sttsm_scalar_temps(a, x, c),
        "dense": lambda c=None: sttsm_dense_ttm(a, x, c),
        "bcss": lambda c=None: sttsm_bcss(packed, x, b_c, c),
    }
    algos = {None: ["dense", "bcss"], "all": list(run)}.get(args.algo, [args.algo])
    dense_ok = dense_fits(m, n, p)
    packed = random_bcss(m, n, b_a, args.seed) if "bcss" in algos else None
    a = random_symmetric(m, n, args.seed) if dense_ok and algos != ["bcss"] else None
    x = random_matrix(p, n, args.seed + 1)
    rows = []
    wall: dict[str, float] = {}
    used: dict[str, int] = {}  # threads each algorithm's counted run used
    for algo in algos:
        if algo != "bcss" and not dense_ok:
            counts = ["", ""]
            if algo == "dense":  # what the chain counts when it runs
                counts = [cost_model.dense_costs(m, n, p).flops,
                          cost_model.bcss_impl_memops(m, n, p, n, p)]
            rows.append([algo, m, n, p, b_a, b_c, args.seed, "skipped", *counts])
            continue
        counter = OpCounter()
        run[algo](counter)
        used[algo] = counter.threads
        wall[algo] = _median_seconds(run[algo], args.reps)
        rows.append([algo, m, n, p, b_a, b_c, args.seed, f"{wall[algo]:.6f}",
                     counter.flops, counter.memops])

    notes = []
    if "dense" in wall and "bcss" in wall and wall["bcss"] > 0:
        notes.append(f"speedup dense/bcss: {wall['dense'] / wall['bcss']:.3f}")
    notes += [f"{algo} workers: {used[algo]}" for algo in ("dense", "bcss") if algo in used]
    _write_csv(
        args.out,
        ["algorithm", "m", "n", "p", "b_A", "b_C", "seed", "wall_seconds", "flops", "memops"],
        rows,
        notes,
    )
    return 0


def _model_sweep(args) -> list[tuple[int, int]]:
    """(n, b) points, n doubling up to ``--n``: a fixed grid extent ``--nbar``
    (n starts at it), else a fixed block dimension (n starts at the block)."""
    fixed_grid = args.nbar is not None
    n = first = args.nbar if fixed_grid else _given(args.ba, 8)
    points = []
    while n <= _given(args.n, 64):
        points.append((n, n // first if fixed_grid else first))
        n *= 2
    return points


def cmd_model(args) -> int:
    m = _given(args.m, 4)
    rows, skipped = [], []
    for n, b in _model_sweep(args):
        p = _given(args.p, n)
        try:
            blocked = cost_model.bcss_costs(m, n, p, b, _given(args.bc, b), meta_k=args.meta_k)
        except BlockDivisibilityError:
            skipped.append(str(n))
            continue
        rows += [
            [rep.variant, rep.m, rep.n, rep.p, rep.b_a, rep.b_c, rep.storage_A,
             rep.storage_C, rep.storage_X, rep.storage_temps_total, rep.flops, rep.memops]
            for rep in (blocked, cost_model.dense_costs(m, n, p))
        ]
    notes = [f"skipped n = {', '.join(skipped)}, where b_C does not divide p"] if skipped else []
    if not rows:
        why = notes[0] if notes else f"the sweep starts above --n {_given(args.n, 64)}"
        raise ParameterError(f"no model point left: {why}")
    _write_csv(
        args.out,
        ["variant", "m", "n", "p", "b_A", "b_C", "storage_A", "storage_C",
         "storage_X", "storage_temps", "flops", "memops"],
        rows,
        notes,
    )
    return 0


def probe_meta_k(m: int, seed: int = 0) -> tuple[float, int, int]:
    """Measure the per-block meta cost of this implementation.

    Builds a small instance (grid extent 4, unit blocks), returns
    ``(k_in_float_equivalents, meta_bytes, meta_entries)``.
    """
    dense_fits(m, 4, need="meta probe")
    probe = compress(random_symmetric(m, 4, seed), 1)
    return measured_meta_k(probe), meta_bytes(probe), probe.tables.rank.size


def cmd_storage(args) -> int:
    m, n = _given(args.m, 5), _given(args.n, 64)
    k, probe_bytes, probe_entries = probe_meta_k(m, args.seed)
    sweep, best = cost_model.metadata_sweep(m, n, k)
    measured = {}
    bound = f"as {n}**{m} dense elements exceed SYMTENSOR_MAX_DENSE_ELEMS={dense_elem_cap()}"
    if dense_fits(m, n):
        bound = f"where ({n}//b)**{m} > 10**5 block indices"
        dense = random_symmetric(m, n, args.seed)
        for b, _, _ in sweep:
            if (n // b) ** m <= 10**5:
                measured[b] = compress(dense, b).data.size
    _write_csv(
        args.out,
        ["b", "payload", "measured_payload", "total_with_meta"],
        [[b, payload, measured.get(b, ""), f"{float(total):.1f}"] for b, payload, total in sweep],
        [f"meta probe: {probe_bytes} bytes over {probe_entries} blocks -> k = {k:.3f} floats/block",
         *([f"measured_payload is empty {bound}"] if len(measured) < len(sweep) else []),
         f"argmin b = {best}"],
    )
    return 0


def _write_csv(out_path, header: list, rows: list, notes: tuple | list = ()) -> None:
    """A CSV table, then each note as a ``# `` line, to ``out_path`` or stdout."""
    out = _io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    out.writelines(f"# {note}\n" for note in notes)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())


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
    ap.add_argument("--algo", choices=["naive", "scalar", "dense", "bcss", "all"],
                    help="bench: one algorithm, or all four (default dense and bcss)")
    ap.add_argument("--meta-k", type=_int_or_float, default=1,
                    help="meta cost per block, in float equivalents")
    ap.add_argument("--out", help="write output to this path instead of stdout")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_options(args)
        if args.cmd == "verify":
            return cmd_verify(args)
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


if __name__ == "__main__":
    raise SystemExit(main())
