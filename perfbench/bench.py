"""Workloads, timed rounds and metrics of the blocksym benchmark.

A run prepares the operand once (under ``tracemalloc`` when memory is
measured), computes the independent reference, then repeats whole rounds
for about the requested seconds, with at least ``MIN_ROUNDS``.  A round
times each operation of ``OPS`` the workload's number of times and checks
every output.  An operation that raises or whose output fails a
check is counted as failed and named on standard error; a check on the run
as a whole (the reference itself, the cost model) clears ``correct``.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from blocksym import (
    DenseTensor,
    OpCounter,
    bcss_costs,
    compress,
    load_bcss,
    random_matrix,
    random_symmetric,
    save_bcss,
    sttsm_bcss,
    sttsm_dense_ttm,
)
from blocksym.generate import random_bcss
from tracing import Tracer

OPS = ("setup", "bcss", "bcss_noreuse", "dense", "save", "load")
MIN_ROUNDS = 2
MB = 1e6
MAX_LEVEL = 4  # per-level metrics cover levels 1..MAX_LEVEL; orders above 5 are not workloads


@dataclass(frozen=True)
class Workload:
    """One benchmark input: order ``m``, ``n = p``, ``b = b_A = b_C``.

    ``ingest`` builds the operand as ``compress(random_symmetric(...))``
    instead of ``random_bcss``.  ``reps`` gives how many times one round
    runs each operation of ``OPS``; short operations run more often so
    that their medians rest on many samples.
    """

    name: str
    m: int
    n: int
    b: int
    ingest: bool
    reps: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large-blocks", 5, 32, 8, False,
                 dict(setup=8, bcss=5, bcss_noreuse=2, dense=1, save=16, load=16)),
        # Runnable by name only; BENCHMARK.json leaves it out because its
        # times drift past the bound with the host's speed (README, Workloads).
        Workload("small-blocks", 5, 16, 2, False,
                 dict(setup=3, bcss=1, bcss_noreuse=1, dense=8, save=40, load=2)),
        Workload("dense-ingest", 4, 48, 8, True,
                 dict(setup=1, bcss=3, bcss_noreuse=4, dense=2, save=40, load=20)),
    )
}


class TempAudit:
    """``temp_hook`` that counts temporaries and their payloads by level."""

    def __init__(self):
        self.count: Counter = Counter()
        self.payload: defaultdict = defaultdict(set)

    def __call__(self, k: int, temp) -> None:
        self.count[k] += 1
        self.payload[k].add(len(temp.blocks) * next(iter(temp.blocks.values())).size)


class Run:
    def __init__(self, w: Workload, seed: int, workdir: Path, tracer: Tracer | None):
        self.w = w
        self.seed = seed
        self.tracer = tracer
        # Every save writes a new file, which its check then moves to
        # ``path`` for the loads.  Truncating one file over and over would
        # time the kernel waiting for the writeback of the previous copy.
        self.saved = Path(workdir) / "saved.bcss"
        self.path = Path(workdir) / "operand.bcss"
        self.x = random_matrix(w.n, w.n, seed + 1)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {op: [] for op in OPS}
        self.operand = None
        # Each operation's repetitions spread evenly over the round, so that
        # short operations sample the whole round rather than one moment of
        # it; the host's speed drifts by several percent within seconds.
        self.schedule = [
            op for _, _, op in sorted(
                ((i + 0.5) / w.reps[op], k, op)
                for k, op in enumerate(OPS) for i in range(w.reps[op])
            )
        ]
        self.ops = {
            "setup": (self.build, self.setup_problem),
            "bcss": (lambda: self.bcss(True), lambda out: self.bcss_problem(out, True)),
            "bcss_noreuse": (lambda: self.bcss(False), lambda out: self.bcss_problem(out, False)),
            "dense": (
                lambda: sttsm_dense_ttm(self.dense_operand, self.x),
                lambda c: ref.dense_problem(c.array, self.c_ref, w.b),
            ),
            "save": (lambda: save_bcss(self.operand, self.saved), self.save_problem),
            "load": (lambda: load_bcss(self.path), self.load_problem),
        }

    # -- bookkeeping -----------------------------------------------------

    def record(self, op: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED {self.w.name} seed {self.seed} {op}: {problem}", file=sys.stderr)

    def run_check(self, what: str, problem: str | None) -> None:
        if problem:
            self.problems.append(f"{what}: {problem}")
            print(f"CHECK FAILED {self.w.name} seed {self.seed} {what}: {problem}", file=sys.stderr)

    def op(self, name: str) -> None:
        fn, check = self.ops[name]
        span = self.tracer.span(name) if self.tracer else nullcontext()
        try:
            with span:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:  # a library call that raises is one failed operation
            self.record(name, f"raised {type(exc).__name__}: {exc}")
            return
        self.samples[name].append(dt)
        self.record(name, check(out))

    # -- operations ------------------------------------------------------

    def _layer(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        if self.tracer:
            self.tracer.add(name, time.perf_counter() - t0)
        return out

    def build(self, trace_malloc: bool = False):
        """The operand from the seed; for ingest also its dense source."""
        w = self.w
        start = tracemalloc.start if trace_malloc else (lambda: None)
        if w.ingest:
            d = self._layer("random_symmetric", random_symmetric, w.m, w.n, self.seed)
            start()
            return self._layer("compress", compress, d, w.b), d
        start()
        return self._layer("random_bcss", random_bcss, w.m, w.n, w.b, self.seed), None

    def bcss(self, reuse: bool):
        counter, audit = OpCounter(), TempAudit()
        c = sttsm_bcss(self.operand, self.x, self.w.b, counter, reuse=reuse, temp_hook=audit)
        return c, counter, audit

    # -- checks ----------------------------------------------------------

    def setup_problem(self, built) -> str | None:
        a, d = built
        w = self.w
        payload = sum(blk.size for blk in a.blocks.values())
        if payload != ref.payload_elems(w.m, w.n, w.b):
            return f"payload {payload} != b^m C(nbar+m-1, m) = {ref.payload_elems(w.m, w.n, w.b)}"
        if d is not None:
            problem = ref.symmetry_problem(d.array, w.b)
            if problem:
                return f"dense input {problem}"
            for key, blk in a.blocks.items():
                if not np.array_equal(blk, d.array[ref.block_slices(key, w.b)]):
                    return f"compressed block {key} is not bitwise the dense input's slice"
        if self.operand is not None:
            problem = ref.same_blocks_problem(a.blocks, self.operand.blocks)
            if problem:
                return f"same seed, different operand: {problem}"
        return None

    def bcss_problem(self, out, reuse: bool) -> str | None:
        c, counter, audit = out
        w = self.w
        phase = "bcss" if reuse else "bcss_noreuse"
        if self.tracer:
            span = self.tracer.spans[phase][-1]
            span.update(flops=counter.flops, memops=counter.memops)
            for k in range(1, w.m):
                span[f"temps.level{k}"] = audit.count[k]
                span[f"temp_payload_elems.level{k}"] = max(audit.payload[k], default=0)
        if counter.flops != self.flops[reuse]:
            return f"counted flops {counter.flops} != closed form {self.flops[reuse]}"
        for k in range(1, w.m):
            want = ref.temps_at_level(w.m, w.n, w.b, k)
            if audit.count[k] != want:
                return f"{audit.count[k]} temporaries at level {k}, expected C(pbar+m-1-k, m-k) = {want}"
            elems = (
                ref.temp_payload_at_level(w.m, w.n, w.b, w.b, k) if reuse
                else w.b ** (w.m - k) * w.n**k
            )
            if audit.payload[k] != {elems}:
                return f"level {k} temporaries hold {sorted(audit.payload[k])} elements, expected {elems}"
        return ref.blocks_problem(c.blocks, self.c_ref, w.b, w.n // w.b, w.m)

    def save_problem(self, _) -> str | None:
        w = self.w
        problem = ref.file_problem(self.saved.read_bytes(), self.file_bytes, w.m, w.n, w.b)
        self.saved.replace(self.path)
        return problem

    def load_problem(self, a) -> str | None:
        w = self.w
        if (a.order, a.n, a.b) != (w.m, w.n, w.b):
            return f"loaded (m, n, b) = {(a.order, a.n, a.b)}"
        return ref.same_blocks_problem(a.blocks, self.operand.blocks)

    # -- the run ---------------------------------------------------------

    def prepare(self, measure_memory: bool) -> None:
        """Operand, reference, expected file and closed forms; with
        ``measure_memory`` also ``operand_mb`` and ``bcss_peak_mb``."""
        w = self.w
        gc.collect()
        try:
            a, d = self.build(trace_malloc=measure_memory)
            self.operand_mb = tracemalloc.get_traced_memory()[0] / MB
        finally:
            tracemalloc.stop()
        self.record("setup", self.setup_problem((a, d)))
        self.operand = a

        dense = ref.densify(a.blocks, w.m, w.n, w.b)
        if d is None:
            self.run_check("densified operand", ref.symmetry_problem(dense, w.b))
            self.dense_operand = DenseTensor(dense)
        else:
            self.run_check(
                "densified operand",
                None if np.array_equal(dense, d.array) else "differs from the dense input",
            )
            self.dense_operand = d
        self.c_ref = ref.change_of_basis(dense, self.x)
        del dense
        self.file_bytes = ref.bcss_file_bytes(a.blocks, w.m, w.n, w.b)
        self.flops = {}
        for reuse in (True, False):
            model = bcss_costs(w.m, w.n, w.n, w.b, w.b, meta_k=0, reuse=reuse)
            self.flops[reuse] = ref.paper_flops(w.m, w.n, w.n, w.b, w.b, reuse)
            if model.flops != self.flops[reuse]:
                self.run_check(
                    f"costs.bcss_costs(reuse={reuse}).flops",
                    f"{model.flops} != closed form {self.flops[reuse]}",
                )
        self.model = bcss_costs(w.m, w.n, w.n, w.b, w.b, meta_k=0, reuse=True)

        if measure_memory:
            gc.collect()
            tracemalloc.start()
            try:
                out = self.bcss(True)
                self.bcss_peak_mb = tracemalloc.get_traced_memory()[1] / MB
            finally:
                tracemalloc.stop()
            self.record("bcss", self.bcss_problem(out, True))

    def round(self) -> None:
        gc.collect()
        for name in self.schedule:
            self.op(name)

    def end_to_end(self) -> dict:
        def med(op):
            return statistics.median(self.samples[op]) if self.samples[op] else float("nan")

        metrics = {f"{op}_s": (med(op), "s") for op in OPS}
        metrics["operand_mb"] = (self.operand_mb, "MB")
        metrics["bcss_peak_mb"] = (self.bcss_peak_mb, "MB")
        return metrics

    def layer_metrics(self) -> dict:
        tr = self.tracer
        levels = [f"level{k}" for k in range(1, MAX_LEVEL + 1)]
        for phase in ("bcss", "bcss_noreuse"):
            for s in tr.spans[phase]:
                s["self_s"] = s["wall_s"] - s.get("gemm_s", 0.0) - s.get("init_s", 0.0)
        counted = (
            "gemm_calls", "gemm_flops", "init_calls", "canonicalize_calls", "permute_calls",
            "symmetry_violation_calls", "flops", "memops",
            *(f"temps.{lv}" for lv in levels), *(f"temp_payload_elems.{lv}" for lv in levels),
        )
        summary = {}
        for phase in OPS:
            summary[phase], problems = tr.summary(phase, counted)
            for p in problems:
                self.run_check("repeatable counts", p)

        def get(phase, key):
            return summary[phase].get(key, 0.0)

        metrics = {}
        for phase in ("bcss", "bcss_noreuse", "dense"):
            gemm_s = get(phase, "gemm_s")
            metrics[f"dense.gemm_calls.{phase}"] = (get(phase, "gemm_calls"), "count")
            metrics[f"dense.gemm_s.{phase}"] = (gemm_s, "s")
            metrics[f"dense.gemm_gflops.{phase}"] = (
                get(phase, "gemm_flops") / gemm_s / 1e9 if gemm_s else 0.0, "GFLOP/s")
        metrics["dense.peak_gflops"] = (peak_gflops(), "GFLOP/s")
        metrics["dense.permute_s.dense"] = (get("dense", "permute_s"), "s")
        for phase in ("setup", "bcss", "bcss_noreuse", "load"):
            metrics[f"storage.init_calls.{phase}"] = (get(phase, "init_calls"), "count")
            metrics[f"storage.init_s.{phase}"] = (get(phase, "init_s"), "s")
        metrics["storage.compress_s"] = (get("setup", "compress_s"), "s")
        metrics["storage.payload_elems"] = (
            sum(blk.size for blk in self.operand.blocks.values()), "elements")
        for lv in levels:
            metrics[f"storage.temp_payload_elems.{lv}"] = (
                get("bcss", f"temp_payload_elems.{lv}"), "elements")
        for phase in ("setup", "bcss", "bcss_noreuse", "load"):
            metrics[f"indexing.canonicalize_calls.{phase}"] = (
                get(phase, "canonicalize_calls"), "count")
            metrics[f"indexing.canonicalize_s.{phase}"] = (get(phase, "canonicalize_s"), "s")
        metrics["indexing.symmetry_violation_s"] = (get("setup", "symmetry_violation_s"), "s")
        metrics["generate.random_bcss_s"] = (get("setup", "random_bcss_s"), "s")
        metrics["generate.random_symmetric_s"] = (get("setup", "random_symmetric_s"), "s")
        flops, memops = get("bcss", "flops"), get("bcss", "memops")
        metrics["change_of_basis.flops"] = (flops, "flop")
        metrics["change_of_basis.memops"] = (memops, "memop")
        metrics["change_of_basis.memops_over_model"] = (memops / self.model.memops, "ratio")
        metrics["change_of_basis.flops_per_byte"] = (flops / (8 * memops) if memops else 0.0, "flop/B")
        for phase in ("bcss", "bcss_noreuse"):
            metrics[f"change_of_basis.wall_s.{phase}"] = (get(phase, "wall_s"), "s")
            metrics[f"change_of_basis.self_s.{phase}"] = (get(phase, "self_s"), "s")
        for lv in levels:
            metrics[f"change_of_basis.temps.{lv}"] = (get("bcss", f"temps.{lv}"), "count")
        metrics["costs.flops"] = (self.model.flops, "flop")
        metrics["costs.memops"] = (self.model.memops, "memop")
        file_mb = len(self.file_bytes) / MB
        metrics["io.file_bytes"] = (len(self.file_bytes), "B")
        for phase in ("save", "load"):
            wall = get(phase, "wall_s")
            metrics[f"io.{phase}_mb_per_s"] = (file_mb / wall if wall else 0.0, "MB/s")
        return metrics


def peak_gflops(size: int = 1024, reps: int = 7) -> float:
    """Rate of one large square GEMM, the reference for ``dense.gemm_gflops``."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((size, size)), rng.standard_normal((size, size))
    a @ b
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2 * size**3 / statistics.median(times) / 1e9


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object ``run.py`` prints."""
    tracer = Tracer() if trace else None
    with tracer.installed() if tracer else nullcontext():
        r = Run(w, seed, workdir, tracer)
        r.prepare(measure_memory=not trace)
        start, rounds = time.perf_counter(), 0
        # Another round starts only if, at the pace so far, at least half of
        # it fits in ``seconds``: a run measures ``seconds`` on average
        # instead of overshooting by up to a whole round.
        while rounds < MIN_ROUNDS or (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds:
            r.round()
            rounds += 1
    metrics = r.layer_metrics() if trace else r.end_to_end()
    print(
        f"{w.name} seed {seed}: {rounds} rounds in {time.perf_counter() - start:.1f} s, "
        f"attempted {r.attempted}, failed {r.failed}",
        file=sys.stderr,
    )
    return {
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
