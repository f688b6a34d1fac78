"""Per-layer counts and times, taken from outside the library.

The tracer wraps the library's public seams for the length of a traced run
and restores them afterwards:

* the GEMM goes through ``dense.set_matmul_backend``;
* ``storage.PartialSymTensor.__init__`` (every blocked tensor and
  temporary is built through it);
* ``canonicalize`` and ``symmetry_violation`` as ``storage`` calls them;
* ``dense.permute``, which the dense mode products call.

Counts and times go to the span that is open when the call happens; one
span covers one timed operation of the benchmark (a phase such as ``bcss``
or ``load``).  Spans are kept in memory and summarised at the end of the
run.  Spans inside the library, which a split by level or by phase of the
blocked algorithm would need, are not part of this.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from blocksym import dense, storage


class Tracer:
    def __init__(self):
        self.current: defaultdict | None = None
        self.spans: dict[str, list[dict]] = defaultdict(list)

    @contextmanager
    def span(self, phase: str):
        counts: defaultdict = defaultdict(float)
        self.current = counts
        t0 = time.perf_counter()
        try:
            yield counts
        finally:
            counts["wall_s"] += time.perf_counter() - t0
            self.current = None
            self.spans[phase].append(dict(counts))

    def add(self, name: str, seconds: float) -> None:
        cur = self.current
        if cur is not None:
            cur[name + "_s"] += seconds
            cur[name + "_calls"] += 1

    def _timed(self, name: str, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, clock() - t0)

        return wrapper

    def _gemm(self, a, b):
        t0 = time.perf_counter()
        c = a @ b
        dt = time.perf_counter() - t0
        cur = self.current
        if cur is not None:
            cur["gemm_s"] += dt
            cur["gemm_calls"] += 1
            cur["gemm_flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]
        return c

    @contextmanager
    def installed(self):
        """Wrap the seams for the duration of the ``with`` block."""
        saved = (
            storage.PartialSymTensor.__init__,
            storage.canonicalize,
            storage.symmetry_violation,
            dense.permute,
        )
        storage.PartialSymTensor.__init__ = self._timed("init", saved[0])
        storage.canonicalize = self._timed("canonicalize", saved[1])
        storage.symmetry_violation = self._timed("symmetry_violation", saved[2])
        dense.permute = self._timed("permute", saved[3])
        dense.set_matmul_backend(self._gemm)
        try:
            yield self
        finally:
            dense.set_matmul_backend(None)
            (
                storage.PartialSymTensor.__init__,
                storage.canonicalize,
                storage.symmetry_violation,
                dense.permute,
            ) = saved

    def summary(self, phase: str, counts: tuple[str, ...]) -> tuple[dict, list[str]]:
        """Median of every quantity over the phase's spans, plus a problem
        line for each count in ``counts`` that did not repeat exactly."""
        spans = self.spans.get(phase, [])
        keys = sorted({k for s in spans for k in s})
        out = {k: statistics.median(s.get(k, 0.0) for s in spans) for k in keys}
        problems = []
        for k in counts:
            seen = {s.get(k, 0.0) for s in spans}
            if len(seen) > 1:
                problems.append(f"{phase}: {k} differs between calls: {sorted(seen)}")
        return out, problems
