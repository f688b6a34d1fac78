"""Operation counters for instrumented kernels.

Conventions used throughout the package:

* flops: 2 per multiply-add, i.e. a (p x q) @ (q x r) product counts
  2*p*q*r regardless of backend.
* memops: one per element read plus one per element written while moving
  data, so an explicit permutation (or copy) of N elements counts 2*N.
  Arithmetic reads/writes inside a matrix product are not memops.
"""

from dataclasses import dataclass

from .errors import ParameterError


@dataclass
class OpCounter:
    """Per-invocation flop and memop tallies; zeroed at construction.

    ``threads`` is the most threads any one piece of shareable work of the
    call ran on (a level of ``sttsm_bcss``, a mode product), as
    :func:`~blocksym.split.share` records it: 1 when every piece ran
    serially, 0 when the call has no such piece.
    """

    flops: int = 0
    memops: int = 0
    threads: int = 0

    def count_flops(self, n: int) -> None:
        if n < 0:
            raise ParameterError("flop increment must be non-negative")
        self.flops += n

    def count_memops(self, n: int) -> None:
        if n < 0:
            raise ParameterError("memop increment must be non-negative")
        self.memops += n
