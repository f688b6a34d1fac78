"""Operation counters for instrumented kernels.

Conventions used throughout the package:

* flops: 2 per multiply-add, i.e. a (p x q) @ (q x r) product counts
  2*p*q*r regardless of backend.
* memops: one per element read plus one per element written while moving
  data, so an explicit permutation (or copy) of N elements counts 2*N.
  Arithmetic reads/writes inside a matrix product are not memops.
"""

from dataclasses import dataclass, fields

from .errors import ParameterError


def _count(n, what: str):
    """``n``, or :class:`ParameterError` unless it is an integer
    (:func:`~blocksym.dense.is_integer`) of at least 0."""
    if not dense.is_integer(n) or n < 0:
        raise ParameterError(f"{what} must be a non-negative integer, got {n!r}")
    return n


@dataclass
class OpCounter:
    """Per-invocation flop and memop tallies; zeroed at construction.

    ``threads`` is the most threads any one piece of shareable work of the
    call ran on (a level of ``sttsm_bcss``, a mode product), as
    :func:`~blocksym.split.share` records it: 1 when every piece ran
    serially, 0 when the call has no such piece.  Each field, and each
    increment, is an integer of at least 0, else :class:`ParameterError`.
    """

    flops: int = 0
    memops: int = 0
    threads: int = 0

    def __post_init__(self) -> None:
        for field in fields(self):
            _count(getattr(self, field.name), field.name)

    def count_flops(self, n: int) -> None:
        self.flops += _count(n, "flop increment")

    def count_memops(self, n: int) -> None:
        self.memops += _count(n, "memop increment")


# Imported last: dense imports this module, and needs OpCounter from it.
from . import dense  # noqa: E402
