"""Dense order-m tensors in dimensional order, permutation, and mode products.

A tensor is linearized in *dimensional order*: the generalization of
column-major layout where mode 0 varies fastest.  Element ``(i_0, ..,
i_{m-1})`` lives at flat offset ``sum_k i_k * prod_{j<k} I_j``.

* ``is_integer`` / ``is_real`` / ``real_array`` / ``dense_operand`` --
  the package's four argument rules: an integer argument, a real scalar
  argument, a real operand and a dense tensor operand,
* ``permute`` / ``ipermute`` -- materialized data rearrangement,
* ``matmul_ref`` -- the single matrix-multiply seam (``set_matmul_backend``
  swaps its kernel, ``matmul_backend`` returns it),
* ``mode_multiply`` -- the mode-k tensor-times-matrix product, one fused
  kernel that walks cache-sized chunks: copy a chunk into a buffer laid out
  in the source's memory order, one ``matmul_ref`` GEMM, copy the result
  out; with ``in_place`` it writes its result over its own input, else
  into a new array.

When a :class:`~blocksym.counters.OpCounter` is supplied, every element a
permutation or a mode product moves in or out reports 2 memops and every
matrix product 2 flops per multiply-add.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .counters import OpCounter
from .errors import ModeError, ParameterError, ShapeError
from .split import share, threads

# A multi-index is a plain tuple of non-negative ints, one per mode.
MultiIndex = tuple[int, ...]


def is_integer(v) -> bool:
    """Whether ``v`` is an integer: an ``int`` or ``np.integer``, but not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Whether ``v`` is a real number: an ``int``, a ``float``, a ``Fraction``
    or a NumPy integer or float, but not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def real_array(a) -> np.ndarray:
    """``a`` as a float64 array; raises :class:`ShapeError` for ragged
    values, such as ``[[1, 2], [3]]``, and :class:`ParameterError` unless
    its values are real (bool, integer or float).  Converted, a complex
    array would lose its imaginary part and a string one be parsed."""
    try:
        a = np.asarray(a)
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise ShapeError("ragged values do not form an array") from None
    if a.dtype.kind not in "biuf":
        raise ParameterError(f"array of dtype {a.dtype} is not real")
    return a.astype(np.float64, copy=False)


class Fixed:
    """Set-once fields, the package's one rule for tensor state: setting a
    field again, or deleting one, raises ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__}.{name} is set once")
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} cannot be deleted")


class DenseTensor(Fixed):
    """Order-m array of doubles stored contiguously in dimensional order;
    :class:`ParameterError` unless the values are real (:func:`real_array`),
    and :class:`ShapeError` for a 0-d value, which has no mode.  Its fields
    are set once (:class:`Fixed`), and ``data`` is a view of ``array``."""

    __slots__ = ("array", "order", "dims")

    def __init__(self, array):
        array = real_array(array)
        if array.ndim == 0:
            raise ShapeError("a dense tensor needs at least one mode, got a scalar")
        self.array = np.asfortranarray(array)
        self.order, self.dims = array.ndim, array.shape

    @property
    def data(self) -> np.ndarray:
        """Flat view of the buffer in dimensional order."""
        return self.array.reshape(-1, order="F")

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims})"


def dense_operand(t, name: str) -> DenseTensor:
    """``t``, or :class:`ShapeError` naming the call ``name`` unless it is
    a :class:`DenseTensor`: the package's one dense-operand rule."""
    if not isinstance(t, DenseTensor):
        raise ShapeError(f"{name} needs a dense tensor, got {type(t).__name__}")
    return t


def _check_axes(axes: tuple[int, ...], order: int) -> None:
    """Raise :class:`ShapeError` unless ``axes`` holds each of ``0..order-1``
    once, as integers (:func:`is_integer`)."""
    if not all(map(is_integer, axes)) or sorted(axes) != list(range(order)):
        raise ShapeError(f"axes {tuple(axes)} do not order the {order} modes 0..{order - 1}")


def permute(t: DenseTensor, axes: tuple[int, ...], counter: OpCounter | None = None) -> DenseTensor:
    """Materialize ``t`` with its modes reordered as ``np.transpose(t, axes)``.

    Mode ``d`` of the result is mode ``axes[d]`` of ``t``, so the result has
    dims ``(I_{axes_0}, .., I_{axes_{m-1}})``.  Raises :class:`ShapeError`
    unless ``axes`` holds each mode of ``t`` once.  Always copies (2 memops
    per element), even for the identity, so that instrumented counts reflect
    the explicit data movement this layout strategy pays for.
    """
    _check_axes(axes, dense_operand(t, "permute").order)
    out = np.array(np.transpose(t.array, axes), order="F", copy=True)
    if counter is not None:
        counter.count_memops(2 * out.size)
    return DenseTensor(out)


def ipermute(t: DenseTensor, axes: tuple[int, ...], counter: OpCounter | None = None) -> DenseTensor:
    """Invert :func:`permute`: ``ipermute(permute(t, axes), axes)`` is ``t`` bitwise."""
    _check_axes(axes, dense_operand(t, "ipermute").order)
    return permute(t, tuple(sorted(range(t.order), key=axes.__getitem__)), counter)


def _default_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


_gemm_backend: Callable[[np.ndarray, np.ndarray], np.ndarray] = _default_gemm


def set_matmul_backend(fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None) -> None:
    """Swap the kernel behind :func:`matmul_ref` (``None`` restores default)."""
    global _gemm_backend
    _gemm_backend = _default_gemm if fn is None else fn


def matmul_backend() -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The kernel :func:`matmul_ref` runs, for a caller that has checked its
    operands once for many products and counts their flops itself."""
    return _gemm_backend


def matmul_ref(a: np.ndarray, b: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """c[i, j] = sum_k a[i, k] * b[k, j], behind a pluggable backend.

    Counts ``2 * p * q * r`` flops for a (p x q) @ (q x r) product, and
    raises :class:`ParameterError` for an operand that is not real.
    """
    a = real_array(a)
    b = real_array(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError("matmul_ref operands must be matrices")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions disagree: {a.shape} @ {b.shape}")
    if counter is not None:
        counter.count_flops(2 * a.shape[0] * a.shape[1] * b.shape[1])
    return _gemm_backend(a, b)


# Elements of one chunk of a mode product (its operand or its result,
# whichever is larger): small enough that both stay in a core's L2 cache
# between the transposes and the GEMM.  Chosen from a sweep, recorded in
# BENCH_dense_chunks.json.
_CHUNK = 1 << 16


def _chunk_grid(lead: int, n: int, trail: int, rows: int) -> tuple[int, int, int]:
    """Chunk widths ``(w_lead, w_trail)`` over ``lead x trail`` of the
    product of an F-ordered ``(lead, n, trail)`` tensor with a ``rows x n``
    matrix, and the threads :func:`mode_multiply` shares the chunks among
    (:func:`~blocksym.split.threads`, each chunk the size of its larger
    side, operand or result; 1 is the serial path).

    ``lead`` is cut first, so a chunk's operand stays about ``_CHUNK``
    elements however the modes are split around the contracted one; a
    chunk spans several ``trail`` indices only when it holds all of
    ``lead``.  Each axis is cut into near-equal widths, so no chunk is a
    sliver left over at the end.
    """
    per = max(n, rows, 1)
    cuts_lead = -(-lead // max(1, _CHUNK // per))
    w_lead = -(-lead // cuts_lead) if cuts_lead else 1
    cuts_trail = -(-trail // max(1, _CHUNK // (per * w_lead)))
    w_trail = -(-trail // cuts_trail) if cuts_trail else 1
    return w_lead, w_trail, threads(cuts_lead * cuts_trail, per * w_lead * w_trail)


def mode_multiply(
    t: DenseTensor,
    k: int,
    b: np.ndarray,
    counter: OpCounter | None = None,
    in_place: bool = False,
) -> DenseTensor:
    """Contract matrix ``b`` (J x I_k) against mode ``k`` of ``t``.

    Result dims replace ``I_k`` by ``J``; element ``(.., j, ..)`` equals
    ``sum_{i_k} t[.., i_k, ..] * b[j, i_k]``; a ``b`` that is not real
    raises :class:`ParameterError`, and a ``t`` that is not a
    :class:`DenseTensor` :class:`ShapeError`.  With ``in_place`` the
    result is written over ``t.array`` and returned in it, or
    :class:`ShapeError` is raised before any work unless ``J == I_k`` and
    that array is writeable; without it, the result is a new array.

    The input is viewed as F-ordered ``(lead, I_k, trail)`` and the output
    as ``(lead, J, trail)``, and a fixed grid of cache-sized chunks
    (:func:`_chunk_grid`) is walked over ``lead x trail``.  Each chunk is
    copied into a buffer that holds its ``(w x I_k)`` GEMM operand, row
    ``l + w_lead * t`` for lead index ``l`` and trail index ``t``.  The
    buffer is laid out in the source's memory order: F-ordered (lead
    fastest) when a chunk's lead width is at least ``I_k``, so the copy
    reads and writes runs of ``w_lead`` contiguous elements, and
    C-ordered (``I_k`` fastest) otherwise, as at mode 0.  A lead-wide
    chunk takes the ``(J x I_k) @ (I_k x w)`` GEMM, whose C-ordered
    ``(J x w)`` result holds runs of ``w_lead`` contiguous elements, as
    the output does, so the copy out moves those runs; any other chunk
    takes ``(w x I_k) @ (I_k x J)``, whose C-ordered ``(w x J)`` result,
    transposed, is copied into the output.  Each element is moved once
    in and once out, 2 memops each, and the GEMMs count ``2 * J * I_k``
    flops per column, as a whole-tensor permute, GEMM and inverse permute
    would; the intermediates stay in cache.  A chunk's whole region of
    the input is in its buffer before its result is written back over
    the same region in place, and no other chunk touches that region, so
    computing in place changes no value.

    Large tensors share their chunks across the threads
    :func:`_chunk_grid` gives (:func:`~blocksym.split.share`, which records
    the count in ``counter.threads``); every chunk writes its own slice of
    the output, so the result and the counts do not depend on the split.
    """
    dims = dense_operand(t, "mode_multiply").dims
    if not is_integer(k) or not 0 <= k < len(dims):
        raise ModeError(f"mode {k!r} is not a mode of an order-{len(dims)} tensor")
    b = real_array(b)
    if b.ndim != 2 or b.shape[1] != dims[k]:
        raise ShapeError(
            f"matrix shape {b.shape} does not contract mode {k} of dims {dims}"
        )
    rows, n = b.shape
    shape = dims[:k] + (rows,) + dims[k + 1 :]
    if in_place and not (rows == n and t.array.flags.writeable):
        raise ShapeError(f"in place needs a writeable array and J == I_k, got J={rows}, I_k={n}")
    out = t.array if in_place else np.empty(shape, dtype=np.float64, order="F")
    lead, trail = math.prod(dims[:k]), math.prod(dims[k + 1 :])
    src = t.array.reshape((lead, n, trail), order="F")
    dst = out.reshape((lead, rows, trail), order="F")
    b_t = b.T
    w_lead, w_trail, split = _chunk_grid(lead, n, trail, rows)
    # Buffer axes, as moved from the source's (lead, n, trail): F-ordered,
    # the first fastest, so the copy walks lead in runs of w_lead elements
    # when they are at least n long, else n.
    by_lead = w_lead >= n
    axes = (0, 2, 1) if by_lead else (1, 0, 2)

    def product(take, count: OpCounter | None) -> None:
        whole = np.empty(n * w_lead * w_trail, dtype=np.float64)
        for l0, t0 in take:
            part = src[l0 : l0 + w_lead, :, t0 : t0 + w_trail]
            wl, _, wt = part.shape
            moved = part.transpose(axes)
            # A last, narrower chunk fills the front of the buffer.
            buf = whole[: part.size].reshape(moved.shape, order="F")
            buf[...] = moved
            if by_lead:
                # The C-ordered (J x w) result, column l + wl * t, read as
                # (J, wt, wl): lead fastest, as in the output.
                a = buf.reshape((wl * wt, n), order="F")
                c = matmul_ref(b, a.T, count)
                result = c.reshape((rows, wt, wl)).transpose(2, 0, 1)
            else:
                # The C-ordered (w x J) result, transposed, is the
                # F-ordered (J x w) matrix, read as (J, wl, wt).
                a = buf.reshape((n, wl * wt), order="F").T
                c = matmul_ref(a, b_t, count)
                result = c.T.reshape((rows, wl, wt), order="F").transpose(1, 0, 2)
            dst[l0 : l0 + wl, :, t0 : t0 + wt] = result
            if count is not None:
                count.count_memops(2 * (buf.size + c.size))

    # Chunks run along lead first, so consecutive chunks are neighbours in memory.
    chunks = ((l0, t0) for t0 in range(0, trail, w_trail) for l0 in range(0, lead, w_lead))
    share(product, chunks, split, counter)
    return DenseTensor(out)

