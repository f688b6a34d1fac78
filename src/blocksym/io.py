"""Binary file formats.

Dense tensor (``.stns``): magic ``STNS``, format version u16, order u16,
dims as u64 each, then the payload as little-endian IEEE-754 doubles in
dimensional order.

Blocked compact symmetric tensor (``.bcss``): magic ``BCSS``, version u16,
order u16, tensor dimension u64, block dimension u64, then the canonical
blocks in hypertriangle order, each as raw doubles in dimensional order:
exactly the bytes of the packed block array, so a save is one buffer write
and a load one read straight into the array the tensor allocates.  The
redirection tables are not serialized; they are rebuilt on load.

Both loaders check the header length, the order (1 to 64 for ``.stns``,
2 to 63 for ``.bcss``), that the block dimension is at least 1 and
divides the tensor dimension, that the redirection tables rebuilt on
load would hold at most ``2**25`` entries (``(n/b)**order``, the whole
m=5, n=32 grid at unit blocks) and keep at most ``2**25`` axes of distinct
transposes (``min(order!, (n/b)**order) * order``), and that the payload
is exactly as long as the header says; a file that fails any check raises
:class:`FormatError`.  ``save_bcss`` raises it too for an order outside
2 to 63, and each saver :class:`ShapeError` for a tensor of the other
kind (or an ``sttsm_bcss`` temporary), before it opens the file.
"""

from __future__ import annotations

import math
import os
import struct
import sys

import numpy as np

from .dense import DenseTensor, dense_operand
from .errors import FormatError, ShapeError
from .indexing import simplex_count
from .storage import MAX_BLOCKED_ORDER, BcssTensor, table_excess

_STNS_MAGIC = b"STNS"
_BCSS_MAGIC = b"BCSS"
_VERSION = 1
# NumPy's limit on array dimensions; it also keeps the header arithmetic of
# a hostile file (products and binomials over ``order`` terms) cheap.
_MAX_ORDER = 64


def _unpack(fmt: str, fh, size: int, off: int) -> tuple[tuple, int]:
    """Header fields read from ``fh`` at ``off`` (a file of ``size`` bytes)
    plus the offset just past them."""
    end = off + struct.calcsize(fmt)
    if size < end:
        raise FormatError(f"header needs {end} bytes, file has {size}")
    return struct.unpack(fmt, fh.read(end - off)), end


def _check_magic_version(magic: bytes, version: int, expected: bytes, kind: str) -> None:
    if magic != expected:
        raise FormatError(f"not a {kind} file (magic {magic!r})")
    if version != _VERSION:
        raise FormatError(f"unsupported {kind} format version {version}")


def _check_payload(size: int, off: int, elems: int) -> None:
    if size - off != 8 * elems:
        raise FormatError(f"payload is {size - off} bytes, header implies {8 * elems}")


def _read_payload(fh, array: np.ndarray) -> None:
    """Fill the F-contiguous float64 ``array`` from ``fh``'s little-endian
    doubles, read straight into its buffer."""
    flat = array.reshape(-1, order="F")
    got = fh.readinto(memoryview(flat).cast("B"))
    if got != flat.nbytes:
        raise FormatError(f"payload is {got} bytes, header implies {flat.nbytes}")
    if sys.byteorder == "big":
        flat.byteswap(inplace=True)


def _write_payload(fh, array: np.ndarray) -> None:
    """Write the float64 ``array`` to ``fh`` as little-endian doubles in
    dimensional order, straight from its buffer when it is F-contiguous."""
    fh.write(array.astype("<f8", copy=False).reshape(-1, order="F"))


def save_tensor(t: DenseTensor, path) -> None:
    """Write ``t``; anything but a :class:`~blocksym.dense.DenseTensor`
    raises :class:`ShapeError` before the file is opened."""
    dense_operand(t, "save_tensor")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHH", _STNS_MAGIC, _VERSION, t.order))
        fh.write(struct.pack(f"<{t.order}Q", *t.dims))
        _write_payload(fh, t.array)


def load_tensor(path) -> DenseTensor:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        (magic, version, order), off = _unpack("<4sHH", fh, size, 0)
        _check_magic_version(magic, version, _STNS_MAGIC, "dense tensor")
        if not 1 <= order <= _MAX_ORDER:
            raise FormatError(f"dense tensor order must be in 1..{_MAX_ORDER}, got {order}")
        dims, off = _unpack(f"<{order}Q", fh, size, off)
        _check_payload(size, off, math.prod(dims))
        try:  # dims of an empty payload can still be too large for NumPy
            array = np.empty(dims, dtype=np.float64, order="F")
        except ValueError as exc:
            raise FormatError(f"dims {dims} make no array: {exc}") from None
        _read_payload(fh, array)
    return DenseTensor(array)


def _check_bcss_order(order: int) -> None:
    if not 2 <= order <= MAX_BLOCKED_ORDER:
        raise FormatError(
            f"blocked tensor order must be in 2..{MAX_BLOCKED_ORDER}, got {order}"
        )


def save_bcss(a: BcssTensor, path) -> None:
    """Write ``a``.  Anything but a :class:`~blocksym.storage.BcssTensor`
    raises :class:`ShapeError`, and an order that :func:`load_bcss` rejects
    :class:`FormatError`, before the file is opened."""
    if not isinstance(a, BcssTensor):
        raise ShapeError("save_bcss needs blocked compact symmetric input")
    _check_bcss_order(a.order)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHQQ", _BCSS_MAGIC, _VERSION, a.order, a.n, a.b))
        _write_payload(fh, a.data)


def load_bcss(path) -> BcssTensor:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        (magic, version, order, n, b), off = _unpack("<4sHHQQ", fh, size, 0)
        _check_magic_version(magic, version, _BCSS_MAGIC, "blocked symmetric tensor")
        _check_bcss_order(order)
        if b < 1 or n < 1 or n % b != 0:
            raise FormatError(f"block dimension {b} does not divide tensor dimension {n}")
        grid = n // b
        # The tables' own bounds raise ParameterError; a file must fail with FormatError.
        excess = table_excess(grid, order)
        if excess:
            raise FormatError(excess)
        _check_payload(size, off, b**order * simplex_count(grid, order))
        out = BcssTensor(order, n, b)
        _read_payload(fh, out.data)
    return out
