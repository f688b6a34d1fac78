import io
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocksym import (
    FormatError,
    ShapeError,
    compress,
    decompress,
    load_bcss,
    load_tensor,
    random_matrix,
    random_symmetric,
    save_bcss,
    save_tensor,
    simplex_count,
    sttsm_bcss,
)
from blocksym import io as blocksym_io
from blocksym.dense import DenseTensor
from blocksym.generate import random_bcss


def test_dense_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = DenseTensor(rng.standard_normal((3, 4, 2)))
    path = tmp_path / "t.stns"
    save_tensor(t, path)
    back = load_tensor(path)
    assert back.dims == t.dims
    assert np.array_equal(back.array, t.array)


def test_dense_header_layout(tmp_path):
    t = DenseTensor(np.arange(6.0).reshape((2, 3), order="F"))
    path = tmp_path / "t.stns"
    save_tensor(t, path)
    raw = path.read_bytes()
    magic, version, order = struct.unpack_from("<4sHH", raw, 0)
    assert magic == b"STNS" and version == 1 and order == 2
    dims = struct.unpack_from("<2Q", raw, 8)
    assert dims == (2, 3)
    payload = np.frombuffer(raw, dtype="<f8", offset=8 + 16)
    # Dimensional order: mode 0 fastest.
    assert payload.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


def test_dense_bad_magic_and_version(tmp_path):
    path = tmp_path / "bad.stns"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError, match="magic"):
        load_tensor(path)
    good = tmp_path / "v9.stns"
    good.write_bytes(struct.pack("<4sHH", b"STNS", 9, 1) + struct.pack("<Q", 1) + bytes(8))
    with pytest.raises(FormatError, match="version"):
        load_tensor(good)


def test_bcss_round_trip(tmp_path):
    t = random_symmetric(3, 6, 1)
    packed = compress(t, 2)
    path = tmp_path / "t.bcss"
    save_bcss(packed, path)
    back = load_bcss(path)
    assert back.order == 3 and back.n == 6 and back.b == 2
    assert sorted(back.blocks) == sorted(packed.blocks)
    for key in packed.blocks:
        assert np.array_equal(back.blocks[key], packed.blocks[key])
    assert np.array_equal(decompress(back).array, t.array)


def test_bcss_meta_reconstructed(tmp_path):
    t = random_symmetric(2, 4, 2)
    packed = compress(t, 2)
    path = tmp_path / "t.bcss"
    save_bcss(packed, path)
    back = load_bcss(path)
    assert back.tables.rank.shape == (2, 2)
    tables = back.tables
    assert np.array_equal(back.data[..., tables.rank[1, 0]], back.blocks[(0, 1)])
    assert tables.transposes[tables.transpose[1, 0]] == (1, 0)
    assert np.array_equal(back.block_at((1, 0)).array, t.array[2:4, 0:2])


def test_loaded_bcss_is_a_writable_copy_that_resaves_identically(tmp_path):
    path = tmp_path / "t.bcss"
    save_bcss(compress(random_symmetric(3, 6, 5), 2), path)
    raw = path.read_bytes()
    back = load_bcss(path)
    assert back.data.flags.writeable
    owner = back.data
    while isinstance(owner, np.ndarray) and owner.base is not None:
        owner = owner.base
    assert isinstance(owner, np.ndarray)  # an array's own memory, not the file's bytes
    again = tmp_path / "again.bcss"
    save_bcss(back, again)
    assert again.read_bytes() == raw
    back.blocks[(0, 1, 2)][0, 0, 0] += 1.0
    assert path.read_bytes() == raw


def test_bcss_bad_magic(tmp_path):
    path = tmp_path / "bad.bcss"
    path.write_bytes(b"XXXX" + bytes(30))
    with pytest.raises(FormatError, match="magic"):
        load_bcss(path)


def test_bcss_file_size_is_header_plus_payload(tmp_path):
    t = random_symmetric(2, 6, 3)
    packed = compress(t, 3)
    path = tmp_path / "t.bcss"
    save_bcss(packed, path)
    assert path.stat().st_size == struct.calcsize("<4sHHQQ") + packed.data.size * 8


# ------------------------------------------------------------ malformed files


def _saved_bcss(tmp_path, m=3, n=4, b=2):
    path = tmp_path / "t.bcss"
    save_bcss(compress(random_symmetric(m, n, 4), b), path)
    return path


def _saved_stns(tmp_path):
    path = tmp_path / "t.stns"
    save_tensor(random_symmetric(3, 3, 5), path)
    return path


def _bcss_header(order, n, b):
    return struct.pack("<4sHHQQ", b"BCSS", 1, order, n, b)


@pytest.mark.parametrize("loader,saved", [(load_bcss, _saved_bcss), (load_tensor, _saved_stns)])
def test_trailing_bytes_rejected(tmp_path, loader, saved):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(FormatError, match="payload"):
        loader(path)


@pytest.mark.parametrize("loader,saved", [(load_bcss, _saved_bcss), (load_tensor, _saved_stns)])
def test_truncated_payload_rejected(tmp_path, loader, saved):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError, match="payload"):
        loader(path)


@pytest.mark.parametrize("loader,saved", [(load_bcss, _saved_bcss), (load_tensor, _saved_stns)])
@pytest.mark.parametrize("keep", [0, 3, 8, 13])
def test_short_header_rejected(tmp_path, loader, saved, keep):
    path = saved(tmp_path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(FormatError, match="header"):
        loader(path)


@pytest.mark.parametrize("n,b", [(4, 0), (0, 0), (0, 2), (6, 4), (4, 8)])
def test_bcss_bad_block_dim_rejected(tmp_path, n, b):
    path = tmp_path / "bad.bcss"
    path.write_bytes(_bcss_header(2, n, b) + bytes(64))
    with pytest.raises(FormatError, match="block dimension"):
        load_bcss(path)


@pytest.mark.parametrize("order", [0, 1, 64, 65, 65535])
def test_bcss_order_out_of_range_rejected(tmp_path, order):
    path = tmp_path / "bad.bcss"
    path.write_bytes(_bcss_header(order, 4, 2) + bytes(16))
    with pytest.raises(FormatError, match="order"):
        load_bcss(path)


def test_bcss_of_order_64_is_a_format_error_and_63_loads(tmp_path):
    # n = b = 1 and one double: a valid header whose packed array would
    # need 65 axes, one past NumPy's limit, and the largest order that fits.
    path = tmp_path / "t.bcss"
    path.write_bytes(_bcss_header(64, 1, 1) + struct.pack("<d", 0.5))
    with pytest.raises(FormatError, match=r"order must be in 2\.\.63, got 64"):
        load_bcss(path)
    path.write_bytes(_bcss_header(63, 1, 1) + struct.pack("<d", 0.5))
    back = load_bcss(path)
    assert back.order == 63 and back.data.shape == (1,) * 64
    assert back.block_at((0,) * 63).array.item() == 0.5
    again = tmp_path / "again.bcss"
    save_bcss(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_save_bcss_refuses_an_order_the_loader_rejects(tmp_path):
    # An order-1 tensor used to be written, and then failed to load.
    packed = compress(DenseTensor(np.arange(4.0)), 2)
    path = tmp_path / "t.bcss"
    with pytest.raises(FormatError, match=r"order must be in 2\.\.63, got 1"):
        save_bcss(packed, path)
    assert not path.exists()


def test_save_bcss_refuses_a_partial_symmetric_tensor_before_opening(tmp_path):
    # A temporary of sttsm_bcss has a tail of unblocked modes that the
    # format cannot hold; the file already there must keep its bytes.
    temps = []
    packed = compress(random_symmetric(3, 4, 5), 2)
    sttsm_bcss(packed, random_matrix(4, 4, 6), 2, temp_hook=lambda k, t: temps.append(t))
    path = tmp_path / "t.bcss"
    save_bcss(packed, path)
    before = path.read_bytes()
    for temp in temps:
        with pytest.raises(ShapeError, match="blocked compact symmetric"):
            save_bcss(temp, path)
    assert path.read_bytes() == before


def test_savers_refuse_the_other_kind_of_tensor_before_opening(tmp_path):
    # Each saver checks the kind of tensor before it opens the file.
    dense = random_symmetric(3, 4, 7)
    packed = compress(dense, 2)
    for saver, wrong, good in [(save_tensor, packed, dense), (save_bcss, dense, packed)]:
        path = tmp_path / "t"
        saver(good, path)
        before = path.read_bytes()
        with pytest.raises(ShapeError, match="needs"):
            saver(wrong, path)
        assert path.read_bytes() == before


@pytest.mark.parametrize("order", [0, 65, 65535])
def test_stns_order_out_of_range_rejected(tmp_path, order):
    # Dims of 2**64 - 1 each: without the order check, their product alone
    # takes seconds to compute before the payload length is compared.
    dims = struct.pack(f"<{order}Q", *[2**64 - 1] * order)
    path = tmp_path / "bad.stns"
    path.write_bytes(struct.pack("<4sHH", b"STNS", 1, order) + dims + bytes(8))
    with pytest.raises(FormatError, match="order"):
        load_tensor(path)


@pytest.mark.parametrize("dims", [(0, 2**62), (0, 2**63 + 5), (2**33, 2**33, 0)])
def test_stns_empty_payload_with_oversized_dims_rejected(tmp_path, dims):
    # Zero elements, so the payload check passes; NumPy still refuses the shape.
    path = tmp_path / "empty.stns"
    header = struct.pack("<4sHH", b"STNS", 1, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
    path.write_bytes(header)
    with pytest.raises(FormatError, match="make no array"):
        load_tensor(path)


# A header whose grid of (n/b)**order block indices exceeds 2**25 entries
# (the whole m=5, n=32 grid at unit blocks) is rejected before any table is
# built; one at the bound passes that check and fails only on its payload.
# At order 25 and grid 2 the bound holds, but the tables would keep 2**25
# distinct transposes of 25 axes each, so that header is rejected too.
@pytest.mark.parametrize(
    "order,n,b,error",
    [(5, 32, 1, "payload"), (25, 2, 1, "transposes"), (5, 33, 1, "table entries"),
     (26, 2, 1, "table entries"), (5, 64, 2, "payload"), (5, 66, 2, "table entries")],
)
def test_bcss_table_bound(tmp_path, order, n, b, error):
    path = tmp_path / "bound.bcss"
    path.write_bytes(_bcss_header(order, n, b))
    with pytest.raises(FormatError, match=error):
        load_bcss(path)


def test_bcss_tiny_header_with_huge_grid_rejected_fast(tmp_path):
    # 248 payload bytes that used to ask for 2**30 table entries, one
    # canonicalize call each.
    path = tmp_path / "order30.bcss"
    path.write_bytes(_bcss_header(30, 2, 1) + bytes(8 * simplex_count(2, 30)))
    assert path.stat().st_size == 24 + 248
    t0 = time.perf_counter()
    with pytest.raises(FormatError, match="table entries"):
        load_bcss(path)
    assert time.perf_counter() - t0 < 0.5


def test_bcss_order25_file_rejected_fast(tmp_path):
    # The complete 232-byte file: its header passes the entry bound, and its
    # tables would keep 2**25 distinct 25-axis transposes, several GB.
    path = tmp_path / "order25.bcss"
    path.write_bytes(_bcss_header(25, 2, 1) + bytes(8 * simplex_count(2, 25)))
    assert path.stat().st_size == 232
    t0 = time.perf_counter()
    with pytest.raises(FormatError, match="transposes"):
        load_bcss(path)
    assert time.perf_counter() - t0 < 0.5


# The benchmark's two workload shapes and the finest ROADMAP point.
@pytest.mark.parametrize("m,n,b", [(5, 32, 8), (4, 48, 8), (5, 32, 2)])
def test_bcss_under_the_table_bound_loads_bitwise(tmp_path, m, n, b):
    t = random_bcss(m, n, b, 3)
    path = tmp_path / "t.bcss"
    save_bcss(t, path)
    back = load_bcss(path)
    assert back.data.tobytes(order="F") == t.data.tobytes(order="F")
    assert np.array_equal(back.tables.rank, t.tables.rank)
    assert np.array_equal(back.tables.transpose, t.tables.transpose)
    assert back.tables.transposes == t.tables.transposes


def test_bcss_bad_version_rejected(tmp_path):
    path = tmp_path / "v2.bcss"
    path.write_bytes(struct.pack("<4sHHQQ", b"BCSS", 2, 2, 4, 2) + bytes(8 * 12))
    with pytest.raises(FormatError, match="version"):
        load_bcss(path)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_cut_or_extension_of_a_file_is_a_format_error(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    loader, saved = data.draw(
        st.sampled_from([(load_bcss, _saved_bcss), (load_tensor, _saved_stns)])
    )
    path = saved(tmp_path)
    raw = path.read_bytes()
    extra = data.draw(st.binary(max_size=24))
    keep = data.draw(st.integers(0, len(raw) - 1)) if not extra else len(raw)
    path.write_bytes(raw[:keep] + extra)
    with pytest.raises(FormatError):
        loader(path)


def test_read_payload_short_read_is_a_format_error():
    # A file that shrinks between the size check and the read.
    with pytest.raises(FormatError, match="payload is 16 bytes, header implies 24"):
        blocksym_io._read_payload(io.BytesIO(bytes(16)), np.empty(3))


def test_read_payload_swaps_bytes_on_a_big_endian_host(monkeypatch):
    # On a big-endian host the file's little-endian doubles read in swapped,
    # as big-endian doubles do here, and the loader swaps them back.
    want = np.array([[1.5, -2.0], [3.25, 1e300]], order="F")
    monkeypatch.setattr(sys, "byteorder", "big")
    got = np.empty((2, 2), order="F")
    blocksym_io._read_payload(io.BytesIO(want.astype(">f8").tobytes(order="F")), got)
    assert np.array_equal(got, want)
