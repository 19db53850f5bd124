"""reader: the three read paths, buffer semantics, equivalence invariants."""

from __future__ import annotations

import os
import zlib

import numpy as np
import pytest

from bulkio import (
    BufferState,
    BulkBuffer,
    Codec,
    CountBufferRequired,
    CountBuffer,
    DecompressError,
    ElementType,
    EntryOutOfRange,
    FileClosed,
    FormatError,
    IndexOutOfRange,
    NotBasketStart,
    ShapeKind,
    TreeFile,
    TreeWriter,
    UnknownBranch,
    fixed_array,
    scalar,
    var_array,
)

from conftest import make_events, write_events, assert_three_way_roundtrip


# --- get_entry ---

def test_get_entry_ramp(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        assert rd.get_entry(7) == 7.0
        assert rd.get_entry(99) == 99.0
        assert rd.get_entry(0) == 0.0


def test_get_entry_out_of_range(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        with pytest.raises(EntryOutOfRange):
            rd.get_entry(100)
        with pytest.raises(EntryOutOfRange):
            rd.get_entry(-1)


def test_get_entry_var_array(var_file):
    with TreeFile(var_file) as tf:
        rd = tf.branch("v")
        assert np.array_equal(rd.get_entry(2), [7.0, 8.0, 9.0])
        assert rd.get_entry(1).shape == (0,)
        assert np.array_equal(rd.get_entry(0), [1.0, 2.0])


def test_unknown_branch(ramp_file):
    with TreeFile(ramp_file) as tf:
        with pytest.raises(UnknownBranch):
            tf.branch("nope")


# --- get_bulk_entries ---

def test_bulk_entries_ramp(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        buf = BulkBuffer()
        assert rd.get_bulk_entries(0, buf) == 32
        assert buf.state is BufferState.DESERIALIZED
        assert buf.event_count == 32
        assert buf.value_at(ElementType.F32, 5) == 5.0
        assert rd.get_bulk_entries(96, buf) == 4  # partial last basket
        assert buf.value_at(ElementType.F32, 3) == 99.0


def test_bulk_entries_not_basket_start(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        buf = BulkBuffer()
        with pytest.raises(NotBasketStart):
            rd.get_bulk_entries(5, buf)
        with pytest.raises(EntryOutOfRange):
            rd.get_bulk_entries(100, buf)


def test_bulk_buffer_reuse_grows_only(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        buf = BulkBuffer()
        rd.get_bulk_entries(0, buf)
        assert buf.nbytes == 32 * 4
        rd.get_bulk_entries(96, buf)
        assert buf.nbytes == 4 * 4
        assert buf.event_count == 4
        assert np.array_equal(buf.as_array(), [96.0, 97.0, 98.0, 99.0])


# --- get_entries_serialized ---

def test_serialized_bytes_pinned(tmp_path):
    path = tmp_path / "two.bkio"
    with TreeWriter(path, [("x", ElementType.F32, scalar())]) as w:
        w.fill(x=1.0)
        w.fill(x=2.0)
    with TreeFile(path) as tf:
        buf = BulkBuffer()
        got = tf.branch("x").get_entries_serialized(0, buf)
    assert got == 2
    assert buf.state is BufferState.SERIALIZED
    assert buf.to_bytes() == bytes.fromhex("3F800000" "40000000")


def test_serialized_var_with_counts(tmp_path):
    path = tmp_path / "v3.bkio"
    with TreeWriter(path, [("v", ElementType.F32, var_array())]) as w:
        w.fill(v=[1.0, 2.0])
        w.fill(v=[])
        w.fill(v=[7.0, 8.0, 9.0])
    with TreeFile(path) as tf:
        rd = tf.branch("v")
        buf, cbuf = BulkBuffer(), CountBuffer()
        assert rd.get_entries_serialized(0, buf, cbuf) == 3
        assert list(cbuf.counts) == [2, 0, 3]
        assert buf.element_count == 5
        assert cbuf.total() == buf.element_count
        vals = buf.as_array().astype("f4")
        assert np.array_equal(vals, [1.0, 2.0, 7.0, 8.0, 9.0])


def test_serialized_var_requires_count_buffer(var_file):
    with TreeFile(var_file) as tf:
        with pytest.raises(CountBufferRequired):
            tf.branch("v").get_entries_serialized(0, BulkBuffer())


def test_serialized_scalar_fills_counts_if_given(ramp_file):
    with TreeFile(ramp_file) as tf:
        cbuf = CountBuffer()
        tf.branch("x").get_entries_serialized(0, BulkBuffer(), cbuf)
        assert cbuf.total() == 32
        assert set(cbuf.counts.tolist()) == {1}


def test_serialized_fidelity_against_raw_file(tmp_path, rng):
    """Serialized buffer must equal the independently decompressed payload."""
    path = tmp_path / "fid.bkio"
    events = make_events(rng, ElementType.I32, scalar(), 200)
    write_events(path, ElementType.I32, scalar(), events,
                 capacity=32, codec=Codec.DEFLATE)
    with TreeFile(path) as tf:
        rd = tf.branch("x")
        buf = BulkBuffer()
        fd = os.open(str(path), os.O_RDONLY)
        try:
            for bk in rd.descriptor.baskets:
                rd.get_entries_serialized(bk.first_entry, buf)
                raw = os.pread(fd, bk.compressed_size, bk.file_offset)
                payload = zlib.decompressobj(-15).decompress(raw)
                assert buf.to_bytes() == payload
        finally:
            os.close(fd)


# --- value_at ---

def test_value_at_deserialized(ramp_file):
    with TreeFile(ramp_file) as tf:
        buf = BulkBuffer()
        tf.branch("x").get_bulk_entries(0, buf)
        assert buf.value_at(ElementType.F32, 31) == 31.0
        with pytest.raises(IndexOutOfRange):
            buf.value_at(ElementType.F32, buf.element_count)
        with pytest.raises(IndexOutOfRange):
            buf.value_at(ElementType.F32, -1)


def test_value_at_serialized_single_decode():
    buf = BulkBuffer()
    mem = buf._prepare(4, ElementType.F32, BufferState.SERIALIZED, 1, 1)
    mem[:] = np.frombuffer(bytes.fromhex("3F800000"), dtype="u1")
    assert buf.value_at(ElementType.F32, 0) == 1.0


def test_value_at_unfilled_buffer():
    with pytest.raises(IndexOutOfRange):
        BulkBuffer().value_at(ElementType.F32, 0)


# --- basket_bounds ---

def test_basket_bounds(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        assert rd.basket_bounds(33) == (32, 32)
        assert rd.basket_bounds(0) == (0, 32)
        assert rd.basket_bounds(99) == (96, 4)
        with pytest.raises(EntryOutOfRange):
            rd.basket_bounds(100)


def test_basket_iteration_visits_each_entry_once(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        buf = BulkBuffer()
        seen = []
        entry = 0
        while entry < rd.n_entries:
            first, n = rd.basket_bounds(entry)
            assert first == entry
            got = rd.get_bulk_entries(entry, buf)
            assert got == n
            seen.extend(range(entry, entry + got))
            entry += got
        assert seen == list(range(100))


# --- empty files, truncation, bools ---

def test_empty_file_reads(tmp_path):
    path = tmp_path / "none.bkio"
    TreeWriter(path, [("x", ElementType.F32, scalar())]).close()
    with TreeFile(path) as tf:
        rd = tf.branch("x")
        assert rd.n_entries == 0
        with pytest.raises(EntryOutOfRange):
            rd.get_entry(0)
        with pytest.raises(EntryOutOfRange):
            rd.get_bulk_entries(0, BulkBuffer())


def test_truncated_basket_payload(tmp_path):
    """Payload cut mid-basket (footer intact) surfaces as DecompressError."""
    path = tmp_path / "trunc.bkio"
    with TreeWriter(path, [("x", ElementType.F64, scalar())],
                    basket_capacity_entries=8, codec=Codec.DEFLATE) as w:
        for i in range(32):
            w.fill(x=float(i) * 0.5)
    data = path.read_bytes()
    footer = read_trailer = data[-8:]
    footer_offset = int.from_bytes(read_trailer, "big")
    # keep header + first 10 payload bytes, then splice the footer back in
    cut = path.with_suffix(".cut")
    cut.write_bytes(data[:18] + data[footer_offset:-8] +
                    (18).to_bytes(8, "big"))
    with TreeFile(cut) as tf:
        rd = tf.branch("x")
        with pytest.raises(DecompressError):
            rd.get_entry(20)


def test_bool_payload_validation(tmp_path):
    path = tmp_path / "bool.bkio"
    with TreeWriter(path, [("b", ElementType.BOOL, scalar())],
                    basket_capacity_entries=4) as w:
        for i in range(8):
            w.fill(b=bool(i % 2))
    data = bytearray(path.read_bytes())
    data[8] = 0x02  # corrupt the first stored boolean
    bad = tmp_path / "bool_bad.bkio"
    bad.write_bytes(bytes(data))
    with TreeFile(bad) as tf:
        rd = tf.branch("b")
        with pytest.raises(FormatError):
            rd.get_entry(0)
        with pytest.raises(FormatError):
            rd.get_bulk_entries(0, BulkBuffer())
        buf = BulkBuffer()
        rd.get_entries_serialized(0, buf)  # raw bytes pass through
        with pytest.raises(FormatError):
            buf.value_at(ElementType.BOOL, 0)  # ...but decode rejects


def test_bool_validation_inside_deflate_basket(tmp_path):
    """Hand-built file: a deflate basket hiding an invalid BOOL byte."""
    import struct
    from bulkio import BasketDescriptor, BranchDescriptor, BranchShape, FileFooter
    from bulkio.format import compress_payload, footer_to_bytes

    payload = bytes([0, 1, 2, 1])  # 0x02 is not a boolean
    compressed = compress_payload(payload, Codec.DEFLATE)
    branch = BranchDescriptor(
        "b", ElementType.BOOL, BranchShape(ShapeKind.SCALAR),
        [BasketDescriptor(0, 4, 8, len(compressed), 4, Codec.DEFLATE)])
    footer = footer_to_bytes(FileFooter("tree", 4, [branch]))
    path = tmp_path / "badbool.bkio"
    offset = 8 + len(compressed)
    path.write_bytes(b"BKIO" + struct.pack(">HH", 1, 0) + compressed +
                     footer + struct.pack(">Q", offset))
    with TreeFile(path) as tf:
        rd = tf.branch("b")
        with pytest.raises(FormatError):
            rd.get_entry(2)
        with pytest.raises(FormatError):
            rd.get_bulk_entries(0, BulkBuffer())
        buf = BulkBuffer()
        rd.get_entries_serialized(0, buf)  # serialized passes raw bytes
        assert buf.value_at(ElementType.BOOL, 1) is True
        with pytest.raises(FormatError):
            buf.value_at(ElementType.BOOL, 2)


def test_baskets_read_instrumentation(ramp_file):
    with TreeFile(ramp_file) as tf:
        rd = tf.branch("x")
        assert rd.baskets_read == 0
        rd.get_entry(0)
        assert rd.baskets_read == 1
        rd.get_entry(31)  # same basket, cached
        assert rd.baskets_read == 1
        rd.get_entry(32)
        assert rd.baskets_read == 2


def test_concurrent_readers_share_file(ramp_file):
    import threading
    with TreeFile(ramp_file) as tf:
        sums = [0.0, 0.0]

        def work(slot):
            rd = tf.branch("x")
            sums[slot] = sum(rd.get_entry(i) for i in range(100))

        threads = [threading.Thread(target=work, args=(s,)) for s in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sums[0] == sums[1] == sum(range(100))


# --- API equivalence across shapes, types, capacities, codecs ---

@pytest.mark.parametrize("capacity", [1, 7, 32])
@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE],
                         ids=["none", "deflate"])
def test_equivalence_layouts(tmp_path, rng, capacity, codec):
    for etype in (ElementType.F32, ElementType.I64, ElementType.BOOL):
        for shape in (scalar(), fixed_array(2), var_array()):
            events = make_events(rng, etype, shape, 40)
            path = tmp_path / f"{etype.name}_{shape.kind.name}.bkio"
            write_events(path, etype, shape, events, capacity, codec)
            assert_three_way_roundtrip(path, etype, shape, events)


def test_reads_after_close_raise_instead_of_reading_another_file(tmp_path):
    """A closed file's descriptor number is reused by the next open."""
    a, b = tmp_path / "a.bkio", tmp_path / "b.bkio"
    for path, value in ((a, 1.0), (b, 2.0)):
        with TreeWriter(path, [("x", ElementType.F32, scalar()),
                               ("v", ElementType.F32, var_array())],
                        basket_capacity_entries=4) as w:
            for _ in range(10):
                w.fill(x=value, v=[value, value])
    tf = TreeFile(a)
    x, v = tf.branch("x"), tf.branch("v")
    assert x.get_entry(0) == 1.0  # basket 0 now cached
    tf.close()
    with TreeFile(b) as other:
        assert other.branch("x").get_entry(0) == 2.0
        for call in (lambda: x.get_entry(0), lambda: x.get_entry(9),
                     lambda: v.get_entry(5),
                     lambda: x.get_bulk_entries(0, BulkBuffer()),
                     lambda: x.get_entries_serialized(4, BulkBuffer()),
                     lambda: v.get_entries_serialized(0, BulkBuffer(),
                                                      CountBuffer()),
                     lambda: v.count_reader.get_entry(0)):
            with pytest.raises(FileClosed):
                call()
