"""basket load: the BOOL-byte and var-count checks every read path shares."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import bulkio.bench as bench
from bulkio import (
    BulkBuffer,
    Codec,
    CountBuffer,
    DecompressError,
    ElementType,
    EventReader,
    FastEventReader,
    FileClosed,
    FormatError,
    Frame,
    IndexOutOfRange,
    InvalidProxyState,
    ShapeKind,
    SourceMode,
    TreeFile,
    TreeWriter,
    direct_sum,
    fixed_array,
    make_source,
    scalar,
    var_array,
)

from conftest import deflate_bomb, rewrite_basket, write_events


def _patch(path, branch: str, basket: int, at: int, value: int) -> None:
    """Overwrite one byte of a basket's payload (codec none)."""
    with TreeFile(path) as tf:
        desc = tf.footer.branches[tf.footer.branch_index(branch)]
        offset = desc.baskets[basket].file_offset + at
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(bytes(data))


@pytest.fixture
def raised_count_file(tmp_path):
    """Codec-none I32 var file, capacity 4, whose first count was raised
    from 1 to 2: basket 0 holds 6 elements but its counts sum to 7."""
    path = tmp_path / "counts.bkio"
    with TreeWriter(path, [("v", ElementType.I32, var_array())],
                    basket_capacity_entries=4) as w:
        for row in ([1], [2, 3], [], [7, 8, 9], [4], [5, 6]):
            w.fill(v=row)
    _patch(path, "v.count", 0, 3, 2)  # low byte of the big-endian u32
    return path


def test_count_mismatch_raises_on_every_path(raised_count_file):
    path = raised_count_file
    with TreeFile(path) as tf:
        rd = tf.branch("v")
        assert rd.count_reader.get_entry(0) == 2
        with pytest.raises(FormatError):
            rd.get_entries_serialized(0, BulkBuffer(), CountBuffer())
        with pytest.raises(FormatError):
            rd.get_entry(3)
        # the intact basket still reads
        assert rd.get_entries_serialized(4, BulkBuffer(), CountBuffer()) == 2
        assert rd.get_entry(5).tolist() == [5, 6]
    for step in ("next", "next_block"):
        with FastEventReader(path) as events:
            v = events.attach_array("v", ElementType.I32)
            with pytest.raises(FormatError):
                getattr(events, step)()
            with pytest.raises(InvalidProxyState):
                v.deref()
    with make_source(path, mode=SourceMode.BULK) as src:
        with pytest.raises(FormatError):
            direct_sum(src, "v")
    for mode in (SourceMode.PER_ENTRY, SourceMode.BULK):
        with make_source(path, mode=mode) as src:
            frame = Frame(src).define("s", lambda a: float(a.sum()), ["v"])
            with pytest.raises(FormatError):
                frame.sum("s")


def _bool_file(tmp_path, shape):
    """BOOL branch ``b`` of 8 events, capacity 4, with 0x02 in basket 1."""
    path = tmp_path / "bools.bkio"
    with TreeWriter(path, [("b", ElementType.BOOL, shape)],
                    basket_capacity_entries=4) as w:
        for i in range(8):
            value = bool(i % 2)
            w.fill(b=value if shape.kind is ShapeKind.SCALAR else [value, True])
    _patch(path, "b", 1, 0, 0x02)
    return path


@pytest.mark.parametrize("shape", [scalar(), fixed_array(2), var_array()],
                         ids=["scalar", "fixed", "var"])
def test_invalid_bool_byte_through_the_event_readers(tmp_path, shape):
    path = _bool_file(tmp_path, shape)
    is_array = shape.kind is not ShapeKind.SCALAR

    def attach(events):
        if is_array:
            return events.attach_array("b", ElementType.BOOL)
        return events.attach_value("b", ElementType.BOOL)

    def first_basket(proxy, events):
        for i in range(4):
            assert events.next()
            got = proxy.deref()
            if is_array:
                assert got.dtype == np.bool_
                assert got.tolist() == [bool(i % 2), True]
            else:
                assert got is bool(i % 2)

    # plain: the dereference whose get_entry loads the bad basket raises
    with EventReader(path) as events:
        b = attach(events)
        first_basket(b, events)
        assert events.next()
        with pytest.raises(FormatError):
            b.deref()
    # fast: the next() that refills with the bad basket raises
    with FastEventReader(path) as events:
        b = attach(events)
        first_basket(b, events)
        with pytest.raises(FormatError):
            events.next()
        with pytest.raises(InvalidProxyState):
            b.deref()
    # ... and so does next_block()
    with FastEventReader(path) as events:
        b = attach(events)
        assert events.next_block() == 4
        assert b.block().dtype == np.bool_
        with pytest.raises(FormatError):
            events.next_block()
        with pytest.raises(InvalidProxyState):
            b.block()


@pytest.mark.parametrize("shape", [scalar(), fixed_array(2), var_array()],
                         ids=["scalar", "fixed", "var"])
def test_invalid_bool_byte_through_blocks(tmp_path, shape):
    """``DataSource.blocks`` reads through its reader's window, whose load
    checks BOOL bytes: the bad basket raises instead of handing out 0x02."""
    path = _bool_file(tmp_path, shape)
    with make_source(path, mode=SourceMode.BULK) as src:
        blocks = src.blocks("b")
        first = [False, True, False, True]
        if shape.kind is not ShapeKind.SCALAR:
            first = [b for v in first for b in (v, True)]
        assert next(blocks).astype(bool).tolist() == first
        with pytest.raises(FormatError):
            next(blocks)


def test_failed_refill_leaves_no_block_behind(tmp_path):
    """A proxy refilled before another proxy's basket fails to load must not
    serve the new basket for the old entries."""
    path = tmp_path / "two.bkio"
    with TreeWriter(path, [("x", ElementType.F32, scalar()),
                           ("b", ElementType.BOOL, scalar())],
                    basket_capacity_entries=4) as w:
        for i in range(8):
            w.fill(x=float(i), b=True)
    _patch(path, "b", 1, 0, 0x02)
    with FastEventReader(path) as events:
        x = events.attach_value("x", ElementType.F32)
        events.attach_value("b", ElementType.BOOL)
        assert events.next_block() == 4
        with pytest.raises(FormatError):
            events.next_block()
        with pytest.raises(InvalidProxyState):
            x.block()
        with pytest.raises(FormatError):  # the same basket fails again
            events.next_block()


def test_failed_load_leaves_no_basket_behind(tmp_path):
    path = _bool_file(tmp_path, scalar())
    with TreeFile(path) as tf:
        rd = tf.branch("b")
        assert rd.get_entry(0) is False
        with pytest.raises(FormatError):
            rd.get_entry(4)
        assert rd.get_entry(0) is False  # basket 0 again, not basket 1's bytes
        buf = BulkBuffer()
        assert rd.get_bulk_entries(0, buf) == 4
        assert buf.value_at(ElementType.BOOL, 1) is True
        with pytest.raises(FormatError):
            rd.get_bulk_entries(4, buf)
        assert buf.nbytes == 0
        with pytest.raises(IndexOutOfRange):
            buf.value_at(ElementType.BOOL, 0)
        with pytest.raises(IndexOutOfRange):
            buf.as_array()


def test_recorded_size_past_the_stream_allocates_nothing(tmp_path):
    """A deflate basket that claims 16 TiB inflates to its real size first:
    every read raises DecompressError instead of trying to allocate 16 TiB."""
    src = tmp_path / "vd.bkio"
    with TreeWriter(src, [("v", ElementType.I32, var_array())],
                    basket_capacity_entries=4, codec=Codec.DEFLATE) as w:
        for i in range(8):
            w.fill(v=[i, i])
    bad = rewrite_basket(src, tmp_path / "huge.bkio", 0, 0,
                         uncompressed_size=2**44)
    with TreeFile(bad) as tf:
        rd = tf.branch("v")
        for read in (lambda: rd.get_entry(0),
                     lambda: rd.get_bulk_entries(0, BulkBuffer()),
                     lambda: rd.get_entries_serialized(0, BulkBuffer(),
                                                       CountBuffer())):
            with pytest.raises(DecompressError):
                read()
    report = bench.verify(bad)
    assert not report.passed
    assert any("DecompressError" in f for f in report.failures)


def test_deflate_bomb_stops_past_the_recorded_size(tmp_path):
    """A stream that inflates past its recorded size raises DecompressError
    once it has inflated one byte more, not after inflating all of it."""
    bomb = deflate_bomb(tmp_path)
    with TreeFile(bomb) as tf:
        rd = tf.branch("v")
        tracemalloc.start()
        try:
            with pytest.raises(DecompressError, match="expected 32768"):
                rd.get_bulk_entries(0, BulkBuffer())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 1024 * 1024  # the stream inflates to 16 MiB


def test_basket_running_into_the_footer_is_truncated(tmp_path, ramp_file):
    """A codec-none basket pointed into the footer opens (a payload cut
    short with its footer spliced back looks the same) but never reads
    footer bytes as values."""
    footer_offset = int.from_bytes(ramp_file.read_bytes()[-8:], "big")
    bad = rewrite_basket(ramp_file, tmp_path / "into_footer.bkio", 0, 3,
                         file_offset=footer_offset)
    with TreeFile(bad) as tf:
        rd = tf.branch("x")
        assert rd.get_entry(95) == 95.0
        for read in (lambda: rd.get_entry(96),
                     lambda: rd.get_bulk_entries(96, BulkBuffer()),
                     lambda: rd.get_entries_serialized(96, BulkBuffer())):
            with pytest.raises(DecompressError):
                read()
    assert not bench.verify(bad).passed


# --- deserializing swaps through unsigned views of the element width ---

_BITS = {  # element type -> bit patterns to write, NaN payloads included
    ElementType.I16: [0, 1, 0x7FFF, 0x8000, 0xFFFF, 0x1234],
    ElementType.U16: [0, 1, 0x7FFF, 0x8000, 0xFFFF, 0x1234],
    ElementType.I32: [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x12345678],
    ElementType.U32: [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x12345678],
    # quiet and signalling NaNs with payloads, both signs, and infinity
    ElementType.F32: [0x7FC00000, 0x7FA00001, 0xFFC12345, 0x7F800001,
                      0x7F800000, 0x80000000],
    ElementType.I64: [0, 1, 0x7FFFFFFFFFFFFFFF, 0x8000000000000000,
                      0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF],
    ElementType.U64: [0, 1, 0x7FFFFFFFFFFFFFFF, 0x8000000000000000,
                      0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF],
    ElementType.F64: [0x7FF8000000000000, 0x7FF0000000000001,
                      0xFFF123456789ABCD, 0x7FF4000000000000,
                      0x7FF0000000000000, 0x8000000000000000],
}


@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE], ids=lambda c: c.name)
@pytest.mark.parametrize("etype", list(_BITS), ids=lambda t: t.name)
def test_deserialized_baskets_keep_every_bit(tmp_path, etype, codec):
    """Widths 2, 4 and 8: the deserialized basket holds the written bit
    patterns, NaN payloads included, and the serialized copy their
    big-endian bytes."""
    w = etype.width_bytes
    bits = np.array(_BITS[etype] * 3, dtype=f"u{w}")
    values = bits.view(etype.np_native)
    path = tmp_path / "bits.bkio"
    with TreeWriter(path, [("x", etype, scalar())], basket_capacity_entries=5,
                    codec=codec) as wr:
        wr.extend(x=values)
    buf = BulkBuffer()
    with TreeFile(path) as tf:
        rd = tf.branch("x")
        for start in range(0, len(bits), 5):
            n = rd.get_bulk_entries(start, buf)
            assert buf.as_array().dtype == np.dtype(etype.np_native)
            assert buf.as_array().view(f"u{w}").tolist() == bits[start:start + n].tolist()
            rd.get_entries_serialized(start, buf)
            assert buf.to_bytes() == bits[start:start + n].astype(f">u{w}").tobytes()


@pytest.mark.parametrize("etype", [ElementType.BOOL, ElementType.I8, ElementType.U8],
                         ids=lambda t: t.name)
def test_one_byte_baskets_deserialize_verbatim(tmp_path, etype):
    raw = np.array([0, 1, 1, 0, 1] if etype is ElementType.BOOL
                   else [0, 1, 0x7F, 0x80, 0xFF], dtype="u1")
    path = tmp_path / "bytes.bkio"
    with TreeWriter(path, [("x", etype, scalar())]) as wr:
        wr.extend(x=raw.view(etype.np_native))
    buf = BulkBuffer()
    with TreeFile(path) as tf:
        tf.branch("x").get_bulk_entries(0, buf)
    assert buf.as_array().dtype == np.dtype(etype.np_native)
    assert buf.to_bytes() == raw.tobytes()


# --- the reader window: the one loaded basket behind every internal read ---

@pytest.mark.parametrize("n_slots", [1, 2])
@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE], ids=lambda c: c.name)
@pytest.mark.parametrize("shape", [scalar(), fixed_array(3), var_array()],
                         ids=["scalar", "fixed", "var"])
def test_every_path_loads_each_basket_once(tmp_path, shape, codec, n_slots):
    """Each pass loads every basket once per reader: a var branch also loads
    each of its count baskets once, through its count reader."""
    path = tmp_path / "once.bkio"
    with TreeWriter(path, [("x", ElementType.I32, shape)],
                    basket_capacity_entries=8, codec=codec) as w:
        for i in range(45):
            w.fill(x=i if shape.kind is ShapeKind.SCALAR
                   else [i] * (3 if shape.kind is ShapeKind.FIXED_ARRAY else i % 4))
    is_array = shape.kind is not ShapeKind.SCALAR
    n_baskets = 6 * (2 if shape.kind is ShapeKind.VAR_ARRAY else 1)

    def loaded(rd):
        cr = getattr(rd, "count_reader", None)
        return rd.baskets_read + (cr.baskets_read if cr is not None else 0)

    for mode in (SourceMode.PER_ENTRY, SourceMode.BULK):
        with make_source(path, mode=mode, n_slots=n_slots) as src:
            frame = Frame(src)
            if is_array:
                frame.define("n", len, ["x"]).sum("n")
            else:
                frame.sum("x")
            assert src.baskets_read == n_baskets
    with make_source(path, mode=SourceMode.BULK, n_slots=n_slots) as src:
        direct_sum(src, "x")
        assert src.baskets_read == n_baskets
    with FastEventReader(path) as events:
        x = (events.attach_array if is_array else events.attach_value)(
            "x", ElementType.I32)
        while events.next():
            x.deref()
        assert x.refill_count == 6
        assert loaded(x._rd) == n_baskets
    with TreeFile(path) as tf:
        rd = tf.branch("x")
        for i in range(rd.n_entries):
            rd.get_entry(i)
        assert loaded(rd) == n_baskets


@pytest.mark.parametrize("etype,shape", [
    (ElementType.I16, fixed_array(3)),
    (ElementType.F32, var_array()),
    (ElementType.U8, var_array()),
], ids=["fixed-I16", "var-F32", "var-U8"])
def test_bulk_arrays_outlive_the_next_load(tmp_path, etype, shape):
    """Arrays a BULK column hands out are copies, not views of the window:
    they keep their values after later loads reuse the window's memory.
    Every basket has the same byte size, so each load overwrites the last."""
    def row(i):  # per-basket lengths 1, 3, 2, 2: 8 elements in each basket
        k = 3 if shape.kind is ShapeKind.FIXED_ARRAY else (1, 3, 2, 2)[i % 4]
        return np.arange(i, i + k).astype(etype.np_native)

    rows = [row(i) for i in range(16)]
    path = tmp_path / "copies.bkio"
    write_events(path, etype, shape, rows, capacity=4)
    with make_source(path, mode=SourceMode.BULK) as src:
        col = src.reader("x")
        got = [col.read(i) for i in range(16)]
        kept = []
        Frame(src).define("k", lambda a: kept.append(a) or 0.0, ["x"]).sum("k")
        Frame(src).filter(lambda a: kept.append(a) or True, ["x"]).count()
    for arrays in (got, kept[:16], kept[16:]):
        assert len(arrays) == 16
        for a, want in zip(arrays, rows):
            assert a.dtype == np.dtype(etype.np_native)
            assert a.tolist() == want.tolist()


def test_closed_file_stops_window_readers(ramp_file):
    """A fast iterator and a blocks generator read into their readers'
    windows; once the file closes, their next load raises FileClosed."""
    tf = TreeFile(ramp_file)
    events = FastEventReader(tf)
    events.attach_value("x", ElementType.F32)
    assert events.next_block() == 32
    tf.close()
    with pytest.raises(FileClosed):
        events.next_block()
    src = make_source(ramp_file, mode=SourceMode.BULK)
    blocks = src.blocks("x")
    assert len(next(blocks)) == 32
    src.close()
    with pytest.raises(FileClosed):
        next(blocks)


def test_fixed_array_window_counts_follow_basket_sizes(tmp_path):
    """A fixed-array window fills its counts only when the basket's event
    count changes; moving between full baskets and the short last one, in
    any order, still slices every event right."""
    rows = [np.arange(i, i + 3, dtype="i2") for i in range(21)]
    path = tmp_path / "fixed.bkio"
    write_events(path, ElementType.I16, fixed_array(3), rows, capacity=8)
    with TreeFile(path) as tf:
        rd = tf.branch("x")
        for i in (20, 0, 17, 9, 19, 3, 16, 8):
            assert rd.get_entry(i).tolist() == rows[i].tolist()
            assert len(rd._ck_counts) == (5 if i >= 16 else 8)
        assert rd._ck_counts.counts.tolist() == [3] * 8
    with FastEventReader(path) as events:
        x = events.attach_array("x", ElementType.I16)
        sizes = []
        while (n := events.next_block()):
            assert x.block_counts().tolist() == [3] * n
            sizes.append(n)
        assert sizes == [8, 8, 5]
    with FastEventReader(path) as events:
        x = events.attach_array("x", ElementType.I16)
        while events.next():
            assert x.deref().tolist() == rows[events.cursor].tolist()
