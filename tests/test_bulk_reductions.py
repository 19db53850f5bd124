"""Bulk reductions bit for bit against a reference built from serialized
baskets, and the checks of the basket load they read through.

``direct_sum``, ``direct_histogram`` and the frame's array plan reduce the
per-basket views of ``DataSource.blocks``. The reference here reads the
same baskets with ``get_entries_serialized`` and reduces them by the
documented order: ``direct_sum`` as one float64 ``np.sum`` per basket,
added up in order per slot and then across slots; ``Frame.sum`` as the left
fold ``acc += v`` over Python numbers; histograms with the per-event bin
rule. Files are written by hand so that basket sizes can be uneven.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np
import pytest

from bulkio import (
    BasketDescriptor,
    BranchDescriptor,
    BulkBuffer,
    Codec,
    CountBuffer,
    DecompressError,
    ElementType,
    FastEventReader,
    FileClosed,
    FileFooter,
    FormatError,
    Frame,
    IndexOutOfRange,
    SourceMode,
    TreeFile,
    TreeWriter,
    TypeMismatch,
    compress_payload,
    direct_histogram,
    direct_sum,
    make_source,
    scalar,
    var_array,
)
from bulkio.format import footer_to_bytes, write_header

SIZES = [5, 1, 13, 2, 8, 3]  # uneven baskets of 32 entries
N = sum(SIZES)


def write_by_hand(path, branches, codec: Codec = Codec.NONE) -> None:
    """A file of scalar branches ``(name, etype, values, basket sizes)``,
    each basket cut where its branch's sizes say. Values are cast straight
    to the disk dtype, so a BOOL branch may hold any byte."""
    with open(path, "wb") as f:
        write_header(f)
        descs = []
        for name, etype, values, sizes in branches:
            disk = np.asarray(values).astype(etype.np_disk)
            baskets, first = [], 0
            for n in sizes:
                raw = disk[first:first + n].tobytes()
                stored = compress_payload(raw, codec)
                baskets.append(BasketDescriptor(first, n, f.tell(), len(stored),
                                                len(raw), codec))
                f.write(stored)
                first += n
            descs.append(BranchDescriptor(name, etype, scalar(), baskets))
        offset = f.tell()
        f.write(footer_to_bytes(FileFooter("t", first, descs)))
        f.write(struct.pack(">Q", offset))


def _floats(rng, dtype, kind: str) -> np.ndarray:
    """N values of a float dtype: mixed magnitudes with -0.0, plus +inf
    (kind "inf"), or NaN and -inf (kind "nan"); or only -0.0 ("negzero")."""
    if kind == "negzero":
        return np.full(N, -0.0, dtype=dtype)
    mags = 10.0 ** rng.integers(-30, 31, size=N)
    vals = (rng.standard_normal(N) * mags).astype(dtype)
    vals[[3, 17]] = -0.0
    vals[9] = 1.0 / 3.0
    if kind == "inf":
        vals[11] = np.inf
    elif kind == "nan":
        vals[[6, 20]] = [np.nan, -np.inf]
    return vals


def _ints(rng, etype: ElementType) -> np.ndarray:
    """N integers of a 64-bit type, most of them past 2**53."""
    if etype is ElementType.U64:
        vals = rng.integers(2**53, 2**64, size=N, dtype=np.uint64, endpoint=False)
        vals[[0, 7]] = [2**64 - 1, 2**53 + 1]
    else:
        vals = rng.integers(-2**63, 2**63, size=N, dtype=np.int64, endpoint=False)
        vals[[0, 7, 8]] = [2**63 - 1, -2**63, 2**53 + 1]
    return vals


DATA = [(ElementType.F32, "finite"), (ElementType.F32, "inf"),
        (ElementType.F32, "nan"), (ElementType.F64, "finite"),
        (ElementType.F64, "nan"), (ElementType.F64, "negzero"),
        (ElementType.I64, "big"), (ElementType.U64, "big")]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _serialized(path, column: str) -> list[np.ndarray]:
    """Each basket of a column as its on-disk elements, read with
    get_entries_serialized."""
    with TreeFile(path) as tf:
        rd = tf.branch(column)
        buf = BulkBuffer()
        views = []
        for bk in rd.descriptor.baskets:
            rd.get_entries_serialized(bk.first_entry, buf)
            views.append(buf.as_array().copy())
    return views


def _by_slot(src, views) -> list[list[np.ndarray]]:
    firsts = np.cumsum([0] + [len(v) for v in views[:-1]])
    return [[v for f, v in zip(firsts, views) if lo <= f < hi]
            for lo, hi in src.slot_ranges]


def _ref_direct_sum(slots) -> float:
    total = 0.0
    for views in slots:
        acc = 0.0
        for v in views:
            acc += float(np.sum(v, dtype=np.float64))
        total += acc
    return total


def _ref_frame_sum(slots) -> float:
    total = 0.0
    for views in slots:
        acc = 0.0
        for v in views:
            for x in v.tolist():
                acc += x
        total += acc
    return math.nan if total != total else total


def _ref_histogram(views, bins: int, lo: float, hi: float) -> list[int]:
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in views:
        for x in v.tolist():
            if lo <= x < hi:
                counts[min(int((x - lo) / width), bins - 1)] += 1
    return counts


@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE], ids=lambda c: c.name)
@pytest.mark.parametrize("n_slots", [1, 2, 3])
@pytest.mark.parametrize("etype,kind", DATA,
                         ids=[f"{t.name}-{k}" for t, k in DATA])
def test_bulk_reductions_match_the_serialized_reference(tmp_path, etype, kind,
                                                        n_slots, codec):
    """direct_sum, direct_histogram, and the array plan's Frame.sum and
    Frame.histogram equal the reference bit for bit, and each action reads
    every basket once."""
    rng = np.random.default_rng(len(kind) * 31 + etype)
    values = (_ints(rng, etype) if kind == "big"
              else _floats(rng, etype.np_native, kind))
    path = tmp_path / "r.bkio"
    write_by_hand(path, [("x", etype, values, SIZES)], codec)
    views = _serialized(path, "x")
    if etype in (ElementType.I64, ElementType.U64):
        binning = (16, float(-2**62), float(2**64))
    else:
        binning = (10, -1e3, 1e3)
    with make_source(path, mode=SourceMode.BULK, n_slots=n_slots) as src:
        slots = _by_slot(src, views)
        frame = Frame(src)
        got = [direct_sum(src, "x"), frame.sum("x")]
        assert src.baskets_read == 2 * len(SIZES)
        assert _bits(got[0]) == _bits(_ref_direct_sum(slots))
        assert _bits(got[1]) == _bits(_ref_frame_sum(slots))
        want = _ref_histogram(views, *binning)
        assert direct_histogram(src, "x", *binning).tolist() == want
        assert frame.histogram("x", *binning).tolist() == want
        assert src.baskets_read == 4 * len(SIZES)
        assert src.plans_run == {"array": 2, "indexed": 0}


@pytest.mark.parametrize("n_slots", [1, 2, 3])
def test_direct_sum_of_a_var_column_matches_its_baskets(tmp_path, n_slots):
    """direct_sum of an I64 var column: every element, one np.sum per
    basket, and a count basket read with each of its baskets."""
    rng = np.random.default_rng(5)
    rows = [rng.integers(-2**62, 2**62, size=int(rng.integers(0, 5)))
            for _ in range(45)]
    path = tmp_path / "v.bkio"
    with TreeWriter(path, [("v", ElementType.I64, var_array())],
                    basket_capacity_entries=8) as w:
        w.extend(v=rows)
    with TreeFile(path) as tf:
        rd = tf.branch("v")
        buf, cbuf = BulkBuffer(), CountBuffer()
        views = []
        for bk in rd.descriptor.baskets:
            rd.get_entries_serialized(bk.first_entry, buf, cbuf)
            assert cbuf.total() == len(buf.as_array())
            views.append(buf.as_array().copy())
    with make_source(path, mode=SourceMode.BULK, n_slots=n_slots) as src:
        firsts = [8 * i for i in range(len(views))]
        slots = [[v for f, v in zip(firsts, views) if lo <= f < hi]
                 for lo, hi in src.slot_ranges]
        assert _bits(direct_sum(src, "v")) == _bits(_ref_direct_sum(slots))
        assert src.baskets_read == 2 * len(views)


# --- the checks of the basket load that the bulk loops keep ---

@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE], ids=lambda c: c.name)
def test_file_truncated_after_open_is_a_short_read(tmp_path, codec):
    """A file cut short after it was opened: each path reads the baskets
    before the cut and raises DecompressError at the first one it cuts,
    leaving its buffer unfilled."""
    path = tmp_path / "cut.bkio"
    with TreeWriter(path, [("x", ElementType.F32, scalar())],
                    basket_capacity_entries=8, codec=codec) as w:
        w.extend(x=np.arange(32, dtype="f4"))
    tf = TreeFile(path)
    src = make_source(path, mode=SourceMode.BULK)
    rd = tf.branch("x")
    cut = rd.descriptor.baskets[2]
    os.truncate(path, cut.file_offset + cut.compressed_size // 2)
    try:
        buf = BulkBuffer()
        assert rd.get_bulk_entries(8, buf) == 8
        for read in (lambda: rd.get_bulk_entries(16, buf),
                     lambda: rd.get_entries_serialized(16, buf)):
            with pytest.raises(DecompressError, match="truncated basket at entry 16"):
                read()
            assert buf.state is None and buf.nbytes == 0
        assert rd.get_entry(3) == 3.0
        with pytest.raises(DecompressError):
            rd.get_entry(20)
        views = src.blocks("x")
        assert next(views).tolist() == list(range(8))
        assert next(views).tolist() == list(range(8, 16))
        with pytest.raises(DecompressError):
            next(views)
        for action in (lambda: direct_sum(src, "x"),
                       lambda: Frame(src).sum("x")):
            with pytest.raises(DecompressError):
                action()
    finally:
        src.close()
        tf.close()


def _closing_after_first_view(src):
    """Make ``src.blocks`` close the source once it has handed out one
    view, so the next load meets a closed file."""
    blocks = src.blocks

    def closing(column, slot=None):
        views = blocks(column, slot)
        yield next(views)
        src.close()
        yield from views

    src.blocks = closing


@pytest.mark.parametrize("action", ["blocks", "direct_sum", "direct_histogram",
                                    "frame_sum"])
def test_closing_the_file_mid_loop_raises_file_closed(ramp_file, action):
    """Closing the file between two baskets of a bulk loop makes the next
    load raise FileClosed, in every slot."""
    if action == "blocks":
        for slot in range(2):
            src = make_source(ramp_file, mode=SourceMode.BULK, n_slots=2)
            views = src.blocks("x", slot)
            assert len(next(views)) == 32
            src.close()
            with pytest.raises(FileClosed):
                next(views)
        return
    src = make_source(ramp_file, mode=SourceMode.BULK, n_slots=2)
    _closing_after_first_view(src)
    run = {"direct_sum": lambda: direct_sum(src, "x"),
           "direct_histogram": lambda: direct_histogram(src, "x", 4, 0.0, 100.0),
           "frame_sum": lambda: Frame(src).sum("x")}[action]
    with pytest.raises(FileClosed):
        run()


@pytest.mark.parametrize("n_slots", [1, 2])
def test_invalid_bool_byte_never_reaches_a_direct_reduction(tmp_path, n_slots):
    """direct_sum and direct_histogram refuse a BOOL column before they
    load a basket; the seam they read through, blocks, raises FormatError
    at the basket holding the invalid byte, in whichever slot it falls."""
    path = tmp_path / "bools.bkio"
    write_by_hand(path, [("b", ElementType.BOOL, [0, 1, 0, 1, 2, 1, 0, 1],
                          [4, 4])])
    with make_source(path, mode=SourceMode.BULK, n_slots=n_slots) as src:
        with pytest.raises(TypeMismatch):
            direct_sum(src, "b")
        with pytest.raises(TypeMismatch):
            direct_histogram(src, "b", 2, 0.0, 2.0)
        assert src.baskets_read == 0
        views = src.blocks("b", n_slots - 1)
        if n_slots == 1:
            assert next(views).tolist() == [0, 1, 0, 1]
        with pytest.raises(FormatError, match="invalid BOOL byte"):
            next(views)


def test_misaligned_branches_are_refused_by_the_slot_readers(tmp_path):
    """Branches whose baskets start at different entries read fine one by
    one, but a DataSource, which cuts slots on shared basket starts, and a
    FastEventReader holding both refuse them with FormatError."""
    path = tmp_path / "misaligned.bkio"
    x = np.arange(N, dtype="f4")
    write_by_hand(path, [("x", ElementType.F32, x, SIZES),
                         ("y", ElementType.F32, x * 2, [16, 16])])
    with TreeFile(path) as tf:
        for name, scale in (("x", 1), ("y", 2)):
            rd = tf.branch(name)
            assert [rd.get_entry(i) for i in range(N)] == (x * scale).tolist()
    for mode in SourceMode:
        with pytest.raises(FormatError, match="differing basket boundaries"):
            make_source(path, mode=mode)
    with FastEventReader(path) as events:
        events.attach_value("x", ElementType.F32)
        with pytest.raises(FormatError, match="different basket boundaries"):
            events.attach_value("y", ElementType.F32)


def test_count_buffer_index_out_of_range(var_file):
    """CountBuffer's items are its basket's events; any other index raises
    IndexOutOfRange, an empty buffer's every index."""
    cbuf = CountBuffer()
    with pytest.raises(IndexOutOfRange):
        cbuf[0]
    with TreeFile(var_file) as tf:
        assert tf.branch("v").get_entries_serialized(0, BulkBuffer(), cbuf) == 4
    assert [cbuf[i] for i in range(len(cbuf))] == [2, 0, 3, 0]
    for i in (4, -1, 100):
        with pytest.raises(IndexOutOfRange, match=f"event {i} not in count buffer"):
            cbuf[i]
