"""format-core: element codec, payload codec, footer round trip and rejection."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bulkio import (
    BasketDescriptor,
    BranchDescriptor,
    BranchShape,
    Codec,
    DecompressError,
    ElementType,
    FileFooter,
    FormatError,
    NotABulkFile,
    ShapeKind,
    TreeWriter,
    compress_payload,
    decode_element,
    decompress_payload,
    encode_element,
    read_footer,
    scalar,
    var_array,
)
from bulkio.format import footer_from_bytes, footer_to_bytes

from conftest import ALL_TYPES, int_bounds, rewrite_basket


# --- element encode/decode ---

def test_encode_pinned_examples():
    assert encode_element(1.0, ElementType.F32) == bytes.fromhex("3F800000")
    assert encode_element(-1, ElementType.I32) == bytes.fromhex("FFFFFFFF")
    assert encode_element(0, ElementType.U64) == b"\x00" * 8
    assert encode_element(True, ElementType.BOOL) == b"\x01"
    assert encode_element(False, ElementType.BOOL) == b"\x00"


def test_decode_pinned_examples():
    assert decode_element(bytes.fromhex("3F800000"), ElementType.F32) == 1.0
    assert decode_element(b"\xff" * 4, ElementType.I32) == -1
    assert decode_element(b"\x01", ElementType.BOOL) is True
    with pytest.raises(FormatError):
        decode_element(b"\x00\x01", ElementType.BOOL)  # wrong length
    with pytest.raises(FormatError):
        decode_element(b"\x02", ElementType.BOOL)  # ambiguous boolean
    with pytest.raises(FormatError):
        decode_element(b"\x00" * 3, ElementType.F32)


def test_width_matches_code():
    for t in ALL_TYPES:
        assert len(encode_element(_sample_value(t), t)) == t.width_bytes
        assert ElementType(int(t)) is t  # code round-trips


def _sample_value(t: ElementType):
    if t is ElementType.BOOL:
        return True
    if t in (ElementType.F32, ElementType.F64):
        return -2.5
    return int_bounds(t)[1]


def _element_strategy(t: ElementType):
    if t is ElementType.BOOL:
        return st.booleans()
    if t is ElementType.F32:
        return st.floats(width=32, allow_nan=False)
    if t is ElementType.F64:
        return st.floats(width=64, allow_nan=False)
    lo, hi = int_bounds(t)
    return st.integers(min_value=lo, max_value=hi)


@pytest.mark.parametrize("etype", ALL_TYPES, ids=lambda t: t.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_encode_decode_bijection(etype, data):
    v = data.draw(_element_strategy(etype))
    raw = encode_element(v, etype)
    assert len(raw) == etype.width_bytes
    assert decode_element(raw, etype) == v


def test_nan_roundtrips_bitwise():
    raw = encode_element(float("nan"), ElementType.F64)
    back = decode_element(raw, ElementType.F64)
    assert math.isnan(back)
    assert encode_element(back, ElementType.F64) == raw


def test_encoding_is_big_endian():
    # independent oracle: struct with explicit big-endian format
    assert encode_element(0x1234, ElementType.U16) == struct.pack(">H", 0x1234)
    assert encode_element(1.5, ElementType.F64) == struct.pack(">d", 1.5)


# --- payload codec ---

def test_codec_none_is_identity():
    data = b"abc123" * 10
    assert compress_payload(data, Codec.NONE) is data
    assert decompress_payload(data, Codec.NONE, len(data)) is data


def test_deflate_compresses_zeros():
    data = b"\x00" * 4096
    out = compress_payload(data, Codec.DEFLATE)
    assert len(out) < 4096
    assert decompress_payload(out, Codec.DEFLATE, 4096) == data


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=5000))
def test_deflate_roundtrip(data):
    out = compress_payload(data, Codec.DEFLATE)
    assert decompress_payload(out, Codec.DEFLATE, len(data)) == data


def test_decompress_size_mismatch():
    out = compress_payload(b"xyz", Codec.DEFLATE)
    with pytest.raises(DecompressError):
        decompress_payload(out, Codec.DEFLATE, 5)
    with pytest.raises(DecompressError):
        decompress_payload(b"not a deflate stream", Codec.DEFLATE, 10)
    with pytest.raises(DecompressError):
        decompress_payload(b"ab", Codec.NONE, 3)


# --- footer round trip and validation ---

def _demo_footer() -> FileFooter:
    count = BranchDescriptor(
        "v.count", ElementType.U32, BranchShape(ShapeKind.SCALAR),
        [BasketDescriptor(0, 3, 8, 12, 12, Codec.NONE),
         BasketDescriptor(3, 2, 20, 8, 8, Codec.NONE)])
    var = BranchDescriptor(
        "v", ElementType.F32, BranchShape(ShapeKind.VAR_ARRAY, count_branch=2),
        [BasketDescriptor(0, 3, 28, 16, 16, Codec.NONE),
         BasketDescriptor(3, 2, 44, 8, 8, Codec.NONE)])
    x = BranchDescriptor(
        "x", ElementType.I16, BranchShape(ShapeKind.SCALAR),
        [BasketDescriptor(0, 3, 52, 6, 6, Codec.NONE),
         BasketDescriptor(3, 2, 58, 4, 4, Codec.NONE)])
    return FileFooter("events", 5, [x, var, count])


def test_footer_roundtrip_identical():
    footer = _demo_footer()
    back = footer_from_bytes(footer_to_bytes(footer))
    assert back == footer  # field-by-field dataclass equality


def test_footer_rejects_overlapping_baskets():
    footer = _demo_footer()
    bad = BasketDescriptor(2, 3, 58, 6, 6, Codec.NONE)
    footer.branches[0].baskets[1] = bad
    with pytest.raises(FormatError):
        footer_from_bytes(footer_to_bytes(footer))


def test_footer_rejects_gap():
    footer = _demo_footer()
    footer.branches[0].baskets[1] = BasketDescriptor(4, 1, 58, 2, 2, Codec.NONE)
    with pytest.raises(FormatError):
        footer_from_bytes(footer_to_bytes(footer))


def test_footer_rejects_dangling_count_ref():
    footer = _demo_footer()
    footer.branches[1].shape = BranchShape(ShapeKind.VAR_ARRAY, count_branch=7)
    with pytest.raises(FormatError):
        footer_from_bytes(footer_to_bytes(footer))


def test_footer_rejects_non_u32_count():
    footer = _demo_footer()
    # point "v" at the i16 branch instead of its u32 count branch
    footer.branches[1].shape = BranchShape(ShapeKind.VAR_ARRAY, count_branch=0)
    with pytest.raises(FormatError):
        footer_from_bytes(footer_to_bytes(footer))


def test_footer_rejects_coverage_mismatch():
    footer = _demo_footer()
    footer.n_entries = 6
    with pytest.raises(FormatError):
        footer_from_bytes(footer_to_bytes(footer))


def test_footer_rejects_none_codec_size_mismatch():
    footer = _demo_footer()
    footer.branches[0].baskets[0] = BasketDescriptor(0, 3, 52, 5, 6, Codec.NONE)
    with pytest.raises(FormatError):
        footer_from_bytes(footer_to_bytes(footer))


# --- whole-file footer access ---

def test_read_footer_of_written_file(tmp_path):
    path = tmp_path / "two.bkio"
    with TreeWriter(path, [("a", ElementType.F32, scalar()),
                           ("b", ElementType.I64, scalar())],
                    basket_capacity_entries=8) as w:
        for i in range(20):
            w.fill(a=float(i), b=i * 10)
    footer = read_footer(path)
    assert len(footer.branches) == 2
    assert footer.n_entries == 20
    assert [b.name for b in footer.branches] == ["a", "b"]


def test_read_footer_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    with pytest.raises(NotABulkFile):
        read_footer(path)


def test_read_footer_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(NotABulkFile):
        read_footer(path)


def test_read_footer_offset_past_eof(tmp_path, ramp_file):
    data = bytearray(ramp_file.read_bytes())
    data[-8:] = (len(data) + 100).to_bytes(8, "big")
    path = tmp_path / "oob.bkio"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_footer(path)


def test_basket_past_end_of_file_rejected_at_open(tmp_path):
    from bulkio import TreeFile
    src = tmp_path / "d.bkio"
    with TreeWriter(src, [("x", ElementType.F64, scalar())],
                    basket_capacity_entries=8, codec=Codec.DEFLATE) as w:
        for i in range(32):
            w.fill(x=float(i))
    for basket in (0, 2, 3):
        bad = rewrite_basket(src, tmp_path / f"huge{basket}.bkio", 0, basket,
                             compressed_size=2**62)
        with pytest.raises(DecompressError):  # truncated, not a MemoryError
            TreeFile(bad)
        with pytest.raises(DecompressError):
            read_footer(bad)


@pytest.mark.parametrize("basket,offset", [(0, 0), (0, 7), (1, 9), (3, 60)],
                         ids=["header", "header-end", "overlap", "overlap-last"])
def test_baskets_that_overlap_rejected_at_open(tmp_path, ramp_file, basket, offset):
    """ramp_file's four baskets sit back to back from byte 8: 128, 128, 128
    and 16 bytes."""
    bad = rewrite_basket(ramp_file, tmp_path / "overlap.bkio", 0, basket,
                         file_offset=offset)
    with pytest.raises(FormatError):
        read_footer(bad)


def test_var_basket_of_partial_elements_rejected(tmp_path):
    """5 bytes cannot hold I32 elements; the read used to fail in numpy."""
    src = tmp_path / "v.bkio"
    with TreeWriter(src, [("v", ElementType.I32, var_array())],
                    basket_capacity_entries=2) as w:
        for row in ([1, 2], [3], [4], [5]):
            w.fill(v=row)
    bad = rewrite_basket(src, tmp_path / "odd.bkio", 0, 0,
                         compressed_size=5, uncompressed_size=5)
    with pytest.raises(FormatError):
        read_footer(bad)


def test_back_to_back_and_empty_baskets_accepted(tmp_path):
    path = tmp_path / "empty_rows.bkio"
    with TreeWriter(path, [("v", ElementType.F32, var_array())],
                    basket_capacity_entries=2) as w:
        for row in ([], [], [1.0], [], [], []):
            w.fill(v=row)
    footer = read_footer(path)
    sizes = [bk.compressed_size for bk in footer.branches[0].baskets]
    assert sizes == [0, 4, 0]


def test_read_footer_unsupported_version(tmp_path, ramp_file):
    data = bytearray(ramp_file.read_bytes())
    data[4:6] = (9).to_bytes(2, "big")
    path = tmp_path / "v9.bkio"
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError):
        read_footer(path)


def test_var_basket_sizes_match_count_sums(var_file):
    footer = read_footer(var_file)
    v = footer.branches[footer.branch_index("v")]
    counts = footer.branches[v.shape.count_branch]
    from bulkio import TreeFile
    with TreeFile(var_file) as tf:
        crd = tf.branch(counts.name)
        for bk in v.baskets:
            total = sum(crd.get_entry(e)
                        for e in range(bk.first_entry,
                                       bk.first_entry + bk.n_entries))
            assert bk.uncompressed_size == total * v.element.width_bytes
