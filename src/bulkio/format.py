"""On-disk file format: header, basket index footer, element encoding.

Layout (all multi-byte integers big-endian):

* 8-byte header: magic ``BKIO``, u16 version (=1), u16 flags (=0)
* basket payloads, back to back, in write order
* footer (see ``footer_to_bytes``)
* trailing u64: byte offset of the footer

Element payloads are stored big-endian (IEEE-754 for floats), so reading
them back on little-endian hosts is real deserialization work. The full
byte-level contract lives in FORMAT.md at the repository root.
"""

from __future__ import annotations

import enum
import io
import os
import struct
import sys
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO, Union

from .errors import DecompressError, FormatError, NotABulkFile

MAGIC = b"BKIO"
VERSION = 1
HEADER_LEN = 8
TRAILER_LEN = 8

_U16 = struct.Struct(">H")
_U64 = struct.Struct(">Q")


class ElementType(enum.IntEnum):
    """Supported element types; the enum value is the on-disk type code."""

    I8 = 0x01
    U8 = 0x02
    I16 = 0x03
    U16 = 0x04
    I32 = 0x05
    U32 = 0x06
    I64 = 0x07
    U64 = 0x08
    F32 = 0x09
    F64 = 0x0A
    BOOL = 0x0B

    @property
    def width_bytes(self) -> int:
        return _TYPE_INFO[self][0]

    @property
    def struct_char(self) -> str:
        """struct format character (combine with '>' for disk order)."""
        return _TYPE_INFO[self][1]

    @property
    def np_native(self) -> str:
        """numpy dtype string for native in-memory layout."""
        return _TYPE_INFO[self][2]

    @property
    def np_disk(self) -> str:
        """numpy dtype string matching the on-disk (big-endian) layout."""
        return _TYPE_INFO[self][3]

    @property
    def is_numeric(self) -> bool:
        return self is not ElementType.BOOL


# code -> (width, struct char, native numpy dtype, disk numpy dtype)
_TYPE_INFO = {
    ElementType.I8: (1, "b", "i1", "i1"),
    ElementType.U8: (1, "B", "u1", "u1"),
    ElementType.I16: (2, "h", "i2", ">i2"),
    ElementType.U16: (2, "H", "u2", ">u2"),
    ElementType.I32: (4, "i", "i4", ">i4"),
    ElementType.U32: (4, "I", "u4", ">u4"),
    ElementType.I64: (8, "q", "i8", ">i8"),
    ElementType.U64: (8, "Q", "u8", ">u8"),
    ElementType.F32: (4, "f", "f4", ">f4"),
    ElementType.F64: (8, "d", "f8", ">f8"),
    ElementType.BOOL: (1, "B", "bool", "u1"),
}

_ELEMENT_STRUCTS = {t: struct.Struct(">" + t.struct_char) for t in ElementType}


class Codec(enum.IntEnum):
    """Basket payload compression codec."""

    NONE = 0x00
    DEFLATE = 0x01


class ShapeKind(enum.IntEnum):
    SCALAR = 0
    FIXED_ARRAY = 1
    VAR_ARRAY = 2


@dataclass(frozen=True)
class BranchShape:
    """Shape of one branch's per-entry value.

    ``fixed_len`` is meaningful for FIXED_ARRAY only. ``count_branch`` is the
    index of the companion u32 count branch (VAR_ARRAY only); -1 means the
    writer resolves it (auto-created count branch).
    """

    kind: ShapeKind = ShapeKind.SCALAR
    fixed_len: int = 0
    count_branch: int = -1
    count_name: str | None = None  # writer-side hint, not stored on disk

    def __post_init__(self) -> None:
        if self.kind is ShapeKind.FIXED_ARRAY and self.fixed_len < 1:
            raise FormatError("fixed array length must be >= 1")


def scalar() -> BranchShape:
    return BranchShape(ShapeKind.SCALAR)


def fixed_array(length: int) -> BranchShape:
    return BranchShape(ShapeKind.FIXED_ARRAY, fixed_len=length)


def var_array(count_name: str | None = None) -> BranchShape:
    """Variable-length array; the writer manages a u32 count branch.

    ``count_name`` overrides the auto-generated "<branch>.count" name and may
    be shared between var branches whose per-entry lengths always agree.
    """
    return BranchShape(ShapeKind.VAR_ARRAY, count_name=count_name)


@dataclass(frozen=True)
class BasketDescriptor:
    first_entry: int
    n_entries: int
    file_offset: int
    compressed_size: int
    uncompressed_size: int
    codec: Codec


@dataclass
class BranchDescriptor:
    name: str
    element: ElementType
    shape: BranchShape
    baskets: list[BasketDescriptor] = field(default_factory=list)

    @property
    def n_entries(self) -> int:
        if not self.baskets:
            return 0
        last = self.baskets[-1]
        return last.first_entry + last.n_entries

    @property
    def is_array(self) -> bool:
        return self.shape.kind is not ShapeKind.SCALAR


@dataclass
class FileFooter:
    tree_name: str
    n_entries: int
    branches: list[BranchDescriptor]

    def branch_index(self, name: str) -> int:
        for i, b in enumerate(self.branches):
            if b.name == name:
                return i
        raise KeyError(name)


# --- element encode/decode ---

def encode_element(value, etype: ElementType) -> bytes:
    """Serialize one scalar to its big-endian on-disk form (width_bytes long)."""
    if etype is ElementType.BOOL:
        return b"\x01" if value else b"\x00"
    return _ELEMENT_STRUCTS[etype].pack(value)


def decode_element(data: bytes, etype: ElementType):
    """Inverse of :func:`encode_element`.

    Raises FormatError on a length mismatch, and for BOOL bytes other than
    0x00/0x01 (the format rejects ambiguous booleans).
    """
    if len(data) != etype.width_bytes:
        raise FormatError(
            f"expected {etype.width_bytes} bytes for {etype.name}, got {len(data)}"
        )
    if etype is ElementType.BOOL:
        b = data[0]
        if b > 1:
            raise FormatError(f"invalid BOOL byte 0x{b:02X}")
        return bool(b)
    return _ELEMENT_STRUCTS[etype].unpack(data)[0]


# --- payload compression ---

def compress_payload(data: bytes, codec: Codec) -> bytes:
    """Compress a basket payload. Codec NONE is the identity."""
    if codec is Codec.NONE:
        return data
    if codec is Codec.DEFLATE:
        c = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
        return c.compress(data) + c.flush()
    raise FormatError(f"unknown codec {codec!r}")


def decompress_payload(data: bytes, codec: Codec, expected_size: int) -> bytes:
    """Decompress a basket payload and verify its size.

    Inflating stops one byte past ``expected_size``, so a stream that would
    inflate to more raises DecompressError without inflating it all.
    """
    if codec is Codec.NONE:
        out = data
    elif codec is Codec.DEFLATE:
        try:
            d = zlib.decompressobj(-zlib.MAX_WBITS)
            out = d.decompress(data, min(expected_size, sys.maxsize - 1) + 1)
            if len(out) <= expected_size:  # all input consumed
                out += d.flush()
        except zlib.error as exc:
            raise DecompressError(f"deflate stream error: {exc}") from exc
    else:
        raise FormatError(f"unknown codec {codec!r}")
    if len(out) != expected_size:
        raise DecompressError(
            f"payload decompressed to {len(out)} bytes, expected {expected_size}"
        )
    return out


# --- footer serialization ---

class _ByteReader:
    """Bounds-checked cursor over footer bytes; truncation -> FormatError."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise FormatError("truncated footer")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self._take(2))[0]

    def u64(self) -> int:
        return _U64.unpack(self._take(8))[0]

    def string(self) -> str:
        n = self.u16()
        try:
            return self._take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError("footer string is not valid UTF-8") from exc

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


def _put_string(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError("string too long for u16 length prefix")
    out += _U16.pack(len(raw))
    out += raw


def footer_to_bytes(footer: FileFooter) -> bytes:
    """Encode a footer; field order follows the descriptor definitions."""
    out = bytearray()
    _put_string(out, footer.tree_name)
    out += _U64.pack(footer.n_entries)
    out += _U64.pack(len(footer.branches))
    for br in footer.branches:
        _put_string(out, br.name)
        out += _U64.pack(int(br.element))
        out += _U64.pack(int(br.shape.kind))
        if br.shape.kind is ShapeKind.FIXED_ARRAY:
            out += _U64.pack(br.shape.fixed_len)
        elif br.shape.kind is ShapeKind.VAR_ARRAY:
            out += _U64.pack(br.shape.count_branch)
        out += _U64.pack(len(br.baskets))
        for bk in br.baskets:
            out += _U64.pack(bk.first_entry)
            out += _U64.pack(bk.n_entries)
            out += _U64.pack(bk.file_offset)
            out += _U64.pack(bk.compressed_size)
            out += _U64.pack(bk.uncompressed_size)
            out += _U64.pack(int(bk.codec))
    return bytes(out)


def footer_from_bytes(data: bytes) -> FileFooter:
    """Decode and validate a footer blob (inverse of :func:`footer_to_bytes`)."""
    rd = _ByteReader(data)
    tree_name = rd.string()
    n_entries = rd.u64()
    branches = []
    for _ in range(rd.u64()):
        name = rd.string()
        try:
            element = ElementType(rd.u64())
        except ValueError as exc:
            raise FormatError(f"unknown element type code in branch {name!r}") from exc
        kind_code = rd.u64()
        try:
            kind = ShapeKind(kind_code)
        except ValueError as exc:
            raise FormatError(f"unknown shape kind {kind_code}") from exc
        if kind is ShapeKind.FIXED_ARRAY:
            shape = BranchShape(kind, fixed_len=rd.u64())
        elif kind is ShapeKind.VAR_ARRAY:
            shape = BranchShape(kind, count_branch=rd.u64())
        else:
            shape = BranchShape(kind)
        baskets = []
        for _ in range(rd.u64()):
            first = rd.u64()
            n = rd.u64()
            offset = rd.u64()
            csize = rd.u64()
            usize = rd.u64()
            codec_code = rd.u64()
            try:
                codec = Codec(codec_code)
            except ValueError as exc:
                raise FormatError(f"unknown codec code {codec_code}") from exc
            baskets.append(BasketDescriptor(first, n, offset, csize, usize, codec))
        branches.append(BranchDescriptor(name, element, shape, baskets))
    if not rd.exhausted:
        raise FormatError("trailing bytes after footer")
    footer = FileFooter(tree_name, n_entries, branches)
    validate_footer(footer)
    return footer


def validate_footer(footer: FileFooter) -> None:
    """Check the structural invariants every readable footer must satisfy."""
    for br in footer.branches:
        expect_first = 0
        for bk in br.baskets:
            if bk.n_entries < 1:
                raise FormatError(f"branch {br.name!r}: empty basket")
            if bk.first_entry != expect_first:
                raise FormatError(
                    f"branch {br.name!r}: baskets do not partition entries "
                    f"(basket starts at {bk.first_entry}, expected {expect_first})"
                )
            if bk.codec is Codec.NONE and bk.compressed_size != bk.uncompressed_size:
                raise FormatError(
                    f"branch {br.name!r}: codec NONE but sizes differ"
                )
            expect_first = bk.first_entry + bk.n_entries
        if expect_first != footer.n_entries:
            raise FormatError(
                f"branch {br.name!r} covers {expect_first} entries, "
                f"file has {footer.n_entries}"
            )
        if br.shape.kind is ShapeKind.FIXED_ARRAY:
            k, w = br.shape.fixed_len, br.element.width_bytes
            for bk in br.baskets:
                if bk.uncompressed_size != bk.n_entries * k * w:
                    raise FormatError(
                        f"branch {br.name!r}: basket size inconsistent with shape"
                    )
        elif br.shape.kind is ShapeKind.SCALAR:
            w = br.element.width_bytes
            for bk in br.baskets:
                if bk.uncompressed_size != bk.n_entries * w:
                    raise FormatError(
                        f"branch {br.name!r}: basket size inconsistent with shape"
                    )
        elif br.shape.kind is ShapeKind.VAR_ARRAY:
            ci = br.shape.count_branch
            if not 0 <= ci < len(footer.branches):
                raise FormatError(
                    f"branch {br.name!r}: dangling count branch index {ci}"
                )
            cb = footer.branches[ci]
            if cb.element is not ElementType.U32 or cb.shape.kind is not ShapeKind.SCALAR:
                raise FormatError(
                    f"branch {br.name!r}: count branch {cb.name!r} is not a u32 scalar"
                )
            if [(b.first_entry, b.n_entries) for b in cb.baskets] != [
                (b.first_entry, b.n_entries) for b in br.baskets
            ]:
                raise FormatError(
                    f"branch {br.name!r}: count branch basket boundaries differ"
                )
            w = br.element.width_bytes
            if any(bk.uncompressed_size % w for bk in br.baskets):
                raise FormatError(
                    f"branch {br.name!r}: basket size is not whole elements"
                )


# --- whole-file access ---

def write_header(fobj: BinaryIO) -> None:
    fobj.write(MAGIC + _U16.pack(VERSION) + _U16.pack(0))


def read_footer(file: Union[str, os.PathLike, BinaryIO]) -> FileFooter:
    """Read and validate the footer of a bulk file.

    Accepts a path or a seekable binary file object. Raises NotABulkFile when
    the magic is missing and FormatError for any structural corruption.
    """
    if isinstance(file, (str, os.PathLike)):
        with open(file, "rb") as fobj:
            return read_footer(fobj)
    return locate_footer(file)[0]


def locate_footer(fobj: BinaryIO) -> tuple[FileFooter, int]:
    """(footer, footer offset) of an open bulk file, read and checked as
    :func:`read_footer` does. Basket payloads end where the footer begins."""
    fobj.seek(0, io.SEEK_END)
    size = fobj.tell()
    if size < HEADER_LEN + TRAILER_LEN:
        raise NotABulkFile("file too small to be a bulk file")
    fobj.seek(0)
    head = fobj.read(HEADER_LEN)
    if head[:4] != MAGIC:
        raise NotABulkFile("bad magic")
    version = _U16.unpack(head[4:6])[0]
    if version != VERSION:
        raise FormatError(f"unsupported format version {version}")
    fobj.seek(size - TRAILER_LEN)
    footer_offset = _U64.unpack(fobj.read(TRAILER_LEN))[0]
    if footer_offset < HEADER_LEN or footer_offset > size - TRAILER_LEN:
        raise FormatError(f"footer offset {footer_offset} out of bounds")
    fobj.seek(footer_offset)
    blob = fobj.read(size - TRAILER_LEN - footer_offset)
    footer = footer_from_bytes(blob)
    check_extents(footer, size)
    return footer, footer_offset


def check_extents(footer: FileFooter, file_size: int) -> None:
    """Check where the baskets lie in a file of ``file_size`` bytes.

    Baskets that start inside the header or overlap one another raise
    FormatError. A basket that runs past the end of the file raises
    DecompressError, as a short read of it would: the file is truncated.
    (One that runs into the footer but not past the end is caught when it
    is read, since a payload cut short with its footer spliced back looks
    just like that.)
    """
    spans = sorted((bk.file_offset, bk.file_offset + bk.compressed_size,
                    br.name, bk.first_entry)
                   for br in footer.branches for bk in br.baskets)
    end = HEADER_LEN  # where the previous basket ends
    for lo, hi, name, first in spans:
        if lo < end:
            raise FormatError(
                f"basket at entry {first} of branch {name!r} starts at byte "
                f"{lo}, inside the header or another basket (which ends at {end})"
            )
        if hi > file_size:
            raise DecompressError(
                f"truncated basket at entry {first} of branch {name!r}: it ends "
                f"at byte {hi}, the file at {file_size}"
            )
        end = hi
