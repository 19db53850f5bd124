"""Branch-level read paths: per-entry, bulk-deserialized, bulk-serialized.

A :class:`BranchReader` resolves entries to baskets and keeps a one-basket
decompression cache for per-entry access. The two bulk calls hand a whole
basket to a caller-owned :class:`BulkBuffer`, either deserialized to native
layout or byte-for-byte in on-disk order; var-array baskets additionally
fill a :class:`CountBuffer` with per-event element counts.

Readers use offset-addressed reads (``os.pread``), so any number of
BranchReaders may share one open :class:`TreeFile`, including from
different threads. A single BranchReader is not thread-safe. Closing the
TreeFile closes its readers: any later read raises :class:`FileClosed`.
"""

from __future__ import annotations

import enum
import os
import struct
import weakref
from bisect import bisect_right
from os import PathLike
from typing import Optional, Union

import numpy as np

from .errors import (
    CountBufferRequired,
    DecompressError,
    EntryOutOfRange,
    FileClosed,
    FormatError,
    IndexOutOfRange,
    NotBasketStart,
    UnknownBranch,
)
from .format import (
    BasketDescriptor,
    BranchDescriptor,
    Codec,
    ElementType,
    FileFooter,
    ShapeKind,
    decode_element,
    decompress_payload,
    read_footer,
)

_NATIVE_STRUCTS = {t: struct.Struct("=" + t.struct_char) for t in ElementType}
_DISK_STRUCTS = {t: struct.Struct(">" + t.struct_char) for t in ElementType}


class BufferState(enum.Enum):
    DESERIALIZED = "deserialized"
    SERIALIZED = "serialized"


class BulkBuffer:
    """Caller-owned byte buffer a bulk call fills with one basket.

    The storage grows as needed and is never shrunk, so a buffer reused
    across baskets allocates only on the largest basket seen. Array views
    handed out by :meth:`as_array` alias the storage and are invalidated
    (their contents overwritten) by the next fill.
    """

    __slots__ = ("_mem", "_nbytes", "state", "element_type",
                 "event_count", "element_count")

    def __init__(self, capacity_bytes: int = 0):
        self._mem = np.empty(capacity_bytes, dtype="u1")
        self._nbytes = 0
        self.state: Optional[BufferState] = None
        self.element_type: Optional[ElementType] = None
        self.event_count = 0
        self.element_count = 0

    @property
    def nbytes(self) -> int:
        """Number of valid payload bytes currently held."""
        return self._nbytes

    def _prepare(self, nbytes: int, etype: ElementType, state: BufferState,
                 event_count: int, element_count: int) -> np.ndarray:
        if len(self._mem) < nbytes:
            self._mem = np.empty(nbytes, dtype="u1")
        self._nbytes = nbytes
        self.state = state
        self.element_type = etype
        self.event_count = event_count
        self.element_count = element_count
        return self._mem[:nbytes]

    def as_array(self) -> np.ndarray:
        """View the valid region as typed elements (no copy).

        Deserialized buffers view as the native dtype; serialized buffers as
        the on-disk big-endian dtype, so element access decodes lazily.
        """
        if self.state is None:
            raise IndexOutOfRange("buffer has not been filled")
        et = self.element_type
        if self.state is BufferState.DESERIALIZED:
            return self._mem[:self._nbytes].view(et.np_native)
        return self._mem[:self._nbytes].view(et.np_disk)

    def value_at(self, etype: ElementType, idx: int):
        """Decode the idx-th element, interpreting the bytes as ``etype``.

        Deserialized buffers load native-layout elements directly; serialized
        buffers decode one big-endian element per call, with no caching.
        """
        w = etype.width_bytes
        off = idx * w
        if idx < 0 or off + w > self._nbytes:
            raise IndexOutOfRange(
                f"element {idx} not in buffer of {self._nbytes} bytes"
            )
        if self.state is BufferState.SERIALIZED:
            return decode_element(self._mem[off:off + w].tobytes(), etype)
        if etype is ElementType.BOOL:
            b = int(self._mem[off])
            if b > 1:
                raise FormatError(f"invalid BOOL byte 0x{b:02X}")
            return bool(b)
        return _NATIVE_STRUCTS[etype].unpack_from(self._mem.data, off)[0]

    def to_bytes(self) -> bytes:
        """Copy of the valid payload bytes."""
        return self._mem[:self._nbytes].tobytes()


class CountBuffer:
    """Per-event element counts for one var-array basket."""

    __slots__ = ("_mem", "event_count")

    def __init__(self, capacity_events: int = 0):
        self._mem = np.empty(capacity_events, dtype="u4")
        self.event_count = 0

    def _set(self, counts: np.ndarray) -> None:
        n = len(counts)
        if len(self._mem) < n:
            self._mem = np.empty(n, dtype="u4")
        self._mem[:n] = counts
        self.event_count = n

    @property
    def counts(self) -> np.ndarray:
        return self._mem[:self.event_count]

    def offsets(self) -> np.ndarray:
        """Element offsets per event (prefix sums), length event_count + 1."""
        out = np.zeros(self.event_count + 1, dtype="i8")
        np.cumsum(self._mem[:self.event_count], out=out[1:])
        return out

    def total(self) -> int:
        return int(self._mem[:self.event_count].sum()) if self.event_count else 0

    def __len__(self) -> int:
        return self.event_count

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.event_count:
            raise IndexOutOfRange(f"event {i} not in count buffer")
        return int(self._mem[i])


class _OpenFile:
    """A TreeFile's descriptor, shared by its readers; -1 once closed."""

    __slots__ = ("fobj", "fd", "cached")

    def __init__(self, fobj):
        self.fobj = fobj  # keeps the file open as long as any reader lives
        self.fd = fobj.fileno()
        # readers holding a per-entry basket, which must not outlive close
        self.cached: "weakref.WeakSet[BranchReader]" = weakref.WeakSet()

    def close(self) -> None:
        # the closed descriptor's number may soon belong to another file
        self.fd = -1
        for rd in list(self.cached):
            rd._drop_cache()
        self.fobj.close()


class BranchReader:
    """Reads one branch of an open tree file. Not thread-safe; cheap to make."""

    __slots__ = ("_file", "_desc", "_etype", "_width", "_baskets",
                 "_firsts", "_n_entries", "_ck_first", "_ck_end", "_ck_payload",
                 "_ck_index", "_baskets_read", "_unpack_from", "__weakref__")

    def __init__(self, file: _OpenFile, descriptor: BranchDescriptor):
        self._file = file
        self._desc = descriptor
        self._etype = descriptor.element
        self._width = descriptor.element.width_bytes
        self._baskets = descriptor.baskets
        self._firsts = [b.first_entry for b in descriptor.baskets]
        self._n_entries = descriptor.n_entries
        self._ck_first = 0
        self._ck_end = 0
        self._ck_payload = b""
        self._ck_index = -1
        self._baskets_read = 0
        self._unpack_from = _DISK_STRUCTS[self._etype].unpack_from

    # --- metadata ---

    @property
    def descriptor(self) -> BranchDescriptor:
        return self._desc

    @property
    def name(self) -> str:
        return self._desc.name

    @property
    def element_type(self) -> ElementType:
        return self._etype

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def baskets_read(self) -> int:
        """Number of basket payloads fetched (and decompressed) so far."""
        return self._baskets_read

    def basket_bounds(self, entry: int) -> tuple[int, int]:
        """(first_entry, n_entries) of the basket containing ``entry``."""
        idx = self._basket_index(entry)
        bk = self._baskets[idx]
        return bk.first_entry, bk.n_entries

    # --- basket location / payload fetch ---

    def _basket_index(self, entry: int) -> int:
        if entry < 0 or entry >= self._n_entries:
            raise EntryOutOfRange(
                f"entry {entry} not in [0, {self._n_entries}) of branch "
                f"{self._desc.name!r}"
            )
        return bisect_right(self._firsts, entry) - 1

    def _basket_at_start(self, entry: int) -> int:
        idx = self._basket_index(entry)
        if self._firsts[idx] != entry:
            raise NotBasketStart(
                f"entry {entry} is not a basket start of branch "
                f"{self._desc.name!r} (basket begins at {self._firsts[idx]})"
            )
        return idx

    def _drop_cache(self) -> None:
        self._ck_first = self._ck_end = 0  # every entry misses the cache
        self._ck_payload = b""
        self._ck_index = -1

    def _open_fd(self) -> int:
        fd = self._file.fd
        if fd < 0:
            raise FileClosed(f"branch {self._desc.name!r}: its file is closed")
        return fd

    def _fetch(self, bk: BasketDescriptor) -> bytes:
        raw = os.pread(self._open_fd(), bk.compressed_size, bk.file_offset)
        if len(raw) != bk.compressed_size:
            raise DecompressError(
                f"truncated basket at entry {bk.first_entry} of branch "
                f"{self._desc.name!r}: read {len(raw)} of {bk.compressed_size} bytes"
            )
        self._baskets_read += 1
        return decompress_payload(raw, bk.codec, bk.uncompressed_size)

    def _load_basket(self, idx: int) -> None:
        bk = self._baskets[idx]
        payload = self._fetch(bk)
        self._after_load(payload)
        self._ck_payload = payload
        self._ck_first = bk.first_entry
        self._ck_end = bk.first_entry + bk.n_entries
        self._ck_index = idx
        self._file.cached.add(self)

    def _after_load(self, payload: bytes) -> None:
        """Per-shape hook (bool validation, var-array offsets)."""

    def _seek_entry(self, entry: int) -> None:
        self._load_basket(self._basket_index(entry))

    # --- bulk reads ---

    def _fill_buffer(self, bk: BasketDescriptor, buf: BulkBuffer,
                     state: BufferState) -> None:
        fd = self._open_fd()
        nbytes = bk.uncompressed_size
        mem = buf._prepare(nbytes, self._etype, state, bk.n_entries,
                           nbytes // self._width)
        if bk.codec is Codec.NONE:
            got = os.preadv(fd, [mem], bk.file_offset) if nbytes else 0
            if got != nbytes:
                raise DecompressError(
                    f"truncated basket at entry {bk.first_entry} of branch "
                    f"{self._desc.name!r}: read {got} of {nbytes} bytes"
                )
            self._baskets_read += 1
            if state is BufferState.DESERIALIZED and self._width > 1:
                mem.view(self._etype.np_disk).byteswap(inplace=True)
        else:
            payload = self._fetch(bk)
            if state is BufferState.DESERIALIZED and self._width > 1:
                mem.view(self._etype.np_native)[:] = np.frombuffer(
                    payload, dtype=self._etype.np_disk)
            else:
                # 1-byte types copy verbatim so BOOL validation sees raw bytes
                mem[:] = np.frombuffer(payload, dtype="u1")
        if state is BufferState.DESERIALIZED and self._etype is ElementType.BOOL:
            if nbytes and int(mem.max()) > 1:
                raise FormatError(
                    f"invalid BOOL byte in basket at entry {bk.first_entry}"
                )

    def get_bulk_entries(self, entry: int, user_buf: BulkBuffer) -> int:
        """Copy the basket starting at ``entry`` into ``user_buf``, deserialized.

        ``entry`` must be a basket start; returns the basket's event count.
        """
        idx = self._basket_at_start(entry)
        bk = self._baskets[idx]
        self._fill_buffer(bk, user_buf, BufferState.DESERIALIZED)
        return bk.n_entries

    def get_entries_serialized(self, entry: int, user_buf: BulkBuffer,
                               count_buf: Optional[CountBuffer] = None) -> int:
        """Copy the basket starting at ``entry`` byte-for-byte (on-disk order).

        Var-array branches require ``count_buf``, which receives the
        per-event element counts; other shapes fill it if provided.
        Returns the basket's event count.
        """
        idx = self._basket_at_start(entry)
        bk = self._baskets[idx]
        if self._desc.shape.kind is ShapeKind.VAR_ARRAY and count_buf is None:
            raise CountBufferRequired(
                f"branch {self._desc.name!r} is a var array; pass a CountBuffer"
            )
        self._fill_buffer(bk, user_buf, BufferState.SERIALIZED)
        if count_buf is not None:
            count_buf._set(self._basket_counts(idx))
        return bk.n_entries

    def _basket_counts(self, idx: int) -> np.ndarray:
        """Native per-event element counts for basket ``idx``."""
        bk = self._baskets[idx]
        if self._desc.shape.kind is ShapeKind.SCALAR:
            return np.ones(bk.n_entries, dtype="u4")
        if self._desc.shape.kind is ShapeKind.FIXED_ARRAY:
            return np.full(bk.n_entries, self._desc.shape.fixed_len, dtype="u4")
        raise AssertionError  # var subclass overrides

    # --- per-entry read; shape subclasses inline the decode ---

    def get_entry(self, entry: int):
        raise NotImplementedError


class _ScalarReader(BranchReader):
    __slots__ = ()

    def get_entry(self, entry: int):
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            first = self._ck_first
        return self._unpack_from(self._ck_payload, (entry - first) * self._width)[0]


class _BoolScalarReader(_ScalarReader):
    __slots__ = ()

    def _after_load(self, payload: bytes) -> None:
        if payload and max(payload) > 1:
            raise FormatError(
                f"invalid BOOL byte in branch {self._desc.name!r}"
            )

    def get_entry(self, entry: int):
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            first = self._ck_first
        return bool(self._ck_payload[entry - first])


class _FixedReader(BranchReader):
    __slots__ = ("_k",)

    def __init__(self, file: _OpenFile, descriptor: BranchDescriptor):
        super().__init__(file, descriptor)
        self._k = descriptor.shape.fixed_len

    def _after_load(self, payload: bytes) -> None:
        if self._etype is ElementType.BOOL and payload and max(payload) > 1:
            raise FormatError(f"invalid BOOL byte in branch {self._desc.name!r}")

    def get_entry(self, entry: int) -> np.ndarray:
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            first = self._ck_first
        k = self._k
        arr = np.frombuffer(self._ck_payload, dtype=self._etype.np_disk,
                            count=k, offset=(entry - first) * k * self._width)
        return arr.astype(self._etype.np_native)


class _VarReader(BranchReader):
    __slots__ = ("_count_reader", "_ck_offsets")

    def __init__(self, file: _OpenFile, descriptor: BranchDescriptor,
                 count_descriptor: BranchDescriptor):
        super().__init__(file, descriptor)
        self._count_reader = _ScalarReader(file, count_descriptor)
        self._ck_offsets = None

    @property
    def count_reader(self) -> BranchReader:
        """Reader over the companion u32 count branch."""
        return self._count_reader

    def _basket_counts(self, idx: int) -> np.ndarray:
        payload = self._count_reader._fetch(self._count_reader._baskets[idx])
        return np.frombuffer(payload, dtype=">u4").astype("u4")

    def _after_load(self, payload: bytes) -> None:
        if self._etype is ElementType.BOOL and payload and max(payload) > 1:
            raise FormatError(f"invalid BOOL byte in branch {self._desc.name!r}")

    def _load_basket(self, idx: int) -> None:
        super()._load_basket(idx)
        counts = self._basket_counts(idx)
        offsets = np.zeros(len(counts) + 1, dtype="i8")
        np.cumsum(counts, out=offsets[1:])
        if offsets[-1] * self._width != len(self._ck_payload):
            raise FormatError(
                f"branch {self._desc.name!r}: basket at entry {self._ck_first} "
                f"has {len(self._ck_payload)} payload bytes but counts sum to "
                f"{int(offsets[-1])} elements"
            )
        self._ck_offsets = offsets

    def get_entry(self, entry: int) -> np.ndarray:
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            first = self._ck_first
        offs = self._ck_offsets
        local = entry - first
        start = offs[local]
        arr = np.frombuffer(self._ck_payload, dtype=self._etype.np_disk,
                            count=int(offs[local + 1] - start),
                            offset=int(start) * self._width)
        return arr.astype(self._etype.np_native)


def _make_reader(file: _OpenFile, footer: FileFooter, index: int) -> BranchReader:
    desc = footer.branches[index]
    kind = desc.shape.kind
    if kind is ShapeKind.SCALAR:
        if desc.element is ElementType.BOOL:
            return _BoolScalarReader(file, desc)
        return _ScalarReader(file, desc)
    if kind is ShapeKind.FIXED_ARRAY:
        return _FixedReader(file, desc)
    return _VarReader(file, desc, footer.branches[desc.shape.count_branch])


class TreeFile:
    """An open bulk file: footer metadata plus a factory for branch readers."""

    def __init__(self, path: Union[str, PathLike]):
        self._fobj = open(path, "rb")
        try:
            self.footer = read_footer(self._fobj)
        except Exception:
            self._fobj.close()
            raise
        self.path = os.fspath(path)
        self._file = _OpenFile(self._fobj)

    @property
    def n_entries(self) -> int:
        return self.footer.n_entries

    @property
    def tree_name(self) -> str:
        return self.footer.tree_name

    @property
    def branch_names(self) -> list[str]:
        return [b.name for b in self.footer.branches]

    def branch(self, name: str) -> BranchReader:
        """A fresh reader for the named branch (readers are independent)."""
        try:
            index = self.footer.branch_index(name)
        except KeyError:
            raise UnknownBranch(
                f"no branch {name!r} in tree {self.footer.tree_name!r}"
            ) from None
        return _make_reader(self._file, self.footer, index)

    def close(self) -> None:
        """Close the file and every reader made from it."""
        self._file.close()

    def __enter__(self) -> "TreeFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
