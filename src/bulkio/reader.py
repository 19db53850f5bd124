"""Branch-level read paths: per-entry, bulk-deserialized, bulk-serialized.

A :class:`BranchReader` resolves entries to baskets and keeps one loaded
basket, its window: the basket's serialized bytes plus, for array
branches, its per-event element counts. ``get_entry`` reads through the
window, and so do the fast iterator and the bulk frame's columns, each in
the window of a reader of its own. ``DataSource.blocks`` walks a slot's
baskets by index through its own reader's buffer. The two bulk calls
instead hand a whole basket to a caller-owned :class:`BulkBuffer`, either
deserialized to native layout or byte-for-byte in on-disk order; var-array
baskets additionally fill a :class:`CountBuffer` with per-event element
counts.

Every read in the library goes through one basket load
(``BranchReader._load``), whose callers are the window load, ``blocks``
and the two bulk calls. It checks a BOOL basket's bytes once, for every
caller except ``get_entries_serialized``, which hands raw bytes out. It
also fills the counts, and raises :class:`FormatError` when a var basket's
counts do not add up to its payload.

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
    locate_footer,
)


_NATIVE_STRUCTS = {t: struct.Struct("=" + t.struct_char) for t in ElementType}
_DISK_STRUCTS = {t: struct.Struct(">" + t.struct_char) for t in ElementType}
# BOOL decodes through "?", any nonzero byte as True: the basket load checks
# a BOOL basket's bytes before anything decodes them
_NATIVE_STRUCTS[ElementType.BOOL] = struct.Struct("=?")
_DISK_STRUCTS[ElementType.BOOL] = struct.Struct(">?")
# (native, disk) unsigned ints per element width: swapping through them keeps
# every float bit pattern, NaN payloads included
_UINTS = {w: (np.dtype(f"u{w}"), np.dtype(f">u{w}")) for w in (1, 2, 4, 8)}
_VIEW_DTYPES = {t: (np.dtype(t.np_native), np.dtype(t.np_disk)) for t in ElementType}
_CODEC_NONE = Codec.NONE  # a global is cheaper than an enum lookup


class BufferState(enum.Enum):
    DESERIALIZED = "deserialized"
    SERIALIZED = "serialized"


class BulkBuffer:
    """Caller-owned byte buffer a bulk call fills with one basket.

    The storage grows as needed and is never shrunk, so a buffer reused
    across baskets allocates only on the largest basket seen. Array views
    handed out by :meth:`as_array` alias the storage and are invalidated
    (their contents overwritten) by the next fill. A fill that fails
    leaves the buffer unfilled.
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

    def _prepare(self, nbytes: int, etype: Optional[ElementType],
                 state: Optional[BufferState], event_count: int,
                 element_count: int) -> np.ndarray:
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
        state = self.state
        if state is None:
            raise IndexOutOfRange("buffer has not been filled")
        dtypes = _VIEW_DTYPES[self.element_type]
        return self._mem[:self._nbytes].view(
            dtypes[state is BufferState.SERIALIZED])

    def value_at(self, etype: ElementType, idx: int):
        """Decode the idx-th element, interpreting the bytes as ``etype``.

        Deserialized buffers load native-layout elements directly (their
        BOOL bytes were checked when filled); serialized buffers decode one
        big-endian element per call, with no caching.
        """
        w = etype.width_bytes
        off = idx * w
        if idx < 0 or off + w > self._nbytes:
            raise IndexOutOfRange(
                f"element {idx} not in buffer of {self._nbytes} bytes"
            )
        if self.state is BufferState.SERIALIZED:
            return decode_element(self._mem[off:off + w].tobytes(), etype)
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

    __slots__ = ("fobj", "fd", "payload_end", "cached", "_starts")

    def __init__(self, fobj, payload_end: int):
        self.fobj = fobj  # keeps the file open as long as any reader lives
        self.fd = fobj.fileno()
        self.payload_end = payload_end  # where the footer begins
        # every reader, whose window must not outlive close
        self.cached: "weakref.WeakSet[BranchReader]" = weakref.WeakSet()
        self._starts: dict[str, list[int]] = {}

    def starts(self, desc: BranchDescriptor) -> list[int]:
        """The first entry of each basket of a branch, built once per file
        and shared by its readers, which never modify it."""
        firsts = self._starts.get(desc.name)
        if firsts is None:
            firsts = self._starts[desc.name] = [b.first_entry for b in desc.baskets]
        return firsts

    def close(self) -> None:
        # the closed descriptor's number may soon belong to another file
        self.fd = -1
        for rd in list(self.cached):
            rd._drop_cache()
        self.fobj.close()


class BranchReader:
    """Reads one branch of an open tree file. Not thread-safe; cheap to make.

    ``get_entry`` returns a scalar here; array branches get a subclass whose
    ``get_entry`` returns a fresh native array.
    """

    __slots__ = ("_file", "_desc", "_etype", "_width", "_k", "_baskets",
                 "_firsts", "_n_entries", "_ck_first", "_ck_end", "_ck_payload",
                 "_ck_buf", "_ck_counts", "_baskets_read", "_unpack_from",
                 "_uint", "_dtypes", "_bool", "_var", "__weakref__")

    def __init__(self, file: _OpenFile, descriptor: BranchDescriptor):
        self._file = file
        self._desc = descriptor
        self._etype = etype = descriptor.element
        self._width = etype.width_bytes
        shape = descriptor.shape
        # elements per event, except for var arrays (counted per basket)
        self._k = shape.fixed_len if shape.kind is ShapeKind.FIXED_ARRAY else 1
        self._baskets = descriptor.baskets
        self._firsts = file.starts(descriptor)
        self._n_entries = descriptor.n_entries
        self._ck_first = 0
        self._ck_end = 0
        self._ck_payload = b""
        self._ck_buf = BulkBuffer()
        self._ck_counts: Optional[CountBuffer] = None
        self._baskets_read = 0
        self._unpack_from = _DISK_STRUCTS[etype].unpack_from
        # what each load of a basket needs, looked up once per reader
        self._uint = _UINTS[self._width]
        self._dtypes = _VIEW_DTYPES[etype]  # (native, disk)
        self._bool = etype is ElementType.BOOL
        self._var = shape.kind is ShapeKind.VAR_ARRAY
        file.cached.add(self)

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
        self._ck_first = self._ck_end = 0  # every entry misses the window

    def _read(self, bk: BasketDescriptor,
              mem: Optional[np.ndarray] = None) -> Optional[bytes]:
        """Read ``bk``'s stored bytes, into ``mem`` when given (a codec-none
        basket's buffer) or else as new bytes, and count the basket read. A
        closed file raises FileClosed; a basket running into the footer, or
        a short read, means truncation."""
        fd = self._file.fd
        if fd < 0:
            raise FileClosed(f"branch {self._desc.name!r}: its file is closed")
        size = bk.compressed_size
        if bk.file_offset + size > self._file.payload_end:
            raise DecompressError(
                f"truncated basket at entry {bk.first_entry} of branch "
                f"{self._desc.name!r}: it runs into the footer at byte "
                f"{self._file.payload_end}"
            )
        if mem is None:
            raw = os.pread(fd, size, bk.file_offset)
            got = len(raw)
        else:
            raw = None
            got = os.preadv(fd, [mem], bk.file_offset) if size else 0
        if got != size:
            raise DecompressError(
                f"truncated basket at entry {bk.first_entry} of branch "
                f"{self._desc.name!r}: read {got} of {size} bytes"
            )
        self._baskets_read += 1
        return raw

    def _fetch(self, bk: BasketDescriptor) -> bytes:
        return decompress_payload(self._read(bk), bk.codec, bk.uncompressed_size)

    def _load(self, idx: int, buf: BulkBuffer, counts: Optional[CountBuffer] = None,
              state: BufferState = BufferState.SERIALIZED,
              check_bool: bool = True) -> np.ndarray:
        """Fill ``buf`` with basket ``idx``: the one basket load of every read.

        Returns the filled bytes (``u1``). It checks a BOOL basket's bytes,
        unless ``check_bool`` is false. Given ``counts``, it fills them with
        the basket's per-event element counts, whose ``offsets()`` index its
        events: computed for scalars and fixed arrays, read from the count
        basket for var arrays, where counts that do not add up to the
        payload raise FormatError. A failed load leaves ``buf`` unfilled.
        """
        bk = self._baskets[idx]
        nbytes = bk.uncompressed_size
        swap = state is BufferState.DESERIALIZED and self._width > 1
        try:
            # a compressed basket is inflated before the buffer is sized, so a
            # recorded size its stream does not reach allocates nothing
            payload = None if bk.codec is _CODEC_NONE else self._fetch(bk)
            mem = buf._prepare(nbytes, self._etype, state, bk.n_entries,
                               nbytes // self._width)
            if payload is None:
                self._read(bk, mem)
                if swap:  # numpy swaps two views of one memory without a copy
                    np.copyto(mem.view(self._uint[0]), mem.view(self._uint[1]))
            elif swap:
                mem.view(self._dtypes[0])[:] = np.frombuffer(payload,
                                                             dtype=self._dtypes[1])
            else:  # 1-byte types copy verbatim, so the BOOL check sees raw bytes
                mem[:] = np.frombuffer(payload, dtype="u1")
            if check_bool and self._bool and nbytes and int(mem.max()) > 1:
                raise FormatError(f"invalid BOOL byte in basket at entry "
                                  f"{bk.first_entry} of branch {self._desc.name!r}")
            if counts is None:
                return mem
            if self._var:
                cr = self.count_reader
                counts._set(np.frombuffer(cr._fetch(cr._baskets[idx]), dtype=">u4"))
                total = counts.total()
            else:  # n copies of k, without summing them
                counts._set(np.full(bk.n_entries, self._k, dtype="u4"))
                total = bk.n_entries * self._k
            if total * self._width != nbytes:
                raise FormatError(
                    f"branch {self._desc.name!r}: basket at entry {bk.first_entry} "
                    f"has {nbytes} payload bytes but counts sum to {total} elements"
                )
        except BaseException:
            buf._prepare(0, None, None, 0, 0)
            raise
        return mem

    # --- bulk reads ---

    def get_bulk_entries(self, entry: int, user_buf: BulkBuffer) -> int:
        """Copy the basket starting at ``entry`` into ``user_buf``, deserialized.

        ``entry`` must be a basket start; returns the basket's event count.
        """
        self._load(self._basket_at_start(entry), user_buf,
                   state=BufferState.DESERIALIZED)
        return user_buf.event_count

    def get_entries_serialized(self, entry: int, user_buf: BulkBuffer,
                               count_buf: Optional[CountBuffer] = None) -> int:
        """Copy the basket starting at ``entry`` byte-for-byte (on-disk order).

        Var-array branches require ``count_buf``, which receives the
        per-event element counts; other shapes fill it if provided. BOOL
        bytes are handed out unchecked. Returns the basket's event count.
        """
        idx = self._basket_at_start(entry)
        if self._var and count_buf is None:
            raise CountBufferRequired(
                f"branch {self._desc.name!r} is a var array; pass a CountBuffer"
            )
        self._load(idx, user_buf, count_buf, check_bool=False)
        return user_buf.event_count

    # --- per-entry read ---

    def _seek_entry(self, entry: int) -> None:
        """Load the basket holding ``entry`` as the window: serialized, BOOL
        bytes checked, counts filled for array branches."""
        self._ck_first = self._ck_end = 0  # a failed load leaves no window
        idx = self._basket_index(entry)
        bk = self._baskets[idx]
        counts = self._ck_counts
        if (counts is not None and counts.event_count == bk.n_entries
                and not self._var):
            counts = None  # they are already n copies of the fixed length
        self._load(idx, self._ck_buf, counts)
        self._ck_first = first = bk.first_entry
        self._ck_end = first + bk.n_entries

    def get_entry(self, entry: int):
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            self._ck_payload = self._ck_buf._mem.data
            first = self._ck_first
        return self._unpack_from(self._ck_payload, (entry - first) * self._width)[0]


class _ArrayReader(BranchReader):
    """Fixed and var arrays: ``get_entry`` slices the basket by its offsets."""

    __slots__ = ("count_reader", "_ck_view", "_ck_offsets")

    def __init__(self, file: _OpenFile, descriptor: BranchDescriptor,
                 count_descriptor: Optional[BranchDescriptor] = None):
        super().__init__(file, descriptor)
        self._ck_counts = CountBuffer()
        self._ck_view = None
        self._ck_offsets: list[int] = []
        if count_descriptor is not None:  # var arrays: their u32 count branch
            self.count_reader = BranchReader(file, count_descriptor)

    def get_entry(self, entry: int) -> np.ndarray:
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            self._ck_offsets = self._ck_counts.offsets().tolist()
            self._ck_view = self._ck_buf.as_array()
            first = self._ck_first
        offs = self._ck_offsets
        local = entry - first
        return self._ck_view[offs[local]:offs[local + 1]].astype(self._dtypes[0])


def _make_reader(file: _OpenFile, footer: FileFooter, index: int) -> BranchReader:
    desc = footer.branches[index]
    kind = desc.shape.kind
    if kind is ShapeKind.SCALAR:
        return BranchReader(file, desc)
    count = (footer.branches[desc.shape.count_branch]
             if kind is ShapeKind.VAR_ARRAY else None)
    return _ArrayReader(file, desc, count)


class TreeFile:
    """An open bulk file: footer metadata plus a factory for branch readers."""

    def __init__(self, path: Union[str, PathLike]):
        self._fobj = open(path, "rb")
        try:
            self.footer, payload_end = locate_footer(self._fobj)
        except Exception:
            self._fobj.close()
            raise
        self.path = os.fspath(path)
        self._file = _OpenFile(self._fobj, payload_end)

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
