"""Tree writer: accumulates row-atomic event data and flushes aligned baskets.

All branches flush at the same entry boundaries (every ``basket_capacity``
entries), so every branch of a file has identical basket spans. Variable
arrays are backed by a writer-managed u32 count branch, visible in the
footer like any other branch; its values are the lengths of the filled
rows of the first branch sharing it, taken when a basket is sealed.

``fill`` and ``extend`` copy their array inputs when called, so callers
may reuse their buffers. Each call checks all its values before it
appends any, and raises ShapeError for a missing or unknown branch, a
value of the wrong shape or length, a ragged sequence, counts that
disagree or are not whole numbers, text, bytes or None where numbers
belong (Python or numpy numbers: text would be parsed), and array values
the branch's type cannot hold. Only a filled scalar out
of its type's range is found later, when its basket is sealed: that fails
the writer with a ShapeError.

A branch's open basket is a list of disk-order chunks. ``extend`` has one
path, adding a chunk per basket it touches, and a flush joins them.
``fill`` keeps scalars as they came and each array row as its own
native-order bytes; sealing the basket joins an array branch's rows into
one chunk, swapped into disk order in place, and makes its count branch's
chunk from the rows' lengths.
"""

from __future__ import annotations

import contextlib
import struct
from dataclasses import dataclass
from os import PathLike
from typing import Sequence, Union

import numpy as np

from .errors import SchemaError, ShapeError, WriteError, WriterClosed
from .format import (
    BasketDescriptor,
    BranchDescriptor,
    BranchShape,
    Codec,
    ElementType,
    FileFooter,
    ShapeKind,
    compress_payload,
    footer_to_bytes,
    write_header,
)

DEFAULT_BASKET_CAPACITY = 8192

_U64 = struct.Struct(">Q")
_PY_NUMBERS = frozenset((int, float, bool))
# numpy dtype kinds of numbers: bool, integers, floats, complex
_NUMBER_KINDS = "biufc"
# fill's one type test per scalar: anything else takes _Branch.check_scalar
_NUMBER_TYPES = _PY_NUMBERS | {
    np.dtype(c).type for c in "?" + np.typecodes["AllInteger"] + np.typecodes["Float"]}
_TEXT = (str, bytes, bytearray)
_NDARRAY = np.ndarray
_FIXED_ARRAY = ShapeKind.FIXED_ARRAY  # a global is cheaper than an enum lookup


def _non_number(t: type) -> bool:
    """Whether values of type t are None, text or a numpy non-number."""
    if issubclass(t, np.generic):
        return np.dtype(t).kind not in _NUMBER_KINDS
    return t is type(None) or issubclass(t, _TEXT)

SchemaEntry = tuple[str, ElementType, BranchShape]


@dataclass(frozen=True)
class WriteStats:
    n_entries: int
    n_baskets: int
    bytes_written: int


class _Branch:
    __slots__ = (
        "name", "etype", "kind", "fixed_len", "count", "lead", "disk", "native",
        "rows", "pending", "chunks", "baskets", "count_index",
    )

    def __init__(self, name: str, etype: ElementType, kind: ShapeKind,
                 fixed_len: int = 0):
        self.name = name
        self.etype = etype
        self.kind = kind
        self.fixed_len = fixed_len
        self.count: "_Branch | None" = None  # var branches: managed count branch
        self.lead: "_Branch | None" = None  # count branches: first var branch
        self.count_index = -1
        # BOOL is stored as u1 bytes 0/1; casting through bool gives exactly that
        self.disk = np.dtype(bool if etype is ElementType.BOOL else etype.np_disk)
        self.native = np.dtype(etype.np_native)
        # fill() values not yet sealed into a chunk: scalars as given,
        # array rows as native-order bytes
        self.rows: list = []
        self.pending: "bytes | None" = None  # array row of a fill in check
        self.chunks: list[np.ndarray] = []  # the open basket, flat, disk order
        self.baskets: list[BasketDescriptor] = []

    def check_scalar(self, v) -> None:
        """fill's check of a scalar whose type is not a known number type:
        sequences, text, bytes, None and numpy non-numbers raise ShapeError."""
        if isinstance(v, (list, tuple, np.ndarray, bytes)):
            raise ShapeError(f"branch {self.name!r} is scalar, got a sequence")
        if _non_number(type(v)):
            raise self.not_numbers(type(v).__name__)

    def row(self, v) -> bytes:
        """fill's array value as a flat row of native-order bytes: ShapeError
        unless it has the fixed length or, for a var branch, the length of
        its count's lead branch in the same event, and numbers that fit.
        A flat ndarray of exactly the native dtype has nothing more to check
        and is copied as it is."""
        try:
            n = len(v)
        except TypeError:
            raise ShapeError(
                f"branch {self.name!r} is an array branch, got a scalar"
            ) from None
        if self.kind is _FIXED_ARRAY:
            if n != self.fixed_len:
                raise ShapeError(
                    f"branch {self.name!r} expects {self.fixed_len} elements, got {n}"
                )
        elif self.count.lead is not self:  # the lead's row is checked already
            lead = self.count.lead
            prev = len(lead.pending) // lead.native.itemsize
            if n != prev:
                raise ShapeError(
                    f"shared count branch {self.count.name!r} got lengths "
                    f"{prev} and {n} in one event"
                )
        if type(v) is _NDARRAY and v.dtype is self.native and v.ndim == 1:
            return v.tobytes()
        row = self.numbers(v)
        if row.ndim != 1:
            raise ShapeError(f"branch {self.name!r} expects a flat sequence")
        return row.tobytes()

    def not_numbers(self, what) -> ShapeError:
        return ShapeError(f"branch {self.name!r} takes numbers, got {what}")

    def check_types(self, types: set) -> None:
        """ShapeError if values of one of these types are not numbers."""
        bad = next(filter(_non_number, types), None)
        if bad is not None:
            raise self.not_numbers(bad.__name__)

    def check_numbers(self, arr: np.ndarray) -> None:
        """ShapeError unless arr holds numbers: numpy would parse text."""
        kind = arr.dtype.kind
        if kind == "O":
            self.check_types(set(map(type, arr.flat)))
        elif kind not in _NUMBER_KINDS:
            raise self.not_numbers(arr.dtype)

    def check_range(self, arr: np.ndarray, inferred: bool = False) -> None:
        """Reject values the element type cannot hold (casts would wrap).

        Floats must be finite and below ``info.max + 1``, computed in floats:
        ``info.max`` itself may round up to it. With ``inferred``, ``arr`` is
        numpy's float reading of a sequence whose Python ints are converted
        exactly elsewhere, so a value equal to that rounded bound passes.
        """
        # dtype <= dtype is numpy's cheap spelling of can_cast(..., "safe")
        if arr.dtype <= self.disk or self.disk.kind not in "iu" or not arr.size:
            return
        info = np.iinfo(self.disk)
        lo, hi = arr.min(), arr.max()
        if arr.dtype.kind == "f":  # NaN passes every comparison as false
            top = float(info.max) + 1
            bad = (not (np.isfinite(lo) and np.isfinite(hi))
                   or (hi > top if inferred else hi >= top))
        else:
            bad = hi > info.max
        if bad or lo < info.min:
            raise ShapeError(f"branch {self.name!r}: values outside "
                             f"[{info.min}, {info.max}] do not fit {self.etype.name}")

    def exact(self, values) -> np.ndarray:
        """values as an array of numbers that keeps every integer exact.

        numpy infers float64 for a Python sequence that mixes ints past the
        int64 range with others (object past uint64), rounding them; for an
        integer branch such a sequence is converted with the branch's dtype
        instead, which converts each Python int exactly or raises ShapeError.
        Object arrays are converted here too, so that a value the branch
        cannot take (NaN for an integer, 2**1024 for a float) raises
        ShapeError before extend appends anything. A ragged sequence raises
        ShapeError as well.
        """
        try:
            arr = values if isinstance(values, np.ndarray) else np.asarray(values)
        except ValueError:  # numpy cannot shape it
            raise ShapeError(f"branch {self.name!r} got a ragged sequence") from None
        self.check_numbers(arr)
        if arr.dtype.kind == "O":  # converted value by value, or ShapeError
            return self.numbers(values)
        if arr is values or arr.dtype.kind != "f" or self.disk.kind not in "iu":
            return arr
        exact = self.numbers(values)
        # arrays in the sequence, which it casts unchecked
        self.check_range(arr, inferred=True)
        return exact

    def numbers(self, values) -> np.ndarray:
        """values as a native-order ndarray, values itself if it is one
        already; ShapeError unless they are numbers that fit."""
        if isinstance(values, np.ndarray):
            self.check_numbers(values)
            self.check_range(values)
            try:  # an object array's NaN or huge int raises here
                return np.asarray(values, self.native)
            except (OverflowError, TypeError, ValueError) as exc:
                raise ShapeError(f"branch {self.name!r}: {exc}") from None
        if isinstance(values, _TEXT):  # would split into characters
            raise self.not_numbers(type(values).__name__)
        types = set(map(type, values))
        if not types <= _PY_NUMBERS:
            self.check_types(types)
        return self.converted(values, self.native)

    def counts(self, values) -> np.ndarray:
        """extend's per-event element counts of a var branch as u4;
        ShapeError unless they are a flat sequence of whole numbers that
        its count branch can hold."""
        cb = self.count
        try:  # ValueError: ragged, or an object numpy cannot cast
            arr = np.asarray(values)
            cb.check_numbers(arr)
            cb.check_range(arr)  # negative, too large, NaN or infinite
            counts = None if arr.dtype.kind == "c" else arr.astype("u4")
            whole = counts is not None and np.array_equal(counts, arr)
        except (ValueError, TypeError, OverflowError):
            whole = False
        if not whole or counts.ndim != 1:
            raise ShapeError(f"branch {self.name!r} expects its counts as a "
                             "flat sequence of whole numbers")
        return counts

    def converted(self, values: list, dtype: np.dtype) -> np.ndarray:
        """A list of numbers as a new array of dtype; ShapeError if they do
        not fit."""
        # numpy casts numpy scalars unchecked, so those become Python numbers
        if self.disk.kind in "iu" and not set(map(type, values)) <= _PY_NUMBERS:
            values = [v.item() if isinstance(v, np.generic) else v for v in values]
        try:  # numpy converts each Python number exactly, or raises
            return np.array(values, dtype=dtype)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ShapeError(f"branch {self.name!r}: {exc}") from None

    def descriptor(self) -> BranchDescriptor:
        if self.kind is ShapeKind.FIXED_ARRAY:
            shape = BranchShape(self.kind, fixed_len=self.fixed_len)
        elif self.kind is ShapeKind.VAR_ARRAY:
            shape = BranchShape(self.kind, count_branch=self.count_index)
        else:
            shape = BranchShape(self.kind)
        return BranchDescriptor(self.name, self.etype, shape, self.baskets)


class TreeWriter:
    """Builds a bulk file from a schema of (name, element type, shape) entries.

    Use as a context manager or call :meth:`close` explicitly; close flushes
    the final partial basket and writes the footer.
    """

    def __init__(self, path: Union[str, PathLike], schema: Sequence[SchemaEntry],
                 basket_capacity_entries: int = DEFAULT_BASKET_CAPACITY,
                 codec: Codec = Codec.NONE, tree_name: str = "tree"):
        if not schema:
            raise SchemaError("schema is empty")
        if basket_capacity_entries < 1:
            raise SchemaError("basket capacity must be >= 1")
        self._capacity = int(basket_capacity_entries)
        self._codec = Codec(codec)
        self._tree_name = tree_name
        self._branches: list[_Branch] = []   # footer order: user, then counts
        self._by_name: dict[str, _Branch] = {}
        self._user: list[_Branch] = []
        self._build_branches(schema)
        # fill's plan: the key set, (name, rows.append) of each scalar
        # branch, and the array branches, empty for a schema of scalars
        self._user_names = frozenset(br.name for br in self._user)
        self._scalars = tuple((br.name, br.rows.append) for br in self._user
                              if br.kind is ShapeKind.SCALAR)
        self._arrays = tuple(br for br in self._user
                             if br.kind is not ShapeKind.SCALAR)
        self._n_filled = 0
        self._basket_first = 0  # first entry of the currently open basket
        self._closed = False
        try:
            self._fobj = open(path, "wb")
            write_header(self._fobj)
        except OSError as exc:
            raise WriteError(f"cannot create {path}: {exc}") from exc

    def _build_branches(self, schema: Sequence[SchemaEntry]) -> None:
        counts: dict[str, _Branch] = {}
        for name, etype, shape in schema:
            if not name:
                raise SchemaError("branch name must be non-empty")
            if name in self._by_name:
                raise SchemaError(f"duplicate branch name {name!r}")
            etype = ElementType(etype)
            br = _Branch(name, etype, shape.kind, shape.fixed_len)
            self._by_name[name] = br
            self._user.append(br)
            if shape.kind is ShapeKind.VAR_ARRAY:
                count_name = shape.count_name or f"{name}.count"
                if count_name in self._by_name and count_name not in counts:
                    raise SchemaError(
                        f"count branch name {count_name!r} collides with a branch"
                    )
                cb = counts.get(count_name)
                if cb is None:
                    cb = _Branch(count_name, ElementType.U32, ShapeKind.SCALAR)
                    cb.lead = br
                    counts[count_name] = cb
                    self._by_name[count_name] = cb
                br.count = cb
        self._branches = self._user + list(counts.values())
        for i, br in enumerate(self._branches):
            if br.count is not None:
                br.count_index = self._branches.index(br.count)

    # --- filling ---

    @property
    def n_entries(self) -> int:
        return self._n_filled

    @property
    def branch_names(self) -> list[str]:
        return [b.name for b in self._branches]

    def fill(self, **values) -> int:
        """Append one event; returns the entry index it received.

        Every value is checked before any is appended, and each array value
        is copied at the call into a row of native-order bytes; the rows of
        a basket are swapped into disk order once, when it is sealed. A
        ShapeError appends nothing. Only a scalar its element type cannot
        hold passes, and closes the writer with a ShapeError once sealed
        into a chunk (by a flush or an extend)."""
        if self._closed:
            raise WriterClosed("writer already closed")
        if values.keys() != self._user_names:
            self._check_arity(values)
        for name, _ in self._scalars:
            if type(values[name]) not in _NUMBER_TYPES:
                self._by_name[name].check_scalar(values[name])
        if self._arrays:
            for br in self._arrays:
                br.pending = br.row(values[br.name])
            for br in self._arrays:
                br.rows.append(br.pending)
        for name, append in self._scalars:
            append(values[name])
        entry = self._n_filled
        self._n_filled = n = entry + 1
        if n - self._basket_first == self._capacity:
            self._flush()
        return entry

    def extend(self, **arrays) -> int:
        """Append many events at once; returns the number appended.

        Scalar branches take a 1-D array, fixed arrays an (n, k) array, and
        var arrays either a (flat_values, counts) pair or a sequence of rows.
        Integers the element type cannot hold raise ShapeError, appending none.
        """
        self._check_open()
        self._check_arity(arrays)
        # (branch, column, offsets): events [lo, hi) are column[lo:hi] or, for
        # var flat values, column[offsets[lo]:offsets[hi]]
        sources: list[tuple[_Branch, np.ndarray, "np.ndarray | None"]] = []
        lengths: dict[str, int] = {}
        count_arrays: dict[_Branch, np.ndarray] = {}
        for br in self._user:
            v = arrays[br.name]
            if br.kind is not ShapeKind.VAR_ARRAY:
                arr = br.exact(v)
                if br.kind is ShapeKind.SCALAR and arr.ndim != 1:
                    raise ShapeError(f"branch {br.name!r} expects a 1-D array")
                if br.kind is ShapeKind.FIXED_ARRAY and (
                        arr.ndim != 2 or arr.shape[1] != br.fixed_len):
                    raise ShapeError(
                        f"branch {br.name!r} expects shape (n, {br.fixed_len})"
                    )
                lengths[br.name] = len(arr)
                sources.append((br, arr, None))
            else:
                if isinstance(v, tuple) and len(v) == 2:
                    flat = br.exact(v[0])
                    counts = br.counts(v[1])
                else:  # joined as one sequence: rows' dtypes cannot promote
                    try:
                        rows = list(v)
                        counts = np.asarray([len(r) for r in rows], dtype="u4")
                    except TypeError:
                        raise ShapeError(
                            f"branch {br.name!r} expects a sequence of rows"
                        ) from None
                    text = next((r for r in rows if isinstance(r, _TEXT)), None)
                    if text is not None:  # would split into characters
                        raise br.not_numbers(type(text).__name__)
                    flat = br.exact([x for r in rows for x in r])
                if counts.ndim != 1 or flat.ndim != 1:
                    raise ShapeError(f"branch {br.name!r}: malformed var input")
                if int(counts.sum()) != len(flat):
                    raise ShapeError(
                        f"branch {br.name!r}: counts sum to {int(counts.sum())}, "
                        f"got {len(flat)} elements"
                    )
                lengths[br.name] = len(counts)
                prev = count_arrays.get(br.count)
                if prev is None:
                    count_arrays[br.count] = counts
                    sources.append((br.count, counts, None))
                elif not np.array_equal(prev, counts):
                    raise ShapeError(
                        f"shared count branch {br.count.name!r} got differing counts"
                    )
                offsets = np.zeros(len(counts) + 1, dtype="i8")
                np.cumsum(counts, out=offsets[1:])
                sources.append((br, flat, offsets))
        if len(set(lengths.values())) > 1:
            raise ShapeError(f"branches got differing numbers of events: {lengths}")
        for br, column, _ in sources:
            br.check_range(column)
        m = lengths.popitem()[1]
        if m == 0:
            return 0

        self._seal()  # filled rows go before this call's events
        lo = 0
        while lo < m:
            hi = min(lo + self._capacity - (self._n_filled - self._basket_first), m)
            for br, column, offsets in sources:
                part = (column[lo:hi] if offsets is None
                        else column[offsets[lo]:offsets[hi]])
                br.chunks.append(part.astype(br.disk).reshape(-1))
            self._n_filled += hi - lo
            if self._n_filled - self._basket_first == self._capacity:
                self._flush()
            lo = hi
        return m

    def _check_open(self) -> None:
        if self._closed:
            raise WriterClosed("writer already closed")

    def _check_arity(self, values: dict) -> None:
        for br in self._user:
            if br.name not in values:
                raise ShapeError(f"missing value for branch {br.name!r}")
        for name in values:
            if name not in self._by_name:
                raise ShapeError(f"unknown branch {name!r}")
            if name not in self._user_names:
                raise ShapeError(f"count branch {name!r} is writer-managed")

    # --- basket emission ---

    def _seal(self) -> None:
        """Turn each branch's filled rows into a chunk, before any basket write;
        a count branch's chunk is the row lengths of its lead. A filled scalar
        that does not fit fails the writer: it cannot flush."""
        try:
            for br in self._user:
                rows = br.rows
                if not rows:
                    continue
                if br.kind is ShapeKind.SCALAR:  # checked for type by fill
                    br.chunks.append(br.converted(rows, br.disk))
                else:  # native-order row bytes: joined, then swapped in place
                    chunk = np.frombuffer(bytearray().join(rows), br.native)
                    width = br.native.itemsize
                    if br.disk != br.native:  # through unsigned views: bit-exact
                        np.copyto(chunk.view(f">u{width}"), chunk.view(f"u{width}"))
                    br.chunks.append(chunk.view(br.disk))
                    cb = br.count
                    if cb is not None and cb.lead is br:
                        lengths = np.fromiter(map(len, rows), cb.disk, len(rows))
                        if width > 1:  # row bytes to elements
                            lengths //= width
                        cb.chunks.append(lengths)
                rows.clear()  # in place: fill holds the bound append
        except ShapeError:
            self._abandon()
            raise

    def _flush(self) -> None:
        n = self._n_filled - self._basket_first
        if n == 0:
            return
        self._seal()
        for br in self._branches:
            chunks, br.chunks = br.chunks, []
            payload = (chunks[0] if len(chunks) == 1
                       else np.concatenate(chunks, dtype=br.disk))
            self._write_basket(br, payload.view("u1"), n)
        self._basket_first = self._n_filled

    def _write_basket(self, br: _Branch, payload: np.ndarray, n_entries: int) -> None:
        compressed = compress_payload(payload, self._codec)
        try:
            offset = self._fobj.tell()
            self._fobj.write(compressed)
        except OSError as exc:
            self._abandon()
            raise WriteError(f"basket write failed: {exc}") from exc
        br.baskets.append(BasketDescriptor(
            first_entry=self._basket_first,
            n_entries=n_entries,
            file_offset=offset,
            compressed_size=len(compressed),
            uncompressed_size=len(payload),
            codec=self._codec,
        ))

    def _abandon(self) -> None:
        """Close the incomplete file after a failure; it must not be used."""
        self._closed = True
        with contextlib.suppress(OSError):
            self._fobj.close()

    # --- closing ---

    def close(self) -> WriteStats:
        """Flush the open basket, write footer and trailer, close the file."""
        self._check_open()
        try:
            self._flush()
            footer = FileFooter(
                tree_name=self._tree_name,
                n_entries=self._n_filled,
                branches=[b.descriptor() for b in self._branches],
            )
            blob = footer_to_bytes(footer)
            offset = self._fobj.tell()
            self._fobj.write(blob)
            self._fobj.write(_U64.pack(offset))
            size = self._fobj.tell()
            self._fobj.close()
        except OSError as exc:
            self._abandon()
            raise WriteError(f"close failed: {exc}") from exc
        self._closed = True
        return WriteStats(
            n_entries=self._n_filled,
            n_baskets=sum(len(b.baskets) for b in self._branches),
            bytes_written=size,
        )

    def __enter__(self) -> "TreeWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.close()
