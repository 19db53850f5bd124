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
disagree or are not whole numbers, and any value that breaks the one
conversion rule, whatever its container: a branch takes only real
numbers (Python or numpy bools, ints and floats); an integer type takes
ints it holds, exactly, and finite floats in [min, max + 1), truncated; a
float type takes each number as float() makes it, rounded to the type,
and rejects a finite value past F32's range; BOOL takes each number's
truth. Only a filled scalar that is a real number but does not fit is
found later, when its basket is sealed: that fails the writer.

A writer's ``fill`` is a function generated for its schema's shape, the
pattern of scalar and array user branches, as ``dataclasses`` generates
``__init__``: straight-line code, compiled once per shape per process, that
takes a call it can check at once and hands every other call (a closed
writer, a missing or unknown key, a scalar of another type) to the checked
method ``TreeWriter.fill``, which raises the error.

A branch's open basket is a list of disk-order chunks. ``extend`` has one
path, adding a chunk per basket it touches, and a flush joins them.
``fill`` keeps scalars as they came and each array row as its own
native-order bytes; sealing the basket joins an array branch's rows into
one chunk, swapped into disk order in place, and makes its count branch's
chunk from the rows' lengths.

A writer call (one ``extend``, the flush inside a ``fill``, or ``close``'s
last flush) first seals every basket it fills, one payload per branch, then
compresses them all, then writes them. With DEFLATE, two threads compress:
the caller and the process's one helper thread (``reader._helper``), which
take payloads, largest first, from one shared iterator. Only payloads of at
least ``_SHARED_MIN`` bytes are shared, and only when those beyond the
largest hold ``_HANDOFF_BYTES``; a call with less compresses everything on
its own thread, as does a codec-none writer. A helper job that has not
started when the caller runs out of payloads is cancelled, so a helper busy
with a read-ahead never makes a writer wait, and any payload the helper did
not compress is compressed by the caller. The baskets are then written in
the order they were sealed, branch by branch, each with its own first
entry. Which thread compressed a payload cannot change its bytes: each is
compressed on its own, with the same settings, so files are byte-identical
to those written on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import struct
from dataclasses import dataclass
from itertools import chain
from os import PathLike
from typing import Sequence, Union

import numpy as np

from . import reader as _reader  # its _helper, replaced in a forked child
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
# the real numbers a branch takes: Python or numpy bools, ints and floats
_REAL = (int, float, np.bool_, np.integer, np.floating)
# fill's one type test per scalar: anything else takes _Branch.check_scalar
_NUMBER_TYPES = _PY_NUMBERS | {
    np.dtype(c).type for c in "?" + np.typecodes["AllInteger"] + np.typecodes["Float"]}
_TEXT = (str, bytes, bytearray)
_NDARRAY = np.ndarray
_FIXED_ARRAY = ShapeKind.FIXED_ARRAY  # a global is cheaper than an enum lookup
# up to this many values, F32 is checked and packed by struct: an errstate
# costs more than struct's per-value work until about 40 values
_F32_PACKED = 32
# a payload smaller than this compresses on the writer call's own thread:
# two threads sharing payloads of about 100 bytes hand the interpreter lock
# back and forth at every one
_SHARED_MIN = 1 << 10
# a writer call hands work to the helper thread only when the payloads it
# shares hold this many bytes beyond the largest, which the caller takes
# first: waking the helper costs about as much as compressing 8 KiB
_HANDOFF_BYTES = 16 << 10

SchemaEntry = tuple[str, ElementType, BranchShape]


@dataclass(frozen=True)
class WriteStats:
    n_entries: int
    n_baskets: int
    bytes_written: int


class _Branch:
    __slots__ = (
        "name", "etype", "kind", "fixed_len", "count", "lead", "disk", "native",
        "bounds", "misfit", "rows", "pending", "chunks", "baskets", "count_index",
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
        # an integer type holds [min, max + 1); other types have no bounds
        info = np.iinfo(self.native) if self.native.kind in "iu" else None
        self.bounds = None if info is None else (info.min, info.max + 1)
        self.misfit = f"branch {name!r}: values do not fit {etype.name}"
        # fill() values not yet sealed into a chunk: scalars as given,
        # array rows as native-order bytes
        self.rows: list = []
        self.pending: "bytes | None" = None  # array row of a fill in check
        self.chunks: list[np.ndarray] = []  # the open basket, flat, disk order
        self.baskets: list[BasketDescriptor] = []

    def check_scalar(self, v) -> None:
        """fill's check of a scalar whose type is not a known number type:
        ShapeError unless it is a real number (see _REAL)."""
        if isinstance(v, (list, tuple, np.ndarray, bytes)):
            raise ShapeError(f"branch {self.name!r} is scalar, got a sequence")
        if not isinstance(v, _REAL):
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
        row = self.values(v)
        if row.ndim != 1:
            raise ShapeError(f"branch {self.name!r} expects a flat sequence")
        return row.tobytes()

    def not_numbers(self, what) -> ShapeError:
        return ShapeError(f"branch {self.name!r} takes numbers, got {what}")

    def values(self, v) -> np.ndarray:
        """v as a native-dtype ndarray, shaped as numpy shapes it (v itself
        if it is one); ShapeError unless the module docstring's rule takes
        every value. An array of numbers is checked by its min and max. For
        an integer type a sequence, and any object array, goes value by value
        as Python numbers, as numpy casts numpy scalars unchecked."""
        shape = None  # v's shape, once its objects are a flat list
        if type(v) is not list or self.bounds is None \
                or not set(map(type, v)) <= _PY_NUMBERS:
            if isinstance(v, _TEXT):  # would split into characters
                raise self.not_numbers(type(v).__name__)
            if not isinstance(v, np.ndarray):
                try:  # objects for an integer type: float64 would round big ints
                    v = np.asarray(v, dtype=None if self.bounds is None else object)
                except ValueError:  # numpy cannot shape it
                    raise ShapeError(
                        f"branch {self.name!r} got a ragged sequence") from None
            kind = v.dtype.kind
            if kind == "O":
                shape, v = v.shape, v.ravel().tolist()
                types = set(map(type, v))
                bad = next((t for t in types if not issubclass(t, _REAL)), None)
                if bad is not None:
                    raise self.not_numbers(bad.__name__)
                if not types <= _PY_NUMBERS:
                    v = [float(x) if isinstance(x, np.floating) else
                         x.item() if isinstance(x, np.generic) else x for x in v]
            elif kind not in "biuf":
                raise self.not_numbers(v.dtype)
            elif v.dtype.itemsize > 8 or (kind in "iu" and self.native.kind == "f"):
                # long doubles, and ints for a float type: float64 first, as float()
                with np.errstate(over="ignore", invalid="ignore"):
                    v = v.astype(np.float64)
        bounds = self.bounds
        if bounds is not None and type(v) is not list and v.size \
                and not v.dtype <= self.native:
            # compared as Python numbers, exactly; NaN fails
            if not (bounds[0] <= v.min().item() and v.max().item() < bounds[1]):
                raise ShapeError(self.misfit)
        try:
            if self.etype is not ElementType.F32 or \
                    (type(v) is not list and v.itemsize <= 4):
                if type(v) is list or v.dtype == self.native \
                        or not v.dtype.kind == self.native.kind == "f":
                    out = np.asarray(v, dtype=self.native)
                else:  # widening quiets a signalling NaN, which numpy flags
                    with np.errstate(invalid="ignore"):
                        out = np.asarray(v, dtype=self.native)
            elif (type(v) is list or v.ndim == 1) and len(v) <= _F32_PACKED:
                # struct's float packing, as numpy's cast, but it raises
                # OverflowError for exactly a finite value past F32's range
                out = np.empty(len(v), self.native)
                struct.pack_into(f"={len(out)}f", out, 0,
                                 *(v if type(v) is list else v.tolist()))
            else:  # a finite value past F32's range raises; a NaN passes
                with np.errstate(over="raise", invalid="ignore"):
                    out = np.asarray(v, dtype=self.native)
        except (OverflowError, ValueError, FloatingPointError, struct.error):
            raise ShapeError(self.misfit) from None
        # a Python float in (min - 1, min) would truncate to min
        if bounds is not None and type(v) is list and v and min(v) < bounds[0]:
            raise ShapeError(self.misfit)
        return out if shape is None else out.reshape(shape)

    def joined_rows(self, v) -> tuple[np.ndarray, np.ndarray]:
        """extend's var rows as (per-event counts, flat values). When every
        row is a list of Python numbers, the rows convert as one joined list:
        the rule takes each number on its own, so the values are those of
        converting row by row. Any other rows (arrays, bytes, nested or
        ragged rows) convert one by one, as fill converts its row."""
        try:
            rows = list(v)
            if set(map(type, rows)) <= {list}:
                joined = list(chain.from_iterable(rows))
                if set(map(type, joined)) <= _PY_NUMBERS:
                    return (np.fromiter(map(len, rows), "u4", len(rows)),
                            self.values(joined))
            arrays = [self.values(r) for r in rows]
        except TypeError:
            raise ShapeError(
                f"branch {self.name!r} expects a sequence of rows"
            ) from None
        if any(r.ndim != 1 for r in arrays):
            raise ShapeError(f"branch {self.name!r} expects flat rows")
        counts = np.fromiter(map(len, arrays), "u4", len(arrays))
        return counts, (np.concatenate(arrays) if arrays
                        else np.empty(0, self.native))

    def counts(self, values) -> np.ndarray:
        """extend's per-event element counts of a var branch as u4;
        ShapeError unless they are a flat sequence of whole numbers that
        its count branch can hold."""
        counts = self.count.values(values)
        if counts.ndim != 1 or not np.array_equal(counts, values):
            raise ShapeError(f"branch {self.name!r} expects its counts as a "
                             "flat sequence of whole numbers")
        return counts

    def descriptor(self) -> BranchDescriptor:
        if self.kind is ShapeKind.FIXED_ARRAY:
            shape = BranchShape(self.kind, fixed_len=self.fixed_len)
        elif self.kind is ShapeKind.VAR_ARRAY:
            shape = BranchShape(self.kind, count_branch=self.count_index)
        else:
            shape = BranchShape(self.kind)
        return BranchDescriptor(self.name, self.etype, shape, self.baskets)


@functools.cache
def _fill_maker(arrays: tuple[bool, ...]):
    """Compile, once per process, the maker of a straight-line ``fill`` for
    user branches whose kinds are ``arrays`` (in schema order, True for an
    array branch). The maker takes the writer, the checked fill method, the
    writer's basket capacity and _NUMBER_TYPES, then per branch its name
    and ``rows.append`` and, for an array branch, the branch and its
    ``row``: names and objects reach the code as arguments, never as source
    text. The made ``fill`` does what the method does, in its order, for a
    call whose keys are the schema's and whose scalars have a type in
    _NUMBER_TYPES; it passes any other call, untouched, to the method."""
    params, gets, types, rows, appends = [], [], [], [], []
    for i, is_array in enumerate(arrays):
        params += [f"n{i}", f"a{i}"]
        gets.append(f"v{i} = values[n{i}]")
        if is_array:
            params += [f"b{i}", f"row{i}"]
            rows.append(f"b{i}.pending = r{i} = row{i}(v{i})")
            appends.append(f"a{i}(r{i})")
        else:
            types.append(f"type(v{i}) not in number_types")
            appends.append(f"a{i}(v{i})")
    lines = [
        f"def make(w, checked, capacity, number_types, {', '.join(params)}):",
        "    def fill(**values):",
        f"        if w._closed or len(values) != {len(arrays)}:",
        "            return checked(w, **values)",
        "        try:",
        *(f"            {g}" for g in gets),
        "        except KeyError:",
        "            return checked(w, **values)",
    ]
    if types:
        lines += [f"        if {' or '.join(types)}:",
                  "            return checked(w, **values)"]
    lines += [
        *(f"        {r}" for r in rows),
        *(f"        {a}" for a in appends),
        "        entry = w._n_filled",
        "        w._n_filled = n = entry + 1",
        "        if n - w._basket_first == capacity:",
        "            w._flush()",
        "        return entry",
        "    return fill",
    ]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<bulkio generated fill>", "exec"), namespace)
    return namespace["make"]


def _compress_all(payloads: list, codec: Codec, key) -> list:
    """Each payload compressed, in order. Payloads of ``_SHARED_MIN`` bytes
    or more are shared: when those beyond the largest hold
    ``_HANDOFF_BYTES``, the caller and the helper thread, under ``key``,
    take them, largest first, from one iterator, and the caller then
    compresses the rest. A helper job not yet started when the caller runs
    out is cancelled, one running is waited for, and any payload still
    without output (its job cancelled or failed) is compressed on the
    caller's thread. zlib releases the interpreter lock, so the two
    compressions overlap."""
    # the total is a cheap bound on what is shared beyond the largest
    if codec is Codec.NONE or sum(map(len, payloads)) < _HANDOFF_BYTES:
        return [compress_payload(p, codec) for p in payloads]
    shared = sorted(
        (i for i, p in enumerate(payloads) if len(p) >= _SHARED_MIN),
        key=lambda i: -len(payloads[i]))
    if sum(len(payloads[i]) for i in shared[1:]) < _HANDOFF_BYTES:
        return [compress_payload(p, codec) for p in payloads]
    out = [None] * len(payloads)

    def compress(items) -> None:
        for i in items:
            out[i] = compress_payload(payloads[i], codec)

    # next() on a list iterator is one step under the interpreter lock, so
    # each payload goes to one thread
    items = iter(shared)
    helper = _reader._helper
    job = helper.submit(key, compress, items)
    try:
        compress(chain(items, (i for i, p in enumerate(payloads)
                               if len(p) < _SHARED_MIN)))
    finally:
        if job is not None:
            helper.cancel(job)
            job.finished.wait()
    return [compress_payload(p, codec) if c is None else c
            for p, c in zip(payloads, out)]


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
        # sealed baskets not yet written: (branch, payload, first entry, entries)
        self._sealed: list[tuple[_Branch, np.ndarray, int, int]] = []
        self._closed = False
        try:
            self._fobj = open(path, "wb")
            write_header(self._fobj)
        except OSError as exc:
            raise WriteError(f"cannot create {path}: {exc}") from exc
        if type(self).fill is TreeWriter.fill:  # a subclass's override stays
            self.fill = self._generated_fill()

    def _generated_fill(self):
        """This writer's fill, made by its shape's :func:`_fill_maker`; it
        holds the writer, so closing the writer deletes it, and a closed
        writer's ``fill`` is the method again."""
        shape, args = [], []
        for br in self._user:
            is_array = br.kind is not ShapeKind.SCALAR
            shape.append(is_array)
            args += ((br.name, br.rows.append, br, br.row) if is_array
                     else (br.name, br.rows.append))
        fill = _fill_maker(tuple(shape))(self, TreeWriter.fill, self._capacity,
                                         _NUMBER_TYPES, *args)
        fill.__name__ = TreeWriter.fill.__name__
        fill.__doc__ = TreeWriter.fill.__doc__
        return fill

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

        A writer's ``fill`` is generated once per schema shape as
        straight-line code; any call it cannot take at once comes here, to
        the checked method, which raises the error.

        Every value is checked before any is appended, and each array value
        is copied at the call into a row of native-order bytes; the rows of
        a basket are swapped into disk order once, when it is sealed. A
        ShapeError appends nothing. Only a real scalar its element type
        cannot hold passes, and closes the writer with a ShapeError once
        sealed into a chunk (by a flush or an extend)."""
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
        A value the conversion rule rejects raises ShapeError, appending none.
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
                arr = br.values(v)
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
                    flat = br.values(v[0])
                    counts = br.counts(v[1])
                else:
                    counts, flat = br.joined_rows(v)
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
                self._seal_basket()
            lo = hi
        self._write_sealed()
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
                    chunk = br.values(rows)
                else:  # native-order row bytes, joined
                    chunk = np.frombuffer(bytearray().join(rows), br.native)
                    cb = br.count
                    if cb is not None and cb.lead is br:
                        lengths = np.fromiter(map(len, rows), cb.disk, len(rows))
                        if chunk.itemsize > 1:  # row bytes to elements
                            lengths //= chunk.itemsize
                        cb.chunks.append(lengths)
                width = chunk.itemsize
                if br.disk != br.native:  # in place, through unsigned views
                    np.copyto(chunk.view(f">u{width}"), chunk.view(f"u{width}"))
                br.chunks.append(chunk.view(br.disk))
                rows.clear()  # in place: fill holds the bound append
        except ShapeError:
            self._abandon()
            raise

    def _flush(self) -> None:
        self._seal_basket()
        self._write_sealed()

    def _seal_basket(self) -> None:
        """Seal the open basket: one payload per branch, to be written."""
        n = self._n_filled - self._basket_first
        if n == 0:
            return
        self._seal()
        first = self._basket_first
        for br in self._branches:
            chunks, br.chunks = br.chunks, []
            payload = (chunks[0] if len(chunks) == 1
                       else np.concatenate(chunks, dtype=br.disk))
            self._sealed.append((br, payload.view("u1"), first, n))
        self._basket_first = self._n_filled

    def _write_sealed(self) -> None:
        """Compress the sealed baskets, then write them in the order sealed."""
        sealed, self._sealed = self._sealed, []
        blobs = _compress_all([s[1] for s in sealed], self._codec, self)
        codec = self._codec
        for (br, payload, first, n), blob in zip(sealed, blobs):
            try:
                offset = self._fobj.tell()
                self._fobj.write(blob)
            except OSError as exc:
                self._abandon()
                raise WriteError(f"basket write failed: {exc}") from exc
            br.baskets.append(BasketDescriptor(
                first_entry=first,
                n_entries=n,
                file_offset=offset,
                compressed_size=len(blob),
                uncompressed_size=len(payload),
                codec=codec,
            ))

    def _abandon(self) -> None:
        """Close the incomplete file after a failure; it must not be used."""
        self._closed = True
        self.__dict__.pop("fill", None)
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
        self.__dict__.pop("fill", None)  # ends the writer <-> fill cycle
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
