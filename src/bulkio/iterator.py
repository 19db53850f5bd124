"""Event-loop layer: a plain per-entry iterator and a fast bulk-backed one.

The plain :class:`EventReader` routes every dereference through
``BranchReader.get_entry`` — one library call, one bounds check and one
basket lookup per event, on purpose: it models the conventional reader
stack whose overhead the bulk paths remove.

:class:`FastEventReader` gives each proxy a reader of its own and refills
that reader's window (its one loaded basket, serialized) one basket at a
time, decoding at dereference; while one basket inflates, the next
compressed one inflates on the reader module's helper thread (see
:mod:`bulkio.reader`). Proxies are valid only between two
``next()`` calls; window reuse across refills is guarded by a generation
counter. ``next_block()`` plus ``block()`` expose the same data one basket
at a time as lazily-decoding array views, which is how a vectorizing
caller gets the deserialization folded into its own reduction loop.

Both iterators read through the reader's one basket load, which checks
BOOL bytes and var counts once per basket: a bad basket raises
:class:`FormatError` at the ``get_entry`` of a plain dereference, and at
the ``next()`` or ``next_block()`` that refills a fast iterator.
"""

from __future__ import annotations

from os import PathLike
from typing import Union

import numpy as np

from .errors import FormatError, InvalidProxyState, TypeMismatch
from .format import ElementType, ShapeKind
from .reader import BranchReader, TreeFile

Source = Union[str, PathLike, TreeFile]


class _EventLoop:
    """Shared source handling and proxy attachment for both iterator kinds."""

    def __init__(self, source: Source):
        if isinstance(source, TreeFile):
            self._tf = source
            self._owns = False
        else:
            self._tf = TreeFile(source)
            self._owns = True
        self._n = self._tf.n_entries
        self._cursor = -1
        self._started = False
        self._proxies: list = []

    @property
    def n_entries(self) -> int:
        return self._n

    @property
    def cursor(self) -> int:
        return self._cursor

    def _resolve(self, name: str, etype: ElementType,
                 want_array: bool) -> BranchReader:
        if self._started:
            raise InvalidProxyState("attach proxies before the first next()")
        rd = self._tf.branch(name)
        if rd.element_type is not etype:
            raise TypeMismatch(
                f"branch {name!r} holds {rd.element_type.name}, "
                f"proxy declared {ElementType(etype).name}"
            )
        is_array = rd.descriptor.shape.kind is not ShapeKind.SCALAR
        if is_array != want_array:
            kind = "an array" if is_array else "a scalar"
            raise TypeMismatch(f"branch {name!r} is {kind} branch")
        return rd

    def close(self) -> None:
        for p in self._proxies:  # a walk stopped early read a basket ahead
            p._rd._drop_ahead()
        if self._owns:
            self._tf.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ValueProxy:
    """Plain scalar accessor; dereference delegates to get_entry."""

    __slots__ = ("_it", "_rd")

    def __init__(self, it: "EventReader", rd: BranchReader):
        self._it = it
        self._rd = rd

    def deref(self):
        it = self._it
        c = it._cursor
        if c < 0 or c >= it._n:
            raise InvalidProxyState("iterator not positioned on a valid entry")
        return self._rd.get_entry(c)


class ArrayProxy(ValueProxy):
    """Plain array accessor (fixed or var shape); deref returns a fresh array."""

    __slots__ = ("_fixed_len",)

    def __init__(self, it: "EventReader", rd: BranchReader):
        super().__init__(it, rd)
        shape = rd.descriptor.shape
        self._fixed_len = shape.fixed_len if shape.kind is ShapeKind.FIXED_ARRAY else -1

    def __len__(self) -> int:
        if self._fixed_len >= 0:
            return self._fixed_len
        it = self._it
        c = it._cursor
        if c < 0 or c >= it._n:
            raise InvalidProxyState("iterator not positioned on a valid entry")
        return int(self._rd.count_reader.get_entry(c))


class EventReader(_EventLoop):
    """Per-entry event loop::

        with EventReader(path) as events:
            x = events.attach_value("x", ElementType.F32)
            total = 0.0
            while events.next():
                total += x.deref()
    """

    def attach_value(self, name: str, etype: ElementType) -> ValueProxy:
        return ValueProxy(self, self._resolve(name, etype, want_array=False))

    def attach_array(self, name: str, etype: ElementType) -> ArrayProxy:
        return ArrayProxy(self, self._resolve(name, etype, want_array=True))

    def next(self) -> bool:
        """Advance to the next entry; False exactly once the file is exhausted."""
        self._started = True
        c = self._cursor + 1
        self._cursor = c
        return c < self._n


class FastValueProxy:
    """Scalar accessor over its reader's window, the current basket.

    A refill loads the window, whose load checks BOOL bytes, so an invalid
    BOOL byte raises at the ``next()``/``next_block()`` call that loads its
    basket; BOOL values are then viewed as numpy bools.
    """

    __slots__ = ("_it", "_rd", "_stop", "_view", "_gen", "refill_count")

    def __init__(self, it: "FastEventReader", rd: BranchReader):
        self._it = it
        self._rd = rd
        self._stop = len(rd.descriptor.baskets)  # refills walk every basket
        self._view = None
        self._gen = -1
        self.refill_count = 0

    @property
    def generation(self) -> int:
        """Refill generation this proxy's window belongs to."""
        return self._gen

    def _refill(self, entry: int, gen: int) -> int:
        rd = self._rd
        rd._seek_entry(entry, self._stop)
        view = rd._ck_buf.as_array()
        self._view = view.view("?") if rd._etype is ElementType.BOOL else view
        self._gen = gen
        self.refill_count += 1
        return rd._ck_end - entry

    def _check_window(self) -> int:
        it = self._it
        c = it._cursor
        if c < it._block_first or c >= it._block_end or self._gen != it._gen:
            raise InvalidProxyState("iterator not positioned on a valid entry")
        return c - it._block_first

    def deref(self):
        """Decode the current entry's value from the serialized window."""
        local = self._check_window()
        return self._view.item(local)

    def block(self) -> np.ndarray:
        """All elements of the current basket, as a lazily-decoding view."""
        it = self._it
        if self._gen != it._gen or it._block_end <= it._block_first:
            raise InvalidProxyState("no current block")
        return self._view


class FastArrayProxy(FastValueProxy):
    """Array accessor decoding one event's slice at dereference time."""

    __slots__ = ("_native", "_fixed_len", "_offsets")

    def __init__(self, it: "FastEventReader", rd: BranchReader):
        super().__init__(it, rd)
        self._native = rd.element_type.np_native
        shape = rd.descriptor.shape
        self._fixed_len = shape.fixed_len if shape.kind is ShapeKind.FIXED_ARRAY else -1
        self._offsets = None

    def _refill(self, entry: int, gen: int) -> int:
        self._offsets = None  # built by the basket's first deref, if any
        return super()._refill(entry, gen)

    def deref(self) -> np.ndarray:
        local = self._check_window()
        offs = self._offsets
        if offs is None:
            offs = self._offsets = self._rd._ck_counts.offsets()
        return self._view[int(offs[local]):int(offs[local + 1])].astype(self._native)

    def __len__(self) -> int:
        if self._fixed_len >= 0:
            return self._fixed_len
        return self._rd._ck_counts[self._check_window()]

    def block_counts(self) -> np.ndarray:
        """Per-event element counts for the current basket."""
        self.block()  # raises without a current block
        return self._rd._ck_counts.counts


class FastEventReader(_EventLoop):
    """Bulk-backed event loop; same stepping contract as :class:`EventReader`.

    All attached branches must share basket boundaries (files produced by
    :class:`bulkio.writer.TreeWriter` always do).
    """

    def __init__(self, source: Source):
        super().__init__(source)
        self._gen = 0
        self._block_first = 0
        self._block_end = 0
        self._bounds: list[tuple[int, int]] | None = None

    @property
    def generation(self) -> int:
        return self._gen

    def _attach(self, name: str, etype: ElementType, want_array: bool):
        rd = self._resolve(name, etype, want_array)
        bounds = [(b.first_entry, b.n_entries) for b in rd.descriptor.baskets]
        if self._bounds is None:
            self._bounds = bounds
        elif bounds != self._bounds:
            raise FormatError(
                f"branch {name!r} has different basket boundaries than the "
                f"other attached branches"
            )
        proxy = (FastArrayProxy if want_array else FastValueProxy)(self, rd)
        self._proxies.append(proxy)
        return proxy

    def attach_value(self, name: str, etype: ElementType) -> FastValueProxy:
        return self._attach(name, etype, want_array=False)

    def attach_array(self, name: str, etype: ElementType) -> FastArrayProxy:
        return self._attach(name, etype, want_array=True)

    def _refill(self, entry: int) -> int:
        gen = self._gen + 1
        self._gen = gen
        # the block stays empty until every proxy is refilled
        self._block_first = self._block_end = entry
        n = 0
        for p in self._proxies:
            n = p._refill(entry, gen)
        self._block_end = entry + n
        return n

    def next(self) -> bool:
        """Advance one entry, refilling every proxy at basket boundaries."""
        self._started = True
        c = self._cursor + 1
        if c >= self._block_end:
            if c >= self._n or not self._proxies:
                self._cursor = min(c, self._n)
                return c < self._n
            self._refill(self._block_end)
        self._cursor = c
        return True

    def next_block(self) -> int:
        """Advance to the start of the next basket and refill the proxies.

        Returns the number of entries in the new block, or 0 once exhausted.
        Event-level ``next()`` may be mixed in; the block is whatever basket
        the cursor currently sits in.
        """
        self._started = True
        start = self._block_end
        if start >= self._n or not self._proxies:
            self._cursor = self._n
            return 0
        n = self._refill(start)
        self._cursor = start
        return n
