"""Minimal declarative analysis layer over a pluggable column source.

:func:`make_source` opens a file as a :class:`DataSource` with one or more
slots, each an entry range aligned to basket boundaries. :class:`Frame`
composes filters and derived columns lazily; nothing is read until an
action (count / sum / histogram) runs. An action runs one of two plans
over each slot, and the source counts the plans it ran
(:attr:`DataSource.plans_run`):

* ``array``: in BULK mode, an action on a catalog column with no filter and
  no define in its plan has no Python callable between the basket and the
  reduction, so the frame switches to whole-basket kernels over the
  per-basket views of :meth:`DataSource.blocks`. Their results are bit for
  bit those of the per-event loop.
* ``indexed``: every other plan, and every PER_ENTRY one. The node chain is
  compiled into per-entry accessors (once per window in BULK mode, once per
  slot in PER_ENTRY mode) and indexed by position, so filters
  short-circuit. A window is one basket's entries. In
  PER_ENTRY mode each column value is one ``BranchReader.get_entry`` call;
  in BULK mode the basket is loaded into each column's reader and decoded
  once into a list of per-event values.

Every path sums a column the same way, so its bits depend neither on the
plan nor on the mode nor on the slot count. A basket's sum is the pairwise
``np.add.reduce`` over one contiguous native float64 array of that basket's
selected values: its view cast with ``astype``, or the values the indexed
loop collected per event (see :class:`_Sum`). The total is the left
fold of the basket sums, from +0.0, in entry order over the whole source;
slots cut at basket starts, so no basket splits across two, and the running
total passes from one slot to the next. Like Python's float additions, a
sum overflows to infinity and makes NaN without a warning, and a NaN sum is
``math.nan``. A define's values must be real numbers: None, a string or a
complex number raises TypeError.

Readers live only while their action runs. :func:`direct_sum` and friends
bypass the frame and reduce over the same per-basket views, which
:meth:`DataSource.blocks` loads basket by basket into its own reader.

Predicates and expressions are plain Python callables over the named
columns' values, applied in declaration order; a filter chain stops at the
first false predicate, and a define is evaluated each time it is referenced.
A ``StopIteration`` from a define or filter raises ``RuntimeError`` from the
action.
"""

from __future__ import annotations

import math
import weakref
from array import array
from bisect import bisect_left
from contextlib import closing
from functools import partial
from os import PathLike
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import (
    FormatError,
    TypeMismatch,
    UnknownBranch,
    UnknownColumn,
)
from .format import ShapeKind
from .reader import BranchReader, TreeFile

import enum


class SourceMode(enum.Enum):
    PER_ENTRY = "per-entry"
    BULK = "bulk"


def _slot_splits(firsts: Sequence[int], n_entries: int, n_slots: int) -> list[int]:
    """Split points for n_slots contiguous ranges, snapped up to basket starts."""
    splits = [0]
    for s in range(1, n_slots):
        ideal = -(-s * n_entries // n_slots)  # ceil
        pos = bisect_left(firsts, ideal)
        split = firsts[pos] if pos < len(firsts) else n_entries
        splits.append(max(min(split, n_entries), splits[-1]))
    splits.append(n_entries)
    return splits


class _PerEntryColumn:
    """One per-event library call per value, through the branch reader."""

    __slots__ = ("read", "__weakref__")

    def __init__(self, rd: BranchReader):
        self.read = rd.get_entry


class _BulkColumn:
    """A column's values one basket (a window) at a time, decoded once.

    :meth:`load` loads the basket into its reader's window, whose load
    checks BOOL bytes and var counts, and decodes all of it: scalars into a
    list through one ``tolist()``, arrays into per-event views of one fresh
    native copy of the basket. The decoded copies, not the window, are what
    ``values`` holds, so an array handed out stays valid after the next load.
    """

    __slots__ = ("_rd", "_stop", "_native", "first", "end", "values",
                 "__weakref__")

    def __init__(self, rd: BranchReader, stop: int = 0):
        self._rd = rd
        self._stop = stop  # the basket index past a walk's last, else 0
        self._native = rd.element_type.np_native
        self.first = self.end = 0
        self.values: list = []

    def load(self, entry: int) -> list:
        """Decode the basket holding ``entry``; returns its per-event values."""
        rd = self._rd
        rd._seek_entry(entry, self._stop)
        native = rd._ck_buf.as_array().astype(self._native)
        counts = rd._ck_counts
        if counts is None:
            values = native.tolist()
        else:
            edges = counts.offsets().tolist()
            values = [native[lo:hi] for lo, hi in zip(edges, edges[1:])]
        self.first, self.end, self.values = rd._ck_first, rd._ck_end, values
        return values

    def read(self, entry: int):
        if not self.first <= entry < self.end:
            self.load(entry)
        return self.values[entry - self.first]


def _baskets(rd: BranchReader) -> int:
    """Baskets a reader fetched, its var branch's count reader included."""
    cr = getattr(rd, "count_reader", None)
    return rd.baskets_read + (cr.baskets_read if cr is not None else 0)


class DataSource:
    """Column-serving seam beneath the frame layer.

    Open it via :func:`make_source`. Column readers for the same column on
    different slots never share state; slot entry ranges partition
    [0, n_entries) on basket boundaries.
    """

    def __init__(self, path: Union[str, PathLike], tree: Optional[str] = None,
                 mode: SourceMode = SourceMode.PER_ENTRY, n_slots: int = 1):
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self._tf = TreeFile(path)
        if tree is not None and tree != self._tf.tree_name:
            name = self._tf.tree_name
            self._tf.close()
            raise UnknownBranch(f"no tree {tree!r} in file (found {name!r})")
        self.mode = SourceMode(mode)
        self.n_slots = n_slots
        footer = self._tf.footer
        starts = [self._tf._file.starts(br) for br in footer.branches]
        if any(b != starts[0] for b in starts[1:]):
            self._tf.close()
            raise FormatError(
                "branches have differing basket boundaries; cannot "
                "partition into slots"
            )
        self._firsts = starts[0] if starts else []  # the same in every branch
        splits = _slot_splits(self._firsts, footer.n_entries, n_slots)
        self.slot_ranges = list(zip(splits[:-1], splits[1:]))
        self._live: set[BranchReader] = set()  # readers of running actions
        self._released_baskets = 0
        self._plans = dict.fromkeys(("array", "indexed"), 0)

    @property
    def n_entries(self) -> int:
        return self._tf.n_entries

    @property
    def column_names(self) -> list[str]:
        return self._tf.branch_names

    def column_info(self, name: str):
        """(element type, shape) of a catalog column; UnknownColumn if absent."""
        try:
            idx = self._tf.footer.branch_index(name)
        except KeyError:
            raise UnknownColumn(f"no column {name!r}") from None
        br = self._tf.footer.branches[idx]
        return br.element, br.shape

    @property
    def baskets_read(self) -> int:
        """Baskets decompressed so far by readers this source created."""
        return self._released_baskets + sum(map(_baskets, self._live))

    @property
    def plans_run(self) -> dict[str, int]:
        """How many frame actions on this source ran each plan: ``array``
        or ``indexed`` (see :class:`Frame`); a copy."""
        return dict(self._plans)

    def _open(self, column: str) -> BranchReader:
        try:
            rd = self._tf.branch(column)
        except UnknownBranch:
            raise UnknownColumn(f"no column {column!r}") from None
        self._live.add(rd)
        return rd

    def _release(self, readers: Sequence[BranchReader]) -> None:
        """Drop readers whose work is done, keeping their basket counts and
        dropping what they read ahead."""
        for rd in readers:
            rd._drop_ahead()
            self._live.discard(rd)
            self._released_baskets += _baskets(rd)

    def reader(self, column: str, slot: int = 0):
        """A fresh per-slot column reader with a ``read(entry)`` method.

        In BULK mode it decodes a basket at a time, like a frame's window.
        """
        if not 0 <= slot < self.n_slots:
            raise ValueError(f"slot {slot} not in [0, {self.n_slots})")
        rd = self._open(column)
        col = (_PerEntryColumn(rd) if self.mode is SourceMode.PER_ENTRY
               else _BulkColumn(rd))
        weakref.finalize(col, self._release, [rd])
        return col

    def _windows(self, slot: int, columns: Sequence[str]):
        """``(entries, {column: value of entry})`` for each basket of a slot.

        PER_ENTRY: entries are the basket's entries, each value one
        ``get_entry`` call, through one accessor dict for the whole slot.
        BULK: entries ``0..n-1`` index each column's values decoded from
        that basket, through a new dict per basket. The readers are
        released when the generator finishes or is closed.
        """
        start, stop = self.slot_ranges[slot]
        firsts = self._firsts
        lo, hi = bisect_left(firsts, start), bisect_left(firsts, stop)
        edges = firsts[lo:hi]
        edges.append(stop)
        readers: list[BranchReader] = []
        try:
            for c in columns:
                readers.append(self._open(c))
            if self.mode is SourceMode.PER_ENTRY:
                get = {c: rd.get_entry for c, rd in zip(columns, readers)}
                for first, end in zip(edges, edges[1:]):
                    yield range(first, end), get
                return
            cols = [_BulkColumn(rd, hi) for rd in readers]  # read ahead to hi
            for first, end in zip(edges, edges[1:]):
                yield range(end - first), {
                    c: col.load(first).__getitem__ for c, col in zip(columns, cols)}
        finally:
            self._release(readers)

    def blocks(self, column: str, slot: Optional[int] = None) -> Iterator[np.ndarray]:
        """Serialized per-basket element views over a slot range (or all slots).

        This is the bulk seam the direct reductions consume. It walks each
        slot range's baskets by index, bisecting only the range's two ends,
        and loads each into its own reader's buffer through the reader's one
        basket load, which checks BOOL bytes (an invalid one raises
        FormatError), var counts and truncation, and raises FileClosed once
        the file is closed. Each view is valid until the next one and
        decodes lazily, so deserialization happens inside the caller's loop.
        Array columns yield every element of the basket.
        """
        ranges = self.slot_ranges if slot is None else [self.slot_ranges[slot]]
        self.column_info(column)  # an unknown column raises here, not at next()
        firsts = self._firsts

        def gen():
            rd = self._open(column)
            try:
                load, buf, counts = rd._load, rd._ck_buf, rd._ck_counts
                if not rd._var:  # the footer's size rule checked the others
                    counts = None
                disk = rd._dtypes[1]
                for start, stop in ranges:
                    hi = bisect_left(firsts, stop)  # read ahead up to hi
                    for idx in range(bisect_left(firsts, start), hi):
                        yield load(idx, buf, counts, hi).view(disk)
            finally:
                self._release([rd])

        return gen()

    def close(self) -> None:
        self._tf.close()

    def __enter__(self) -> "DataSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def make_source(path: Union[str, PathLike], tree: Optional[str] = None,
                mode: SourceMode = SourceMode.PER_ENTRY,
                n_slots: int = 1) -> DataSource:
    """Open a bulk file as a dataframe data source."""
    return DataSource(path, tree=tree, mode=mode, n_slots=n_slots)


class _FilterNode:
    __slots__ = ("fn", "columns")

    def __init__(self, fn: Callable, columns: tuple[str, ...]):
        self.fn = fn
        self.columns = columns


class _DefineNode:
    __slots__ = ("name", "fn", "columns")

    def __init__(self, name: str, fn: Callable, columns: tuple[str, ...]):
        self.name = name
        self.fn = fn
        self.columns = columns


def _hist_scalar(v: float, lo: float, width: float, bins: int) -> int:
    """Bin index for an in-range value; must mirror _hist_vector exactly."""
    i = int((v - lo) / width)
    return bins - 1 if i >= bins else i


def _hist_vector(values: np.ndarray, lo: float, hi: float, width: float,
                 bins: int) -> np.ndarray:
    """Bin counts of ``values`` as :func:`_hist_scalar` bins each Python
    number: the range test is exact, and the bin index comes from the
    value's float64."""
    a8 = values.astype(np.float64)
    if values.dtype.kind in "iu" and values.dtype.itemsize == 8:
        mask = _int_in_range(values, lo, hi)
    else:  # every other numeric type converts to float64 exactly
        mask = (a8 >= lo) & (a8 < hi)
    idx = ((a8[mask] - lo) / width).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    return np.bincount(idx, minlength=bins).astype(np.int64)


def _int_in_range(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``lo <= v < hi`` for each integer v, compared exactly as Python
    compares an int with a float: a float64 cast would round values past
    2**53. The bounds become the integers ``ceil(lo)`` and ``ceil(hi) - 1``,
    clamped to the dtype."""
    info = np.iinfo(values.dtype)
    first = info.min if lo < info.min else math.ceil(lo)
    last = info.max if hi > info.max else math.ceil(hi) - 1
    if first > last:
        return np.zeros(len(values), dtype=bool)
    return (values >= first) & (values <= last)


class Frame:
    """Lazily composed filter/define graph over a data source.

    Nodes apply in declaration order; a define's column is visible to every
    later node and to actions. Actions fold the slots in slot order, each
    from the result of the one before; a sum is the one float64 sum of the
    module docstring.
    """

    def __init__(self, source: DataSource, _nodes: tuple = ()):
        self._source = source
        self._nodes = _nodes

    # --- composition ---

    def _known_columns(self) -> set[str]:
        names = set(self._source.column_names)
        for node in self._nodes:
            if isinstance(node, _DefineNode):
                names.add(node.name)
        return names

    def _check_columns(self, columns: Sequence[str]) -> tuple[str, ...]:
        known = self._known_columns()
        for c in columns:
            if c not in known:
                raise UnknownColumn(f"no column {c!r}")
        return tuple(columns)

    def filter(self, fn: Callable[..., bool], columns: Sequence[str]) -> "Frame":
        """Keep events for which ``fn(*column values)`` is true."""
        cols = self._check_columns(columns)
        return Frame(self._source, self._nodes + (_FilterNode(fn, cols),))

    def define(self, name: str, fn: Callable, columns: Sequence[str]) -> "Frame":
        """Add a derived column computed from the named columns."""
        if name in self._known_columns():
            raise ValueError(f"column {name!r} already exists")
        cols = self._check_columns(columns)
        return Frame(self._source, self._nodes + (_DefineNode(name, fn, cols),))

    # --- actions ---

    def count(self) -> int:
        """Number of events passing all filters."""
        return self._fold(None, _count_window, None, int)

    def sum(self, column: str) -> float:
        """Float64 sum of a scalar numeric column over passing events, by
        the one sum of the module docstring; a NaN sum is ``math.nan``."""
        self._check_action_column(column)
        return _nan_free(self._fold(column, _sum_window, _Sum.views, _Sum).total())

    def histogram(self, column: str, bins: int, lo: float, hi: float) -> np.ndarray:
        """Fixed-width histogram counts of a scalar numeric column on [lo, hi)."""
        binning = _binning(bins, lo, hi)
        self._check_action_column(column)
        counts = self._fold(column, partial(_hist_window, *binning),
                            partial(_hist_array, *binning), lambda: [0] * bins)
        return np.asarray(counts, dtype=np.int64)

    def _check_action_column(self, column: str) -> None:
        defined = {n.name for n in self._nodes if isinstance(n, _DefineNode)}
        if column not in defined:
            _check_column(self._source, column)

    # --- execution ---

    def _plan(self, column: Optional[str]):
        """(catalog columns, nodes) an action on ``column`` reads: every
        filter, and the defines that the action or a filter refers to."""
        needed = {column} if column is not None else set()
        nodes = []
        for node in reversed(self._nodes):
            if isinstance(node, _FilterNode) or node.name in needed:
                needed.update(node.columns)
                nodes.append(node)
        nodes.reverse()
        return [c for c in self._source.column_names if c in needed], nodes

    def _fold(self, column: Optional[str], window, array_window, zero):
        """Run an action with one of two plans, counted in the source's
        :attr:`DataSource.plans_run`:

        * ``array``: a BULK plan with no node, on a catalog column, runs
          ``array_window(zero(), views)`` over the basket views of every
          slot from :meth:`DataSource.blocks`;
        * ``indexed``: every other plan runs
          ``acc = window(acc, entries, read, passes)`` over each window of
          each slot, from ``acc = zero()``; the node chain is compiled
          once per accessor dict, so once per slot in PER_ENTRY mode.

        Either way the result folds in entry order over the whole source,
        one basket at a time, so a sum is the one sum of the module
        docstring: each basket's pairwise sum, added to the running total
        from +0.0, whatever the plan, the mode or the slot count."""
        columns, nodes = self._plan(column)
        source = self._source
        array = (column is not None and not nodes
                 and source.mode is SourceMode.BULK)
        source._plans["array" if array else "indexed"] += 1
        if array:
            with closing(source.blocks(column)) as views:
                return array_window(zero(), views)
        acc = zero()
        for slot in range(source.n_slots):
            with closing(source._windows(slot, columns)) as windows:
                compiled = None
                for entries, values in windows:
                    if values is not compiled:
                        compiled = values
                        read, passes = _compile(nodes, values, column)
                    try:  # would end a caller's generator silently
                        acc = window(acc, entries, read, passes)
                    except StopIteration as exc:
                        raise RuntimeError(
                            "a define or filter raised StopIteration") from exc
        return acc


def _call(fn: Callable, args: Sequence[Callable]) -> Callable:
    """``entry -> fn(*(a(entry) for a in args))``, evaluated at every call."""
    if len(args) == 1:
        a0 = args[0]
        return lambda e: fn(a0(e))
    return lambda e: fn(*[a(e) for a in args])


def _compile(nodes, values: dict, column: Optional[str]):
    """(read, passes) over one window: the action column's accessor, and one
    predicate running the filters in order, or None without filters."""
    get = dict(values)
    filters = []
    for node in nodes:
        step = _call(node.fn, [get[c] for c in node.columns])
        if isinstance(node, _DefineNode):
            get[node.name] = step
        else:
            filters.append(step)
    if len(filters) > 1:
        def passes(e) -> bool:
            return all(f(e) for f in filters)
    else:
        passes = filters[0] if filters else None
    return (get[column] if column is not None else None), passes


# The indexed inner loops, the same for both source modes: ``entries``
# indexes a window's values (BULK) or its entries (PER_ENTRY); either way a
# window is one basket.

def _count_window(n: int, entries: range, read, passes) -> int:
    if passes is None:
        return n + len(entries)
    for e in entries:
        if passes(e):
            n += 1
    return n


def _sum_window(acc: "_Sum", entries: range, read, passes) -> "_Sum":
    """``acc`` fed one window, a basket: its selected values, collected per
    event."""
    if passes is None:
        return acc.add([read(e) for e in entries])
    return acc.add([read(e) for e in entries if passes(e)])


def _hist_window(lo: float, hi: float, width: float, bins: int,
                 counts: list, entries: range, read, passes) -> list:
    for e in entries:
        if passes is not None and not passes(e):
            continue
        v = read(e)
        if lo <= v < hi:
            counts[_hist_scalar(v, lo, width, bins)] += 1
    return counts


_BATCH = 1 << 14  # collected values an indexed sum reduces at a time


class _Sum:
    """The running sum of a ``Frame.sum``: the indexed loop feeds it each
    basket's collected values (:meth:`add`), the array plan the basket
    views (:meth:`views`); :meth:`total` is the sum of all it was fed.

    Collected values wait in one list, each basket's behind a +0.0, until
    ``_BATCH`` do. One ``np.add.reduceat`` over them as float64, cut where
    each basket's +0.0 is, then sums every basket, and the sums add to the
    running total in order. A segment ``[+0.0, *values]`` is what
    ``np.add.reduce(values)`` sums, its identity then the values, through
    the same pairwise kernel, so each basket has the bits of
    :func:`_sum_baskets`, while numpy runs once per batch, not per basket.
    The list becomes float64 through ``array("d")``, which takes a value
    with ``__float__`` or ``__index__`` and raises TypeError for any other
    (None, a string, a complex number), where ``np.fromiter`` would make
    NaN of None and parse a string.
    """

    __slots__ = ("acc", "values", "starts")

    def __init__(self):
        self.acc = 0.0
        self.values: list = []
        self.starts: list[int] = []

    def add(self, values: list) -> "_Sum":
        self.starts.append(len(self.values))
        self.values.append(0.0)
        self.values += values
        if len(self.values) >= _BATCH:
            self._reduce()
        return self

    def views(self, views: Iterable[np.ndarray]) -> "_Sum":
        self.acc = _sum_baskets(self.total(), views)
        return self

    def total(self) -> float:
        if self.starts:
            self._reduce()
        return self.acc

    @np.errstate(over="ignore", invalid="ignore")
    def _reduce(self) -> None:
        values = np.frombuffer(array("d", self.values), np.float64)
        sums = np.add.reduceat(values, self.starts)
        self.values, self.starts = [], []
        acc = self.acc
        for s in sums.tolist():
            acc += s
        self.acc = acc


# The array inner loops of a BULK plan with no node: whole-basket kernels
# over the basket views, with the results of the loops above.

@np.errstate(over="ignore", invalid="ignore")  # as Python's float additions
def _sum_baskets(acc: float, baskets: Iterable[np.ndarray]) -> float:
    """``acc`` plus the sum of each basket, in order: the one sum of a column
    (see the module docstring). Each basket is a contiguous array, which
    ``astype`` casts to native float64 unless it is that already: a reduce
    that casts as it goes works through ``np.getbufsize()`` elements at a
    time, each chunk a pairwise sum of its own, so its bits could differ.
    The decorator enters ``np.errstate`` once per call, not per basket."""
    reduce, f8 = np.add.reduce, np.float64  # np.sum's kernel, not its wrapper
    for values in baskets:
        acc += float(reduce(values.astype(f8, copy=False)))
    return acc


def _nan_free(total: float) -> float:
    """A sum as the actions return it: the sign kept where two NaNs meet
    follows the compiled add's operand order, so any NaN is ``math.nan``."""
    return math.nan if total != total else total


def _hist_array(lo: float, hi: float, width: float, bins: int,
                counts: list, views: Iterator[np.ndarray]) -> list:
    total = np.array(counts, dtype=np.int64)
    for view in views:
        total += _hist_vector(view, lo, hi, width, bins)
    return total.tolist()


# --- direct (frame-bypassing) reductions over source buffers ---

def _check_column(source: DataSource, column: str, arrays: bool = False) -> None:
    """TypeMismatch unless a catalog column is numeric, and scalar too
    unless ``arrays``."""
    etype, shape = source.column_info(column)
    if not arrays and shape.kind is not ShapeKind.SCALAR:
        raise TypeMismatch(f"column {column!r} is not scalar")
    if not etype.is_numeric:
        raise TypeMismatch(f"column {column!r} is not numeric")


def _binning(bins: int, lo: float, hi: float) -> tuple:
    """``(lo, hi, width, bins)`` of a histogram; ValueError if it is empty
    or its bounds or bin width are not finite, positive numbers."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    width = (hi - lo) / bins
    if not (-math.inf < lo and hi < math.inf and 0 < width < math.inf):
        raise ValueError("need finite lo and hi and a finite, nonzero bin width")
    return lo, hi, width, bins


def direct_count(source: DataSource) -> int:
    """Event count straight from the source (no frame dispatch)."""
    return sum(stop - start for start, stop in source.slot_ranges)


def direct_sum(source: DataSource, column: str) -> float:
    """Float64 sum of every element of a numeric column (scalar or array),
    reduced basket by basket over the serialized views of
    :meth:`DataSource.blocks` by the one sum of the module docstring, so a
    scalar column's equals ``Frame.sum``'s in either mode and for any slot
    count; a NaN sum is ``math.nan``."""
    _check_column(source, column, arrays=True)
    return _nan_free(_sum_baskets(0.0, source.blocks(column)))


def direct_histogram(source: DataSource, column: str, bins: int,
                     lo: float, hi: float) -> np.ndarray:
    """Histogram reduced basket-by-basket; bit-identical to the frame action."""
    binning = _binning(bins, lo, hi)
    _check_column(source, column)
    with closing(source.blocks(column)) as views:
        return np.asarray(_hist_array(*binning, [0] * bins, views), dtype=np.int64)
