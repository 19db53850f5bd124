"""Minimal declarative analysis layer over a pluggable column source.

:func:`make_source` opens a file as a :class:`DataSource` with one or more
slots, each an entry range aligned to basket boundaries. :class:`Frame`
composes filters and derived columns lazily; nothing is read until an
action (count / sum / histogram) runs. An action runs one of three plans
over each slot, and the source counts the plans it ran
(:attr:`DataSource.plans_run`):

* ``array``: in BULK mode, an action on a catalog column with no filter and
  no define in its plan has no Python callable between the basket and the
  reduction, so the frame switches to whole-basket kernels over the
  per-basket views of :meth:`DataSource.blocks`. Their results are bit for
  bit those of the per-event loops: a sum is the same left fold in float64.
* ``streamed``: a BULK plan without filters loads each column the action
  reads into its reader's window, one basket at a time, and decodes it once
  into a list of per-event values; the action iterates the column's list,
  and a define is ``map``-ped over fresh streams of its arguments.
* ``indexed``: with filters, and in every PER_ENTRY window, the node chain
  is compiled once per window into per-entry accessors and indexed by
  position, so filters short-circuit. In PER_ENTRY mode the window is the
  whole slot and each column value is one ``BranchReader.get_entry`` call;
  in BULK mode a window is one basket, decoded as for ``streamed``.

Readers live only while their action runs. :func:`direct_sum` and friends
bypass the frame and reduce over the same per-basket views, which
:meth:`DataSource.blocks` takes from its reader's window.

Predicates and expressions are plain Python callables over the named
columns' values, applied in declaration order; a filter chain stops at the
first false predicate, and a define is evaluated each time it is referenced.
A ``StopIteration`` from a define or filter raises ``RuntimeError`` from the
action, in every window.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from contextlib import closing
from functools import partial
from itertools import chain, compress, repeat, starmap
from operator import length_hint
from os import PathLike
from typing import Callable, Iterator, Optional, Sequence, Union

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

    __slots__ = ("_rd", "_native", "first", "end", "values", "__weakref__")

    def __init__(self, rd: BranchReader):
        self._rd = rd
        self._native = rd.element_type.np_native
        self.first = self.end = 0
        self.values: list = []

    def load(self, entry: int) -> list:
        """Decode the basket holding ``entry``; returns its per-event values."""
        rd = self._rd
        rd._seek_entry(entry)
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
        bounds = None
        for br in footer.branches:
            b = [bk.first_entry for bk in br.baskets]
            if bounds is None:
                bounds = b
            elif b != bounds:
                self._tf.close()
                raise FormatError(
                    "branches have differing basket boundaries; cannot "
                    "partition into slots"
                )
        self._firsts = bounds or []  # basket starts, the same in every branch
        splits = _slot_splits(self._firsts, footer.n_entries, n_slots)
        self.slot_ranges = list(zip(splits[:-1], splits[1:]))
        self._live: set[BranchReader] = set()  # readers of running actions
        self._released_baskets = 0
        self._plans = dict.fromkeys(("array", "streamed", "indexed"), 0)

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
        """How many frame actions on this source ran each plan: ``array``,
        ``streamed`` or ``indexed`` (see :class:`Frame`); a copy."""
        return dict(self._plans)

    def _open(self, column: str) -> BranchReader:
        try:
            rd = self._tf.branch(column)
        except UnknownBranch:
            raise UnknownColumn(f"no column {column!r}") from None
        self._live.add(rd)
        return rd

    def _release(self, readers: Sequence[BranchReader]) -> None:
        """Drop readers whose work is done, keeping their basket counts."""
        for rd in readers:
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

    def _windows(self, slot: int, columns: Sequence[str], lists: bool = False):
        """``(entries, {column: value of entry})`` for each window of a slot.

        PER_ENTRY: one window, the slot's entries, each value one
        ``get_entry`` call. BULK: one window per basket, entries ``0..n-1``
        indexing each column's values decoded from that basket; with
        ``lists``, each column maps to that list of values itself. The
        readers are released when the generator finishes or is closed.
        """
        start, stop = self.slot_ranges[slot]
        readers: list[BranchReader] = []
        try:
            for c in columns:
                readers.append(self._open(c))
            if self.mode is SourceMode.PER_ENTRY:
                yield range(start, stop), {
                    c: rd.get_entry for c, rd in zip(columns, readers)}
                return
            cols = [_BulkColumn(rd) for rd in readers]
            firsts = self._firsts
            edges = firsts[bisect_left(firsts, start):bisect_left(firsts, stop)]
            edges.append(stop)
            for first, end in zip(edges, edges[1:]):
                yield range(end - first), {
                    c: col.load(first) if lists else col.load(first).__getitem__
                    for c, col in zip(columns, cols)}
        finally:
            self._release(readers)

    def blocks(self, column: str, slot: Optional[int] = None) -> Iterator[np.ndarray]:
        """Serialized per-basket element views over a slot range (or all slots).

        This is the bulk seam the direct reductions consume: each view is
        the window of the generator's own reader, valid until the next one,
        and decodes lazily, so deserialization happens inside the caller's
        loop. Array columns yield every element of the basket. The window's
        load checks BOOL bytes, so an invalid one raises FormatError.
        """
        ranges = self.slot_ranges if slot is None else [self.slot_ranges[slot]]
        self.column_info(column)  # an unknown column raises here, not at next()

        def gen():
            rd = self._open(column)
            try:
                for start, stop in ranges:
                    entry = start
                    while entry < stop:
                        rd._seek_entry(entry)
                        yield rd._ck_buf.as_array()
                        entry = rd._ck_end
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
    later node and to actions. Actions fold per-slot results in slot order,
    with sums accumulated in float64 per slot.
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
        return self._fold(None, _count_window, None, None, int, int.__add__)

    def sum(self, column: str) -> float:
        """Float64 sum of a scalar numeric column over passing events."""
        self._check_action_column(column)
        return self._fold(column, _sum_window, _sum_stream, _sum_array, float,
                          float.__add__)

    def histogram(self, column: str, bins: int, lo: float, hi: float) -> np.ndarray:
        """Fixed-width histogram counts of a scalar numeric column on [lo, hi)."""
        binning = _binning(bins, lo, hi)
        self._check_action_column(column)
        counts = self._fold(column, partial(_hist_window, *binning),
                            partial(_hist_stream, *binning),
                            partial(_hist_array, *binning), lambda: [0] * bins,
                            lambda a, b: list(map(int.__add__, a, b)))
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

    def _fold(self, column: Optional[str], window, stream_window, array_window,
              zero, combine):
        """Run an action over every slot with one of three plans, counted in
        the source's :attr:`DataSource.plans_run`:

        * ``array``: a BULK plan with no node, on a catalog column, runs
          ``array_window(acc, views)`` over the slot's basket views from
          :meth:`DataSource.blocks`;
        * ``streamed``: a BULK plan without filters runs
          ``stream_window(acc, values)`` over the action column's values in
          each window;
        * ``indexed``: every other plan runs
          ``window(acc, entries, read, passes)`` over each window.

        Each slot folds in entry order from ``zero()``; slot results combine
        in slot order."""
        columns, nodes = self._plan(column)
        source = self._source
        if (column is None or source.mode is SourceMode.PER_ENTRY
                or any(isinstance(n, _FilterNode) for n in nodes)):
            plan = "indexed"
        else:
            plan = "streamed" if nodes else "array"
        source._plans[plan] += 1
        result = zero()
        stream = plan == "streamed"
        for slot in range(source.n_slots):
            acc = zero()
            if plan == "array":
                with closing(source.blocks(column, slot)) as views:
                    acc = array_window(acc, views)
            else:
                with closing(source._windows(slot, columns, stream)) as windows:
                    for entries, values in windows:
                        if stream:
                            acc = stream_window(acc, _action_stream(
                                nodes, values, len(entries), column))
                            continue
                        read, passes = _compile(nodes, values, column)
                        try:  # would end a caller's generator or map silently
                            acc = window(acc, entries, read, passes)
                        except StopIteration as exc:
                            raise RuntimeError(
                                "a define or filter raised StopIteration") from exc
            result = combine(result, acc)
        return result


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


def _stream(defines, lists: dict, n: int, column: str) -> Iterator:
    """``column``'s values over one window of ``n`` events: an iterator over
    a catalog column's decoded list, or a define mapped over fresh streams
    of its arguments, one per reference. ``map`` pulls one value from each
    argument in order before each call, so defines run per event, left to
    right, once per reference, as the indexed chain runs them."""
    node = next((d for d in defines if d.name == column), None)
    if node is None:
        return iter(lists[column])
    if not node.columns:
        return starmap(node.fn, repeat((), n))
    return map(node.fn, *[_stream(defines, lists, n, c) for c in node.columns])


def _action_stream(defines, lists: dict, n: int, column: str) -> Iterator:
    """The action column's :func:`_stream`, a define (a plan without one
    runs as ``array``). ``map`` ends early, silently, when a define raises
    StopIteration, which would drop the rest of the window; so the events
    are counted, and a window cut short raises RuntimeError, as a generator
    does (PEP 479)."""
    left = repeat(True, n)
    return chain(compress(_stream(defines, lists, n, column), left),
                 _none_left(left))


def _none_left(left: Iterator) -> Iterator:
    if length_hint(left):
        raise RuntimeError("a define raised StopIteration")
    yield from ()


# The indexed inner loops, the same for both source modes: ``entries``
# indexes the window's values (BULK) or the slot's entries (PER_ENTRY).

def _count_window(n: int, entries: range, read, passes) -> int:
    if passes is None:
        return n + len(entries)
    for e in entries:
        if passes(e):
            n += 1
    return n


def _sum_window(acc: float, entries: range, read, passes) -> float:
    if passes is None:
        for e in entries:
            acc += read(e)
    else:
        for e in entries:
            if passes(e):
                acc += read(e)
    return acc


def _hist_window(lo: float, hi: float, width: float, bins: int,
                 counts: list, entries: range, read, passes) -> list:
    for e in entries:
        if passes is not None and not passes(e):
            continue
        v = read(e)
        if lo <= v < hi:
            counts[_hist_scalar(v, lo, width, bins)] += 1
    return counts


# The streaming inner loops of a BULK window without filters: one value of
# the action column per event, in entry order.

def _sum_stream(acc: float, values: Iterator) -> float:
    for v in values:
        acc += v
    return acc


def _hist_stream(lo: float, hi: float, width: float, bins: int,
                 counts: list, values: Iterator) -> list:
    for v in values:
        if lo <= v < hi:
            counts[_hist_scalar(v, lo, width, bins)] += 1
    return counts


# The array inner loops of a BULK plan with no node: whole-basket kernels
# over a slot's basket views, with the results of the loops above.

def _sum_array(acc: float, views: Iterator[np.ndarray]) -> float:
    """``acc += v`` over every value of every view, in order. Per basket,
    ``np.add.accumulate`` over ``[acc, *view]`` in float64 makes each prefix
    the one before plus the next value, so its last is exactly that fold
    (numpy's pairwise summation would not be). Like Python's float
    additions, it overflows to infinity and makes NaN without a warning."""
    buf = np.empty(0)
    with np.errstate(over="ignore", invalid="ignore"):  # once per slot
        for view in views:
            n = len(view) + 1
            if len(buf) < n:
                buf = np.empty(n)
            part = buf[:n]
            part[0] = acc
            part[1:] = view
            acc = float(np.add.accumulate(part, out=part)[-1])
    return acc


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
    """``(lo, hi, width, bins)`` of a histogram; ValueError if empty."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not hi > lo:
        raise ValueError("need hi > lo")
    return lo, hi, (hi - lo) / bins, bins


def direct_count(source: DataSource) -> int:
    """Event count straight from the source (no frame dispatch)."""
    return sum(stop - start for start, stop in source.slot_ranges)


def direct_sum(source: DataSource, column: str) -> float:
    """Float64 sum of every element of a numeric column (scalar or array),
    reduced basket-by-basket over source buffers."""
    _check_column(source, column, arrays=True)
    total = 0.0
    for slot in range(source.n_slots):
        acc = 0.0
        for view in source.blocks(column, slot):
            acc += float(np.sum(view, dtype=np.float64))
        total += acc
    return total


def direct_histogram(source: DataSource, column: str, bins: int,
                     lo: float, hi: float) -> np.ndarray:
    """Histogram reduced basket-by-basket; bit-identical to the frame action."""
    binning = _binning(bins, lo, hi)
    _check_column(source, column)
    with closing(source.blocks(column)) as views:
        return np.asarray(_hist_array(*binning, [0] * bins, views), dtype=np.int64)
