"""The paper's seven read loops, rebuilt from the public bulkio API.

Each path is a generator function ``path(target, tracer)`` making one pass
over the file. It opens its readers and yields ``None`` once (the harness
starts no clock before that), then yields ``(basket, events, value)`` after
each step: ``value`` is the float64 sum of the elements it read in that
step, ``basket`` the index of the basket they came from, or -1 when one
step covers the whole file. It returns ``(total, counters)``.

Steps are baskets, or whole passes for the calls that read the whole file
at once (``Frame.sum``, ``direct_sum``). The per-event loops add
``[(events, seconds), ...]`` as a fourth element: timings of their parts,
``PART`` events each, in the same order on every pass, so the harness can
compare each part with the same part of other passes. Spans mark the calls
into a layer; per-event calls get one span per basket's worth of events.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from time import perf_counter

import numpy as np

from bulkio import (
    BulkBuffer,
    CountBuffer,
    ElementType,
    EventReader,
    FastEventReader,
    Frame,
    SourceMode,
    TreeFile,
    direct_sum,
    make_source,
)
from workloads import PART

WHOLE_FILE = -1


@dataclass(frozen=True)
class Target:
    """What a pass reads: ``column`` (``is_var``: an I32 var array)."""

    file: str
    column: str
    is_var: bool
    n_slots: int

    @property
    def etype(self) -> ElementType:
        return ElementType.I32 if self.is_var else ElementType.F32


class IteratorEnded(Exception):
    """An event loop stopped at another entry than the file's last."""


def _timed_elem_sum(chunk: int):
    """Per-event ``Frame.define`` function: the float64 sum of the event's
    elements. It also times every ``chunk`` calls into ``parts``."""
    parts = []
    n = 0
    t = perf_counter()
    npsum, f8 = np.sum, np.float64

    def elem_sum(a) -> float:
        nonlocal n, t
        n += 1
        if n == chunk:
            now = perf_counter()
            parts.append((n, now - t))
            n, t = 0, now
        return float(npsum(a, dtype=f8))

    def start() -> None:
        nonlocal n, t
        n, t = 0, perf_counter()

    def finish() -> list:
        if n:
            parts.append((n, perf_counter() - t))
        return parts

    return elem_sum, start, finish


def _fetch_counters(readers) -> dict:
    """Baskets fetched against baskets present, and the bytes that took."""
    fetched = needed = 0
    nbytes = 0.0
    for rd in readers:
        sizes = [b.compressed_size for b in rd.descriptor.baskets]
        fetched += rd.baskets_read
        needed += len(sizes)
        nbytes += rd.baskets_read * sum(sizes) / max(len(sizes), 1)
    return {"baskets_read": fetched, "baskets_needed": needed,
            "bytes_read": nbytes}


def _baskets_needed(file: str, columns) -> int:
    with TreeFile(file) as tf:
        return sum(len(tf.branch(c).descriptor.baskets) for c in columns)


def _parts(first: int, end: int):
    """Entry ranges of ``PART`` events covering [first, end)."""
    return [(lo, min(lo + PART, end)) for lo in range(first, end, PART)]


def get_entry(t: Target, tr):
    with TreeFile(t.file) as tf:
        rd = tf.branch(t.column)
        bounds = [_parts(b.first_entry, b.first_entry + b.n_entries)
                  for b in rd.descriptor.baskets]
        ge = rd.get_entry
        npsum, f8 = np.sum, np.float64
        yield None
        total = 0.0
        for i, ranges in enumerate(bounds):
            s = 0.0
            parts = []
            with tr.span("reader.get_entry"):
                for lo, hi in ranges:
                    t0 = perf_counter()
                    if t.is_var:
                        for e in range(lo, hi):
                            s += float(npsum(ge(e), dtype=f8))
                    else:
                        for e in range(lo, hi):
                            s += ge(e)
                    parts.append((hi - lo, perf_counter() - t0))
            total += s
            yield i, ranges[-1][1] - ranges[0][0], s, parts
        readers = [rd, rd.count_reader] if t.is_var else [rd]
        return total, _fetch_counters(readers)


def bulk(t: Target, tr):
    with TreeFile(t.file) as tf:
        rd = tf.branch(t.column)
        n = rd.n_entries
        buf = BulkBuffer()
        read = rd.get_bulk_entries
        yield None
        total = 0.0
        entry = i = 0
        while entry < n:
            with tr.span("reader.get_bulk_entries"):
                got = read(entry, buf)
            s = float(np.sum(buf.as_array(), dtype=np.float64))
            total += s
            yield i, got, s
            entry += got
            i += 1
        return total, {}


def reader(t: Target, tr):
    with TreeFile(t.file) as tf:
        events = EventReader(tf)
        attach = events.attach_array if t.is_var else events.attach_value
        proxy = attach(t.column, t.etype)
        sizes = [[min(PART, b.n_entries - k) for k in range(0, b.n_entries, PART)]
                 for b in tf.branch(t.column).descriptor.baskets]
        advance = events.next
        deref = proxy.deref
        npsum, f8 = np.sum, np.float64
        yield None
        total = 0.0
        for i, part_sizes in enumerate(sizes):
            s = 0.0
            parts = []
            with tr.span("iterator.next_deref"):
                for size in part_sizes:
                    t0 = perf_counter()
                    if t.is_var:
                        for _ in repeat(None, size):
                            if not advance():
                                raise IteratorEnded(f"ended early at {events.cursor}")
                            s += float(npsum(deref(), dtype=f8))
                    else:
                        for _ in repeat(None, size):
                            if not advance():
                                raise IteratorEnded(f"ended early at {events.cursor}")
                            s += deref()
                    parts.append((size, perf_counter() - t0))
            total += s
            yield i, sum(part_sizes), s, parts
        if advance():
            raise IteratorEnded("EventReader ran past the last entry")
        return total, {}


def fast_reader(t: Target, tr):
    with TreeFile(t.file) as tf:
        events = FastEventReader(tf)
        attach = events.attach_array if t.is_var else events.attach_value
        proxy = attach(t.column, t.etype)
        n_baskets = len(tf.branch(t.column).descriptor.baskets)
        advance = events.next_block
        block = proxy.block
        yield None
        total = 0.0
        i = 0
        while True:
            with tr.span("iterator.next_block"):
                got = advance()
            if not got:
                return total, {"refills": proxy.refill_count, "baskets": n_baskets}
            s = float(np.sum(block(), dtype=np.float64))
            total += s
            yield i, got, s
            i += 1


def rdf(mode: SourceMode, t: Target, tr):
    needed = _baskets_needed(t.file, [t.column, f"{t.column}.count"]
                             if t.is_var else [t.column])
    with make_source(t.file, mode=mode, n_slots=t.n_slots) as src:
        frame = Frame(src)
        column = t.column
        if t.is_var:
            # Frame.sum takes scalars only; sum each event's elements first.
            # The per-event function times every PART calls.
            elem_sum, start, finish = _timed_elem_sum(PART)
            frame = frame.define("elem_sum", elem_sum, [t.column])
            column = "elem_sum"
        yield None
        if t.is_var:
            start()
        with tr.span("dataframe.sum"):
            total = float(frame.sum(column))
        if t.is_var:
            yield WHOLE_FILE, src.n_entries, total, finish()
        else:
            yield WHOLE_FILE, src.n_entries, total
        return total, {"baskets_read": src.baskets_read, "baskets_needed": needed}


def rds_bulk(column: str, t: Target, tr):
    needed = _baskets_needed(t.file, [column])
    with make_source(t.file, mode=SourceMode.BULK, n_slots=t.n_slots) as src:
        yield None
        with tr.span("dataframe.direct_sum"):
            total = float(direct_sum(src, column))
        yield WHOLE_FILE, src.n_entries, total
        return total, {"baskets_read": src.baskets_read, "baskets_needed": needed}


# --- traced-only probes of single layers ---

def serialized(t: Target, tr):
    """get_entries_serialized per basket: what fast-reader and rds-bulk call."""
    with TreeFile(t.file) as tf:
        rd = tf.branch(t.column)
        n = rd.n_entries
        buf = BulkBuffer()
        cbuf = CountBuffer() if t.is_var else None
        read = rd.get_entries_serialized
        yield None
        total = 0.0
        entry = i = 0
        while entry < n:
            with tr.span("reader.get_entries_serialized"):
                got = read(entry, buf, cbuf)
            s = float(np.sum(buf.as_array(), dtype=np.float64))
            total += s
            yield i, got, s
            entry += got
            i += 1
        return total, {}


def blocks(column: str, t: Target, tr):
    """DataSource.blocks per basket: the seam direct_sum reduces over."""
    with make_source(t.file, mode=SourceMode.BULK, n_slots=t.n_slots) as src:
        it = src.blocks(column)
        yield None
        total = 0.0
        i = 0
        while True:
            with tr.span("dataframe.blocks"):
                view = next(it, None)
            if view is None:
                return total, {}
            s = float(np.sum(view, dtype=np.float64))
            total += s
            yield i, len(view), s
            i += 1


def rds_column(t: Target) -> str:
    """Column rds-bulk is timed on.

    ``direct_sum`` rejects array columns (a known defect), so on a var-array
    file it is timed on the scalar count branch; the harness still calls it
    on the array column every cycle and reports how often it raised.
    """
    return f"{t.column}.count" if t.is_var else t.column


def paths(t: Target) -> dict:
    """Path name -> (pass generator function, column it sums), paper order."""
    rds = rds_column(t)
    return {
        "get-entry": (get_entry, t.column),
        "bulk": (bulk, t.column),
        "reader": (reader, t.column),
        "fast-reader": (fast_reader, t.column),
        "rdf-standard": (partial(rdf, SourceMode.PER_ENTRY), t.column),
        "rdf-bulk": (partial(rdf, SourceMode.BULK), t.column),
        "rds-bulk": (partial(rds_bulk, rds), rds),
    }


def probes(t: Target) -> dict:
    """Traced-only single-layer passes, in the same form as :func:`paths`."""
    rds = rds_column(t)
    return {
        "probe-serialized": (serialized, t.column),
        "probe-blocks": (partial(blocks, rds), rds),
    }
