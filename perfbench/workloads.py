"""The three workloads: seeded inputs, the writer job, and read-back checks.

Every value is a seeded random integer in [0, 2^24). Such values are exact
in float32, and any float64 sum of a few million of them is exact too, so
each read path's checksum must equal the numpy sum of the inputs bit for
bit, whatever order it adds in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from bulkio import (
    BulkBuffer,
    Codec,
    ElementType,
    TreeFile,
    TreeWriter,
    scalar,
    var_array,
)

VALUE_RANGE = 1 << 24
MAX_VAR_LEN = 7
CAPACITY = 8192
# Events per timed part of a per-event loop, and per fill step.
PART = 1024


@dataclass(frozen=True)
class Workload:
    """One input set; :meth:`scaled` shrinks it for the self-test."""

    name: str
    has_x: bool            # F32 scalar branch "x"
    has_v: bool            # I32 var-array branch "v" (count branch "v.count")
    n_extend: int          # events written with TreeWriter.extend ...
    extend_chunk: int      # ... in calls of this many events
    n_fill: int            # events then written with TreeWriter.fill
    codec: Codec
    slots: str             # "one" or "nproc": DataSource n_slots
    setup_writes: bool     # the read paths scan a file written in set-up
    description: str

    @property
    def read_column(self) -> str:
        """Column the seven read paths sum (elements, for a var array)."""
        return "x" if self.has_x else "v"

    @property
    def n_slots(self) -> int:
        return len(os.sched_getaffinity(0)) if self.slots == "nproc" else 1

    def scaled(self, scale: float) -> "Workload":
        if scale == 1.0:
            return self
        baskets = max(1, round(self.n_extend * scale / CAPACITY))
        n_extend = baskets * CAPACITY
        n_fill = max(1, round(self.n_fill * scale))
        chunk = min(self.extend_chunk, n_extend)
        return Workload(self.name, self.has_x, self.has_v, n_extend, chunk,
                        n_fill, self.codec, self.slots, self.setup_writes,
                        self.description)


WORKLOADS = {w.name: w for w in [
    # The paper's own set-up: pread, byteswap and Python dispatch, no inflate.
    # 4 baskets rather than the paper's 10M events: Frame.sum reads the whole
    # file in one call, and that call must stay short (see README.md).
    Workload("scan-scalar", True, False, 2 * CAPACITY, CAPACITY,
             2 * CAPACITY, Codec.NONE, "one", True,
             "4 baskets x 8192 events of one F32 scalar, codec none"),
    # Bound by inflate and count-branch work; mmap would be bypassed here.
    # 2 baskets, for the same reason as scan-scalar's 4: here every event
    # costs about 5 us, so a pass over 2 baskets already takes 80 ms.
    Workload("scan-var-deflate", False, True, CAPACITY, CAPACITY,
             CAPACITY, Codec.DEFLATE, "nproc", True,
             "2 baskets x 8192 events of an I32 var array, DEFLATE"),
    # Unaligned extend chunks take the writer's list-based pending path.
    Workload("write-mixed", True, True, 40_000, 5000, CAPACITY,
             Codec.DEFLATE, "one", False,
             "extend 40k events in chunks of 5000, then fill 8192, DEFLATE"),
]}


def _span_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """float64 sums of values[bounds[i]:bounds[i+1]] (exact: integer data)."""
    prefix = np.zeros(len(values) + 1, dtype=np.float64)
    np.cumsum(values, dtype=np.float64, out=prefix[1:])
    return np.diff(prefix[bounds])


class Inputs:
    """Seeded column data for one workload, plus its expected sums."""

    def __init__(self, wl: Workload, seed: int):
        rng = np.random.default_rng(seed)
        self.n = n = wl.n_extend + wl.n_fill
        self.x = (rng.integers(0, VALUE_RANGE, n).astype("f4")
                  if wl.has_x else None)
        if wl.has_v:
            self.counts = rng.integers(0, MAX_VAR_LEN + 1, n).astype("u4")
            self.offsets = np.zeros(n + 1, dtype="i8")
            np.cumsum(self.counts, out=self.offsets[1:])
            self.v = rng.integers(0, VALUE_RANGE, int(self.offsets[-1]),
                                  dtype="i4")
        else:
            self.counts = self.offsets = self.v = None
        # column -> float64 sum of each basket's elements, and of all of them
        starts = np.arange(0, n + CAPACITY, CAPACITY).clip(max=n)
        self.basket_sums = {}
        if self.x is not None:
            self.basket_sums["x"] = _span_sums(self.x, starts)
        if self.v is not None:
            self.basket_sums["v"] = _span_sums(self.v, self.offsets[starts])
            self.basket_sums["v.count"] = _span_sums(self.counts, starts)
        self.expected = {c: float(np.sum(s)) for c, s in self.basket_sums.items()}
        # keyword rows for fill(), built here so the timed loop only calls
        self.fill_rows = [self._row(i) for i in range(wl.n_extend, n)]

    def _row(self, i: int) -> dict:
        row = {}
        if self.x is not None:
            row["x"] = float(self.x[i])
        if self.v is not None:
            row["v"] = self.v[self.offsets[i]:self.offsets[i + 1]]
        return row

    def columns(self, lo: int, hi: int) -> dict:
        """extend() keyword arguments for events [lo, hi)."""
        cols = {}
        if self.x is not None:
            cols["x"] = self.x[lo:hi]
        if self.v is not None:
            o = self.offsets
            cols["v"] = (self.v[o[lo]:o[hi]], self.counts[lo:hi])
        return cols

    @property
    def user_bytes(self) -> int:
        """Native bytes of the values the user handed to the writer."""
        total = 0
        if self.x is not None:
            total += self.x.nbytes
        if self.v is not None:
            total += self.v.nbytes
        return total


def schema(wl: Workload) -> list:
    out = []
    if wl.has_x:
        out.append(("x", ElementType.F32, scalar()))
    if wl.has_v:
        out.append(("v", ElementType.I32, var_array()))
    return out


def write_steps(wl: Workload, inputs: Inputs, path: str, tracer):
    """The workload's writer job, one ``extend`` call or ``PART`` ``fill``
    calls per step: extend in chunks, fill the rest, close.

    Yields ``(kind, events)`` after each step; returns the bytes written.
    """
    with TreeWriter(path, schema(wl), basket_capacity_entries=CAPACITY,
                    codec=wl.codec) as w:
        for lo in range(0, wl.n_extend, wl.extend_chunk):
            hi = min(lo + wl.extend_chunk, wl.n_extend)
            cols = inputs.columns(lo, hi)
            with tracer.span("writer.extend"):
                w.extend(**cols)
            yield "extend", hi - lo
        fill = w.fill
        rows = inputs.fill_rows
        for lo in range(0, len(rows), PART):
            chunk = rows[lo:lo + PART]
            with tracer.span("writer.fill"):
                for row in chunk:
                    fill(**row)
            yield "fill", len(chunk)
        with tracer.span("writer.close"):
            stats = w.close()
        yield "close", 0
    return stats.bytes_written


class Mismatch(Exception):
    """A file read back differs from the inputs written into it."""


def _check_column(tf: TreeFile, name: str, want: np.ndarray) -> None:
    """Compare a branch with its inputs basket by basket."""
    rd = tf.branch(name)
    buf = BulkBuffer()
    entry = done = 0
    while entry < rd.n_entries:
        entry += rd.get_bulk_entries(entry, buf)
        got = buf.as_array()
        if got.dtype != want.dtype or not np.array_equal(got, want[done:done + len(got)]):
            raise Mismatch(f"branch {name!r} differs from its inputs near entry {entry}")
        done += len(got)
    if done != len(want):
        raise Mismatch(f"branch {name!r} holds {done} elements, wrote {len(want)}")


def verify_file(path: str, inputs: Inputs) -> None:
    """Read every branch back in bulk and compare it to the inputs."""
    with TreeFile(path) as tf:
        if tf.n_entries != inputs.n:
            raise Mismatch(f"{path}: {tf.n_entries} entries, wrote {inputs.n}")
        checks = []
        if inputs.x is not None:
            checks.append(("x", inputs.x))
        if inputs.v is not None:
            checks += [("v", inputs.v), ("v.count", inputs.counts)]
        for name, want in checks:
            _check_column(tf, name, want)
