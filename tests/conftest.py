"""Shared fixtures and value generators for the test suite."""

from __future__ import annotations

import dataclasses
import math
import os
import signal
import time

import numpy as np
import pytest

from bulkio import (
    BranchShape,
    BulkBuffer,
    Codec,
    CountBuffer,
    ElementType,
    ShapeKind,
    TreeFile,
    TreeWriter,
    fixed_array,
    scalar,
    var_array,
)
from bulkio import reader
from bulkio.format import footer_from_bytes, footer_to_bytes

ALL_TYPES = list(ElementType)

_INT_BOUNDS = {
    ElementType.I8: (-(1 << 7), (1 << 7) - 1),
    ElementType.U8: (0, (1 << 8) - 1),
    ElementType.I16: (-(1 << 15), (1 << 15) - 1),
    ElementType.U16: (0, (1 << 16) - 1),
    ElementType.I32: (-(1 << 31), (1 << 31) - 1),
    ElementType.U32: (0, (1 << 32) - 1),
    ElementType.I64: (-(1 << 63), (1 << 63) - 1),
    ElementType.U64: (0, (1 << 64) - 1),
}


def int_bounds(etype: ElementType) -> tuple[int, int]:
    return _INT_BOUNDS[etype]


def pairwise_sum(values) -> float:
    """numpy's pairwise summation of a contiguous float64 array, written
    out in Python over the values as floats: fewer than 8 values add in
    order; up to 128, eight running sums take every eighth value, meet as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))``, and the values
    past the last multiple of 8 add in order; above 128, the two halves,
    cut at a multiple of 8, are summed apart. ``np.add.reduce`` adds the
    result to its identity, +0.0."""
    a = [float(v) for v in values]

    def part(lo: int, n: int) -> float:
        if n < 8:
            res = 0.0
            for v in a[lo:lo + n]:
                res += v
            return res
        if n <= 128:
            r = a[lo:lo + 8]
            i = 8
            while i < n - n % 8:
                r = [x + y for x, y in zip(r, a[lo + i:lo + i + 8])]
                i += 8
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for v in a[lo + i:lo + n]:
                res += v
            return res
        half = n // 2
        half -= half % 8
        return part(lo, half) + part(lo + half, n - half)

    return 0.0 + part(0, len(a))


def column_sum(baskets) -> float:
    """The one float64 sum of a column: each basket's pairwise sum, added
    left to right from +0.0; a NaN total is ``math.nan``."""
    total = 0.0
    for values in baskets:
        total += pairwise_sum(values)
    return math.nan if total != total else total


def random_elements(rng: np.random.Generator, etype: ElementType,
                    n: int) -> np.ndarray:
    """n random elements already exact in the branch's native dtype."""
    if etype is ElementType.BOOL:
        return rng.integers(0, 2, size=n).astype("bool")
    if etype in (ElementType.F32, ElementType.F64):
        vals = (rng.standard_normal(n) * 1000.0).astype(etype.np_native)
        return vals
    lo, hi = _INT_BOUNDS[etype]
    return rng.integers(lo, hi, size=n, endpoint=True,
                        dtype=etype.np_native)


def make_events(rng: np.random.Generator, etype: ElementType,
                shape: BranchShape, n: int) -> list:
    """Per-entry values for fill(): Python scalars or native numpy arrays."""
    if shape.kind is ShapeKind.SCALAR:
        return random_elements(rng, etype, n).tolist()
    if shape.kind is ShapeKind.FIXED_ARRAY:
        flat = random_elements(rng, etype, n * shape.fixed_len)
        return list(flat.reshape(n, shape.fixed_len))
    lengths = rng.integers(0, 6, size=n)
    return [random_elements(rng, etype, int(k)) for k in lengths]


def write_events(path, etype: ElementType, shape: BranchShape, events: list,
                 capacity: int = 32, codec: Codec = Codec.NONE,
                 name: str = "x") -> None:
    with TreeWriter(path, [(name, etype, shape)],
                    basket_capacity_entries=capacity, codec=codec) as w:
        for v in events:
            w.fill(**{name: v})


def assert_three_way_roundtrip(path, etype: ElementType, shape: BranchShape,
                               events: list, name: str = "x") -> None:
    """Read back via all three paths and demand exact equality with events."""
    kind = shape.kind
    with TreeFile(path) as tf:
        rd = tf.branch(name)
        assert rd.n_entries == len(events)
        buf, sbuf, cbuf = BulkBuffer(), BulkBuffer(), CountBuffer()
        entry = 0
        while entry < rd.n_entries:
            got = rd.get_bulk_entries(entry, buf)
            got_s = rd.get_entries_serialized(entry, sbuf, cbuf)
            assert got == got_s
            offsets = cbuf.offsets()
            des = buf.as_array()
            ser = sbuf.as_array()
            for local in range(got):
                expect = events[entry + local]
                via_entry = rd.get_entry(entry + local)
                if kind is ShapeKind.SCALAR:
                    assert via_entry == expect
                    assert buf.value_at(etype, local) == expect
                    assert sbuf.value_at(etype, local) == expect
                else:
                    lo, hi = int(offsets[local]), int(offsets[local + 1])
                    assert np.array_equal(via_entry, expect)
                    assert np.array_equal(des[lo:hi], np.asarray(expect))
                    lazy = ser[lo:hi]
                    if etype is ElementType.BOOL:
                        lazy = lazy.astype("bool")
                    else:
                        lazy = lazy.astype(etype.np_native)
                    assert np.array_equal(lazy, np.asarray(expect))
            entry += got
        assert entry == rd.n_entries


def rewrite_basket(src, out, branch: int, basket: int, **fields):
    """Copy of bulk file ``src`` at ``out`` whose footer changes the given
    fields of one basket descriptor; payload and footer offset unchanged."""
    data = src.read_bytes()
    offset = int.from_bytes(data[-8:], "big")
    footer = footer_from_bytes(data[offset:-8])
    baskets = footer.branches[branch].baskets
    baskets[basket] = dataclasses.replace(baskets[basket], **fields)
    out.write_bytes(data[:offset] + footer_to_bytes(footer) + data[-8:])
    return out


def deflate_bomb(tmp_path, recorded: int = 32 * 1024):
    """A var F32 file whose one deflate basket inflates to 16 MiB of zeros
    (about 16 KiB on disk) while its footer records ``recorded`` bytes."""
    src = tmp_path / "zeros.bkio"
    with TreeWriter(src, [("v", ElementType.F32, var_array())],
                    codec=Codec.DEFLATE) as w:
        w.fill(v=np.zeros(1 << 22, dtype="f4"))
    return rewrite_basket(src, tmp_path / "bomb.bkio", 0, 0,
                          uncompressed_size=recorded)


@pytest.fixture(autouse=True)
def no_read_ahead_outlives_its_file():
    """Fail a test that leaves a read-ahead pending on a closed file, or
    any writer's job on the helper: closing a file must cancel its
    read-aheads or wait for them, and a writer call must end its job."""
    yield
    helper = reader._helper
    with helper._lock:
        jobs = list(helper._jobs)
    left = [job for job in jobs
            if isinstance(job.key, reader._OpenFile) and job.key.fd < 0]
    assert not left, f"{len(left)} read-ahead(s) pending on a closed file"
    writes = [job for job in jobs if isinstance(job.key, TreeWriter)]
    assert not writes, f"{len(writes)} writer job(s) left on the helper"


@pytest.fixture
def jobs(monkeypatch):
    """Every job handed to the helper thread, in order."""
    started = []

    def spy(key, fn, *args):
        job = submit(key, fn, *args)
        started.append(job)
        return job

    submit = reader._helper.submit
    monkeypatch.setattr(reader._helper, "submit", spy)
    return started


def reap(pid: int) -> int:
    """The exit code of forked child ``pid``, killed if it runs 60 s."""
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def ramp_file(tmp_path):
    """100 F32 scalar entries v[i] = i, capacity 32: baskets of 32,32,32,4."""
    path = tmp_path / "ramp.bkio"
    with TreeWriter(path, [("x", ElementType.F32, scalar())],
                    basket_capacity_entries=32) as w:
        for i in range(100):
            w.fill(x=float(i))
    return path


@pytest.fixture
def var_file(tmp_path):
    """Var-array F32 file with events [[1,2],[],[7,8,9]] then a ramp tail."""
    path = tmp_path / "var.bkio"
    with TreeWriter(path, [("v", ElementType.F32, var_array())],
                    basket_capacity_entries=4) as w:
        w.fill(v=[1.0, 2.0])
        w.fill(v=[])
        w.fill(v=[7.0, 8.0, 9.0])
        for i in range(3, 10):
            w.fill(v=[float(i)] * (i % 3))
    return path
