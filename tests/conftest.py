"""Shared fixtures and value generators for the test suite."""

from __future__ import annotations

import dataclasses

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
