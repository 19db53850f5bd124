"""writer: the one conversion rule, written as a slow per-element oracle
and compared by hypothesis with every way fill and extend take values.

The rule: a branch takes only real numbers, that is Python or numpy bools,
ints and floats. An integer branch takes a float that is finite and in
[min, max + 1), truncating its fraction, and an int exactly or not at all.
A float branch takes each number as Python's float() makes it, then
rounded to its type; a finite value past F32's range is rejected, while
NaN and the infinities pass. BOOL takes each number's truth. Every
container of the same values, written in every way, gets the same verdict
and, when accepted, the same bytes.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bulkio import (
    ElementType,
    ShapeError,
    TreeWriter,
    fixed_array,
    scalar,
    var_array,
)

from conftest import ALL_TYPES

REJECT = "reject"
REAL = (int, float, np.bool_, np.integer, np.floating)
# the least float64 that rounds to an F32 infinity
F32_OVERFLOW = 2.0**128 - 2.0**103


def oracle(value, etype):
    """The element value the rule writes for one value on a branch of
    etype, or REJECT."""
    if not isinstance(value, REAL):
        return REJECT
    if isinstance(value, np.floating):
        value = float(value)
    elif isinstance(value, np.generic):
        value = value.item()
    if etype is ElementType.BOOL:
        return bool(value)
    dtype = np.dtype(etype.np_native)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        # Python compares ints and floats exactly, and NaN fails both tests
        return int(value) if info.min <= value < info.max + 1 else REJECT
    try:
        x = float(value)
    except OverflowError:
        return REJECT
    if dtype.itemsize == 4 and math.isfinite(x) and abs(x) >= F32_OVERFLOW:
        return REJECT
    return x


def test_oracle_edges():
    """The oracle itself, at the edges the rule names."""
    assert oracle(-0.5, ElementType.U8) is REJECT
    assert oracle(255.5, ElementType.U8) == 255
    assert oracle(-128.5, ElementType.I8) is REJECT
    assert oracle(-127.5, ElementType.I8) == -127
    assert oracle(2**64, ElementType.U64) is REJECT
    assert oracle(2.0**64, ElementType.U64) is REJECT
    assert oracle(2**64 - 1, ElementType.U64) == 2**64 - 1
    assert oracle(math.nan, ElementType.I32) is REJECT
    assert oracle(math.nan, ElementType.BOOL) is True
    assert oracle(2**1024, ElementType.F64) is REJECT
    assert oracle(2**1024, ElementType.BOOL) is True
    assert oracle(1e300, ElementType.F32) is REJECT
    assert oracle(1e300, ElementType.F64) == 1e300
    assert oracle(math.inf, ElementType.F32) == math.inf
    for bad in (1 + 2j, np.complex128(1), "1", b"1", None, Decimal(1),
                Fraction(1, 2)):
        assert oracle(bad, ElementType.F64) is REJECT


# --- the values and their containers ---

# every numeric dtype, long double and complex among them
TYPED = ["?", "i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8", "f2", "f4",
         "f8", "g", "c16"]


def _edges(etype):
    """Values at the rule's edges for etype, of every kind it names."""
    out = [math.nan, math.inf, -math.inf, 2**64, -2**64, 2**1024, 2**63 + 1,
           1e300, -1e300, F32_OVERFLOW, np.nextafter(F32_OVERFLOW, 0.0),
           0.5, -0.5, -0.0, 0, 1, True, False, 1 + 2j, np.complex128(1),
           "1", b"1", None, Decimal(1), Fraction(1, 2), np.float32(-0.5),
           np.float64(1e300), np.int64(-1), np.uint64(2**64 - 1)]
    dtype = np.dtype(etype.np_native)
    if dtype.kind in "iu":
        info = np.iinfo(dtype)
        lo, hi = info.min, info.max
        out += [lo, hi, lo - 1, hi + 1, lo - 0.5, hi + 0.5, float(lo),
                float(hi), np.nextafter(float(lo), -math.inf),
                np.nextafter(float(hi) + 1, 0.0), dtype.type(hi)]
    return out


def _loose(etype):
    """One element as a Python object: an edge, a Python number of any
    size, or a numpy scalar."""
    numpy_scalars = st.sampled_from(TYPED).flatmap(
        lambda d: hnp.from_dtype(np.dtype(d)))
    return st.one_of(st.sampled_from(_edges(etype)), st.integers(),
                     st.floats(), st.booleans(), numpy_scalars)


def _object_array(items):
    arr = np.empty(len(items), dtype=object)
    arr[:] = items
    return arr


def _containers(elements):
    """(name, container) pairs holding the elements in Python containers."""
    return [("list", list(elements)), ("tuple", tuple(elements)),
            ("object-array", _object_array(list(elements)))]


def _array_containers(arr):
    """(name, container) pairs holding a 1-D array's values: the array,
    big-endian, strided, numpy scalars loose or in an object array, and
    Python numbers."""
    out = [("array", arr), ("strided", np.repeat(arr, 2)[::2]),
           ("numpy-scalars", list(arr)),
           ("object-array", _object_array(list(arr))),
           ("python", arr.tolist())]
    if arr.dtype.itemsize > 1:
        out.append(("big-endian", arr.astype(arr.dtype.newbyteorder(">"))))
    return out


# --- writing them every way ---

SHAPES = {"scalar": scalar(), "var": var_array()}


def _schema(etype, shape_name, k):
    shape = fixed_array(k) if shape_name == "fixed" else SHAPES[shape_name]
    return [("x", etype, shape)]


def _reference(path, etype, shape_name, values):
    """The file of values, written from an array of the native dtype."""
    arr = np.array(values, dtype=etype.np_native)
    with TreeWriter(path, _schema(etype, shape_name, len(arr))) as w:
        if shape_name == "scalar":
            w.extend(x=arr)
        elif shape_name == "fixed":
            w.extend(x=arr.reshape(1, -1))
        else:
            w.extend(x=(arr, [len(arr)]))
    return path.read_bytes()


def _ways(shape_name, c):
    """Each way to write container c: (label, call on a writer)."""
    if shape_name == "scalar":
        return [("extend", lambda w: w.extend(x=c))]
    ways = [("fill", lambda w: w.fill(x=c)),
            ("extend-rows", lambda w: w.extend(x=[c]))]
    if shape_name == "var":
        ways.append(("extend-flat", lambda w: w.extend(x=(c, [len(c)]))))
    if shape_name == "fixed" and isinstance(c, np.ndarray):
        ways.append(("extend-2d", lambda w: w.extend(x=c[None, :])))
    return ways


def check_rule(tmp, etype, elements, containers):
    """Every container of elements, written every way, gets the oracle's
    verdict and, when accepted, the reference's bytes."""
    expect = [oracle(e, etype) for e in elements]
    rejected = REJECT in expect
    refs = {} if rejected else {
        s: _reference(tmp / f"ref-{s}.bkio", etype, s, expect)
        for s in ("scalar", "fixed", "var")}
    path = tmp / "out.bkio"
    for name, c in containers:
        for shape_name in ("scalar", "fixed", "var"):
            for label, call in _ways(shape_name, c):
                schema = _schema(etype, shape_name, len(elements))
                with TreeWriter(path, schema) as w:
                    if rejected:
                        with pytest.raises(ShapeError):
                            call(w)
                        assert w.n_entries == 0, (name, label)
                    else:
                        call(w)
                if not rejected:
                    assert path.read_bytes() == refs[shape_name], (
                        name, shape_name, label)
        if isinstance(c, list):  # fill its elements one scalar at a time
            _check_scalar_fills(path, etype, c, refs)


def _check_scalar_fills(path, etype, items, refs):
    """fill rejects a non-real scalar when called; one that does not fit
    fails the writer when its basket is sealed."""
    w = TreeWriter(path, [("x", etype, scalar())])
    kept = []
    for e in items:
        if isinstance(e, REAL):
            w.fill(x=e)
            kept.append(e)
        else:
            with pytest.raises(ShapeError):
                w.fill(x=e)
    if any(oracle(e, etype) is REJECT for e in kept):
        with pytest.raises(ShapeError):
            w.close()
    else:
        w.close()
        if len(kept) == len(items):
            assert path.read_bytes() == refs["scalar"]


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(data=st.data(), etype=st.sampled_from(ALL_TYPES))
def test_rule_holds_for_python_containers(tmp_path, data, etype):
    elements = data.draw(st.lists(_loose(etype), min_size=1, max_size=4))
    check_rule(tmp_path, etype, elements, _containers(elements))


@SETTINGS
@given(data=st.data(), etype=st.sampled_from(ALL_TYPES),
       dtype=st.sampled_from(TYPED))
def test_rule_holds_for_numpy_arrays(tmp_path, data, etype, dtype):
    arr = data.draw(hnp.arrays(np.dtype(dtype), st.integers(1, 4)))
    check_rule(tmp_path, etype, list(arr), _array_containers(arr))


@pytest.mark.parametrize("etype,elements", [
    (ElementType.F32, [1.0, 1 + 2j]),
    (ElementType.I32, [np.complex128(1 + 2j)]),
    (ElementType.F32, np.array([1 + 2j])),
    (ElementType.F32, [1e300]),
    (ElementType.F32, [2**200]),
    (ElementType.F32, np.array([1e300, 1.0])),
    (ElementType.U8, [-0.5, 1]),
    (ElementType.U8, [np.float32(-0.5)]),
    (ElementType.U8, np.array([-0.5], dtype="f4")),
    (ElementType.I8, [-128.5]),
    (ElementType.I16, np.array([-32768.5, 0.0])),
    (ElementType.U8, np.array([1.5, -0.25, 7.0], dtype=np.longdouble)),
], ids=["complex-list", "complex-numpy", "complex-array", "past-f32",
        "int-past-f32", "array-past-f32", "fraction-below-u8",
        "numpy-fraction-below-u8", "array-fraction-below-u8",
        "fraction-below-i8", "array-fraction-below-i16", "long-double"])
def test_rule_at_its_edges(tmp_path, etype, elements):
    """The rule's edges: complex input, finite values past F32's range,
    fractions in (min - 1, min), and long doubles, in every container."""
    if isinstance(elements, np.ndarray):
        check_rule(tmp_path, etype, list(elements), _array_containers(elements))
    else:
        check_rule(tmp_path, etype, elements, _containers(elements))


def _python_numbers(etype):
    """One element as a Python int, float or bool, edges among them."""
    edges = [e for e in _edges(etype) if type(e) in (int, float, bool)]
    return st.one_of(st.sampled_from(edges), st.integers(), st.floats(),
                     st.booleans())


@SETTINGS
@given(data=st.data(), etype=st.sampled_from(ALL_TYPES))
def test_list_rows_convert_as_row_by_row(tmp_path, data, etype):
    """extend converts var rows that are all lists of Python numbers as one
    joined list. Its verdict and bytes are those of converting row by row:
    tuple rows take that path, and so does fill. Rows of up to 96 values
    cross F32's packing threshold both ways."""
    rows = data.draw(st.lists(st.lists(_python_numbers(etype), max_size=12),
                              max_size=8))
    rejected = any(oracle(e, etype) is REJECT for row in rows for e in row)
    ways = [("list-rows", lambda w: w.extend(x=rows)),
            ("tuple-rows", lambda w: w.extend(x=[tuple(r) for r in rows])),
            ("fill", lambda w: [w.fill(x=r) for r in rows])]
    written = []
    for label, call in ways:
        path = tmp_path / f"{label}.bkio"
        with TreeWriter(path, [("x", etype, var_array())]) as w:
            if rejected:
                with pytest.raises(ShapeError):
                    call(w)
                if label != "fill":  # fill appends the rows before a bad one
                    assert w.n_entries == 0, label
            else:
                call(w)
        written.append(path.read_bytes())
    if not rejected:
        assert written[0] == written[1] == written[2]
