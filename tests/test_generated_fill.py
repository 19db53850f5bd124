"""The writer's generated ``fill`` against the checked method it stands for.

``TreeWriter.__init__`` binds ``self.fill`` to straight-line code made for
the schema's shape; ``TreeWriter.fill`` stays the checked reference. Fed
the same calls, the two must raise the same errors, count the same entries
and write byte-identical files.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bulkio import (
    ElementType,
    SchemaError,
    ShapeError,
    TreeWriter,
    WriterClosed,
    fixed_array,
    scalar,
    var_array,
)
from bulkio.writer import _fill_maker

from conftest import int_bounds

# names no identifier could be, and names of the generated code's own
# variables: neither may reach its source text
NAMES = st.one_of(
    st.sampled_from(["a.b", "class", "x y", "ü", "it's", 'say "hi"', "b\\s",
                     "1x", "a\nb", "n0", "v0", "a1", "values", "w", "entry",
                     "checked", "fill", "capacity", "number_types"]),
    st.text(min_size=1, max_size=4),
)
SHARED = "shared.n"

NUMPY_SCALAR_TYPES = [np.bool_, np.int8, np.uint8, np.int16, np.uint32,
                      np.int64, np.uint64, np.float16, np.float32, np.float64,
                      np.longdouble]
BAD = [None, "7", b"7", bytearray(b"7"), complex(1, 1), np.complex64(1),
       object(), {1: 2}, np.str_("7")]


def _number(etype):
    """Mostly values every type takes, sometimes ones some types reject."""
    lo, hi = int_bounds(etype) if etype in _INTS else (-(2**70), 2**70)
    return st.one_of(
        st.integers(0, 100),
        st.integers(0, 100).map(float),
        st.booleans(),
        st.tuples(st.sampled_from(NUMPY_SCALAR_TYPES), st.integers(0, 100))
        .map(lambda t: t[0](t[1])),
        st.integers(lo - 2, hi + 2),
        st.sampled_from([float("nan"), float("inf"), -0.5, 1e300, -1e300,
                         2**64, -(2**63) - 1, 2.0**63, 3.4e38, 3.5e38]),
    )


_INTS = [t for t in ElementType
         if t not in (ElementType.BOOL, ElementType.F32, ElementType.F64)]

ROW_DTYPES = ["f8", "f4", "i8", "u1", ">i4", "<u2", "?"]


@st.composite
def _scalar_value(draw, etype):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from(BAD))
    if kind == 1:
        return draw(st.sampled_from([[1], (1,), np.array([1.0]), np.array(1)]))
    return draw(_number(etype))


@st.composite
def _row_value(draw, etype, n):
    kind = draw(st.integers(0, 11))
    if kind == 0:
        return draw(st.sampled_from(BAD + [5, 2.5, [[1], [2]], [None] * n]))
    if kind == 1:  # another length
        n = draw(st.integers(0, 4))
    values = draw(st.lists(_number(etype), min_size=n, max_size=n))
    container = draw(st.integers(0, 4))
    if container == 0:
        return values
    if container == 1:
        return tuple(values)
    if container == 2:
        return np.array([0] * n, dtype=etype.np_native) + draw(
            st.integers(0, 1))
    try:
        with np.errstate(all="ignore"):
            return np.array(values).astype(draw(st.sampled_from(ROW_DTYPES)))
    except (OverflowError, ValueError, TypeError):
        return values


@st.composite
def _schemas(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    schema = []
    for name in names:
        etype = draw(st.sampled_from(list(ElementType)))
        shape = draw(st.sampled_from(["scalar", "fixed", "var", "shared"]))
        if shape == "scalar":
            schema.append((name, etype, scalar()))
        elif shape == "fixed":
            schema.append((name, etype, fixed_array(draw(st.integers(1, 3)))))
        else:
            schema.append((name, etype, var_array(
                SHARED if shape == "shared" else None)))
    return schema


@st.composite
def _event(draw, schema):
    row = {}
    shared_len = draw(st.integers(0, 3))
    for name, etype, shape in schema:
        if shape.kind.name == "SCALAR":
            row[name] = draw(_scalar_value(etype))
        elif shape.kind.name == "FIXED_ARRAY":
            row[name] = draw(_row_value(etype, shape.fixed_len))
        else:
            n = shared_len if shape.count_name else draw(st.integers(0, 3))
            row[name] = draw(_row_value(etype, n))
    keys = draw(st.integers(0, 14))
    if keys == 0:
        del row[draw(st.sampled_from(sorted(row)))]
    elif keys == 1:
        row[draw(NAMES)] = 1
    elif keys == 2:
        counts = [s.count_name or f"{n}.count" for n, _, s in schema
                  if s.kind.name == "VAR_ARRAY"]
        if counts:
            row[draw(st.sampled_from(counts))] = 1
    return row


def _outcome(call):
    try:
        return "returned", call()
    except Exception as exc:  # compared, type and message, with the method's
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data(), schema=_schemas(), capacity=st.integers(1, 4))
def test_generated_fill_matches_the_checked_method(tmp_path_factory, data,
                                                   schema, capacity):
    tmp = tmp_path_factory.mktemp("fill")
    try:
        fast = TreeWriter(tmp / "fast.bkio", schema,
                          basket_capacity_entries=capacity)
    except SchemaError:  # a name taken by a managed count branch
        assume(False)
    checked = TreeWriter(tmp / "checked.bkio", schema,
                         basket_capacity_entries=capacity)
    assert "fill" in vars(fast)
    events = data.draw(st.lists(_event(schema), max_size=12), label="events")
    for row in events:
        got = _outcome(lambda: fast.fill(**row))
        want = _outcome(lambda: TreeWriter.fill(checked, **row))
        assert got == want
        assert fast.n_entries == checked.n_entries
    assert _outcome(fast.close) == _outcome(checked.close)
    assert (tmp / "fast.bkio").read_bytes() == (tmp / "checked.bkio").read_bytes()


def _writer(path, schema=(("x", ElementType.U8, scalar()),), **kw):
    return TreeWriter(path, list(schema), **kw)


def test_writers_of_one_shape_compile_once(tmp_path):
    # a shape no other test builds: scalar, array, array, scalar x 5
    schema = [("s", ElementType.F64, scalar()),
              ("f", ElementType.I16, fixed_array(2)),
              ("v", ElementType.F32, var_array())] + [
        (f"t{i}", ElementType(i + 1), scalar()) for i in range(5)]
    before = _fill_maker.cache_info()
    writers = [_writer(tmp_path / f"{i}.bkio", schema) for i in range(20)]
    after = _fill_maker.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 19
    assert len({w.fill.__code__ for w in writers}) == 1
    assert writers[0].fill is not writers[1].fill  # each holds its writer
    # the other element types and names reuse the same code
    other = [(f"o{i}", ElementType.BOOL, s) for i, (_, _, s) in enumerate(schema)]
    w = _writer(tmp_path / "other.bkio", other)
    assert _fill_maker.cache_info().misses == after.misses
    assert w.fill.__code__ is writers[0].fill.__code__
    for w in writers + [w]:
        w.close()


def test_generated_fill_looks_like_the_method(tmp_path):
    with _writer(tmp_path / "x.bkio") as w:
        assert w.fill.__name__ == TreeWriter.fill.__name__ == "fill"
        assert w.fill.__doc__ == TreeWriter.fill.__doc__
        assert "generated once per schema shape" in w.fill.__doc__


def test_a_subclass_keeps_its_fill_override(tmp_path):
    class Counting(TreeWriter):
        def fill(self, **values):
            self.calls = getattr(self, "calls", 0) + 1
            return super().fill(**values)

    class Plain(TreeWriter):
        pass

    with Counting(tmp_path / "c.bkio", [("x", ElementType.U8, scalar())]) as w:
        assert "fill" not in vars(w)
        assert w.fill(x=1) == 0 and w.fill(x=2) == 1
        assert w.calls == 2
    with Plain(tmp_path / "p.bkio", [("x", ElementType.U8, scalar())]) as w:
        assert "fill" in vars(w)
        assert w.fill(x=1) == 0


def test_a_closed_writer_fill_raises_writer_closed(tmp_path):
    w = _writer(tmp_path / "x.bkio")
    held = w.fill
    assert held(x=1) == 0
    w.close()
    assert "fill" not in vars(w)
    for fill in (w.fill, held):
        with pytest.raises(WriterClosed, match="writer already closed"):
            fill(x=1)
    assert w.n_entries == 1


def test_an_abandoned_writer_fill_raises_writer_closed(tmp_path):
    w = _writer(tmp_path / "x.bkio", basket_capacity_entries=2)
    held = w.fill
    assert held(x=300) == 0  # a real number: found when sealed
    with pytest.raises(ShapeError, match="do not fit U8"):
        held(x=1)  # fills the basket, whose seal fails the writer
    assert "fill" not in vars(w)
    for fill in (w.fill, held):
        with pytest.raises(WriterClosed, match="writer already closed"):
            fill(x=1)
    with pytest.raises(WriterClosed):
        w.close()


def test_closing_ends_the_writer_fill_cycle(tmp_path):
    """The generated fill holds its writer; once closed, the writer is
    freed by reference counting alone."""
    w = _writer(tmp_path / "x.bkio")
    w.fill(x=1)
    w.close()
    ref = weakref.ref(w)
    del w
    assert ref() is None
