"""writer: schema handling, basket layout, determinism, round trips."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bulkio import (
    BulkBuffer,
    BulkIOError,
    Codec,
    ElementType,
    SchemaError,
    ShapeError,
    ShapeKind,
    TreeFile,
    TreeWriter,
    WriterClosed,
    fixed_array,
    read_footer,
    scalar,
    var_array,
)

from conftest import (
    ALL_TYPES,
    assert_three_way_roundtrip,
    make_events,
    random_elements,
    write_events,
)


def test_create_single_branch(tmp_path):
    w = TreeWriter(tmp_path / "a.bkio", [("x", ElementType.F32, scalar())])
    assert w.branch_names == ["x"]
    w.close()


def test_var_branch_gets_auto_count(tmp_path):
    path = tmp_path / "v.bkio"
    with TreeWriter(path, [("v", ElementType.F32, var_array())]) as w:
        w.fill(v=[1.0])
    footer = read_footer(path)
    assert [b.name for b in footer.branches] == ["v", "v.count"]
    v = footer.branches[0]
    assert v.shape.kind is ShapeKind.VAR_ARRAY
    assert v.shape.count_branch == 1
    assert footer.branches[1].element is ElementType.U32


def test_explicit_count_name_shared(tmp_path):
    path = tmp_path / "shared.bkio"
    schema = [("a", ElementType.F32, var_array(count_name="n")),
              ("b", ElementType.I32, var_array(count_name="n"))]
    with TreeWriter(path, schema) as w:
        w.fill(a=[1.0, 2.0], b=[3, 4])
        with pytest.raises(ShapeError):
            w.fill(a=[1.0], b=[3, 4])  # shared count must agree
        w.fill(a=[], b=[])
    footer = read_footer(path)
    assert [b.name for b in footer.branches] == ["a", "b", "n"]
    assert footer.branches[0].shape.count_branch == 2
    assert footer.branches[1].shape.count_branch == 2


def test_duplicate_branch_name_rejected(tmp_path):
    with pytest.raises(SchemaError):
        TreeWriter(tmp_path / "d.bkio", [("x", ElementType.F32, scalar()),
                                         ("x", ElementType.F64, scalar())])


def test_count_name_collision_rejected(tmp_path):
    with pytest.raises(SchemaError):
        TreeWriter(tmp_path / "c.bkio",
                   [("v.count", ElementType.U32, scalar()),
                    ("v", ElementType.F32, var_array())])


def test_empty_schema_rejected(tmp_path):
    with pytest.raises(SchemaError):
        TreeWriter(tmp_path / "e.bkio", [])


def test_fill_returns_sequential_indices(tmp_path):
    with TreeWriter(tmp_path / "s.bkio",
                    [("x", ElementType.F32, scalar())]) as w:
        assert w.fill(x=1.5) == 0
        assert w.fill(x=2.5) == 1
        assert w.fill(x=3.5) == 2


def test_basket_layout_100_fills_capacity_32(tmp_path):
    path = tmp_path / "b.bkio"
    with TreeWriter(path, [("x", ElementType.F32, scalar())],
                    basket_capacity_entries=32) as w:
        for i in range(100):
            w.fill(x=float(i))
    footer = read_footer(path)
    sizes = [b.n_entries for b in footer.branches[0].baskets]
    assert sizes == [32, 32, 32, 4]
    firsts = [b.first_entry for b in footer.branches[0].baskets]
    assert firsts == [0, 32, 64, 96]


def test_fixed_array_arity_checked(tmp_path):
    with TreeWriter(tmp_path / "f.bkio",
                    [("a", ElementType.F32, fixed_array(4))]) as w:
        w.fill(a=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ShapeError):
            w.fill(a=[1.0, 2.0, 3.0])


def test_scalar_branch_rejects_sequence(tmp_path):
    with TreeWriter(tmp_path / "sc.bkio",
                    [("x", ElementType.F32, scalar())]) as w:
        with pytest.raises(ShapeError):
            w.fill(x=[1.0])


def test_fill_arity_mismatches(tmp_path):
    with TreeWriter(tmp_path / "ar.bkio",
                    [("x", ElementType.F32, scalar()),
                     ("v", ElementType.F32, var_array())]) as w:
        with pytest.raises(ShapeError):
            w.fill(x=1.0)  # missing v
        with pytest.raises(ShapeError):
            w.fill(x=1.0, v=[], z=2.0)  # unknown branch
        with pytest.raises(ShapeError):
            w.fill(x=1.0, v=[], **{"v.count": 0})  # count is writer-managed


def test_close_empty_file_valid(tmp_path):
    path = tmp_path / "empty.bkio"
    stats = TreeWriter(path, [("x", ElementType.F32, scalar())]).close()
    assert stats.n_entries == 0
    assert stats.n_baskets == 0
    footer = read_footer(path)
    assert footer.n_entries == 0
    assert footer.branches[0].baskets == []


def test_unwritable_path_raises_write_error(tmp_path):
    from bulkio import WriteError
    with pytest.raises(WriteError):
        TreeWriter(tmp_path / "no" / "such" / "dir" / "x.bkio",
                   [("x", ElementType.F32, scalar())])


def test_close_twice_raises(tmp_path):
    w = TreeWriter(tmp_path / "t.bkio", [("x", ElementType.F32, scalar())])
    w.close()
    with pytest.raises(WriterClosed):
        w.close()
    with pytest.raises(WriterClosed):
        w.fill(x=1.0)


def test_close_stats(tmp_path):
    path = tmp_path / "st.bkio"
    w = TreeWriter(path, [("x", ElementType.F32, scalar())],
                   basket_capacity_entries=32)
    for i in range(100):
        w.fill(x=float(i))
    stats = w.close()
    assert stats.n_entries == 100
    assert stats.n_baskets == 4
    assert stats.bytes_written == path.stat().st_size


def test_byte_determinism(tmp_path):
    paths = [tmp_path / "d1.bkio", tmp_path / "d2.bkio"]
    for p in paths:
        with TreeWriter(p, [("x", ElementType.I32, scalar()),
                            ("v", ElementType.F64, var_array())],
                        basket_capacity_entries=7) as w:
            for i in range(40):
                w.fill(x=i - 20, v=[float(j) for j in range(i % 4)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_all_branches_share_basket_boundaries(tmp_path):
    path = tmp_path / "align.bkio"
    with TreeWriter(path, [("x", ElementType.F32, scalar()),
                           ("a", ElementType.I16, fixed_array(3)),
                           ("v", ElementType.U64, var_array())],
                    basket_capacity_entries=16) as w:
        for i in range(50):
            w.fill(x=float(i), a=[i, i + 1, i + 2], v=[i] * (i % 5))
    footer = read_footer(path)
    spans = [[(b.first_entry, b.n_entries) for b in br.baskets]
             for br in footer.branches]
    assert all(s == spans[0] for s in spans)


def test_extend_matches_fill(tmp_path, rng):
    p1, p2 = tmp_path / "x1.bkio", tmp_path / "x2.bkio"
    n = 77
    xs = rng.standard_normal(n).astype("f4")
    fix = rng.standard_normal((n, 2)).astype("f4")
    counts = rng.integers(0, 5, size=n).astype("u4")
    flat = rng.standard_normal(int(counts.sum())).astype("f4")
    schema = [("x", ElementType.F32, scalar()),
              ("a", ElementType.F32, fixed_array(2)),
              ("v", ElementType.F32, var_array())]
    with TreeWriter(p1, schema, basket_capacity_entries=16) as w:
        w.extend(x=xs, a=fix, v=(flat, counts))
    offs = np.concatenate(([0], np.cumsum(counts.astype("i8"))))
    with TreeWriter(p2, schema, basket_capacity_entries=16) as w:
        for i in range(n):
            w.fill(x=float(xs[i]), a=fix[i],
                   v=flat[offs[i]:offs[i + 1]])
    assert p1.read_bytes() == p2.read_bytes()


def test_extend_var_counts_consistency_checked(tmp_path):
    with TreeWriter(tmp_path / "vc.bkio",
                    [("v", ElementType.F32, var_array())]) as w:
        with pytest.raises(ShapeError):
            w.extend(v=(np.zeros(3, "f4"), np.array([1, 3], "u4")))


@pytest.mark.parametrize("etype", ALL_TYPES, ids=lambda t: t.name)
@pytest.mark.parametrize("shape_name", ["scalar", "fixed", "var"])
def test_roundtrip_every_type_and_shape(tmp_path, rng, etype, shape_name):
    shape = {"scalar": scalar(), "fixed": fixed_array(3),
             "var": var_array()}[shape_name]
    events = make_events(rng, etype, shape, 50)
    path = tmp_path / f"{etype.name}_{shape_name}.bkio"
    write_events(path, etype, shape, events, capacity=7, codec=Codec.DEFLATE)
    assert_three_way_roundtrip(path, etype, shape, events)


def _read_all(path, name="x"):
    with TreeFile(path) as tf:
        rd = tf.branch(name)
        return [rd.get_entry(i) for i in range(rd.n_entries)]


def _extend_args(etype, shape, events):
    """extend() input for a run of fill() events."""
    native = etype.np_native
    if shape.kind is ShapeKind.SCALAR:
        return np.asarray(events, dtype=native)
    if shape.kind is ShapeKind.FIXED_ARRAY:
        return np.stack(events).astype(native)
    counts = np.array([len(r) for r in events], dtype="u4")
    return (np.concatenate(events).astype(native), counts)


CAP = 8


@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("etype", ALL_TYPES, ids=lambda t: t.name)
@pytest.mark.parametrize("shape_name", ["scalar", "fixed", "var"])
def test_fill_and_extend_write_identical_files(tmp_path, rng, etype,
                                               shape_name, codec):
    shape = {"scalar": scalar(), "fixed": fixed_array(3),
             "var": var_array()}[shape_name]
    n = 50
    events = make_events(rng, etype, shape, n)
    ref = tmp_path / "fill.bkio"
    write_events(ref, etype, shape, events, capacity=CAP, codec=codec)
    # plans of (how, number of events): extend in every chunk size around
    # the capacity, and fills and extends alternating inside one basket
    plans = {f"extend{k}": [("extend", k)] * -(-n // k)
             for k in (1, 3, CAP - 1, CAP, CAP + 1, int(2.5 * CAP))}
    plans["mixed"] = [("fill", 2), ("extend", 3), ("fill", 1),
                      ("extend", 5), ("extend", 1)] * n
    for label, plan in plans.items():
        path = tmp_path / f"{label}.bkio"
        with TreeWriter(path, [("x", etype, shape)],
                        basket_capacity_entries=CAP, codec=codec) as w:
            lo = 0
            for how, k in plan:
                part = events[lo:lo + k]
                if not part:
                    break
                if how == "fill":
                    for v in part:
                        w.fill(x=v)
                else:
                    w.extend(x=_extend_args(etype, shape, part))
                lo += len(part)
        assert path.read_bytes() == ref.read_bytes(), label


@pytest.mark.parametrize("shape", [fixed_array(2), var_array()],
                         ids=["fixed", "var"])
def test_fill_copies_a_reused_buffer(tmp_path, shape):
    path = tmp_path / "reuse.bkio"
    buf = np.zeros(2, dtype="i4")
    with TreeWriter(path, [("x", ElementType.I32, shape)]) as w:
        for i in range(4):
            buf[:] = i
            w.fill(x=buf)
    assert [list(v) for v in _read_all(path)] == [[i, i] for i in range(4)]


def test_extend_copies_its_inputs(tmp_path):
    path = tmp_path / "mutate.bkio"
    schema = [("x", ElementType.F32, scalar()),
              ("a", ElementType.I32, fixed_array(2)),
              ("v", ElementType.I32, var_array())]
    xs = np.arange(5, dtype="f4")
    fix = np.arange(10, dtype="i4").reshape(5, 2)
    flat = np.arange(7, dtype="i4")
    counts = np.array([1, 2, 0, 3, 1], dtype="u4")
    want = [xs.copy(), fix.copy(), flat.copy()]
    with TreeWriter(path, schema, basket_capacity_entries=4) as w:
        w.extend(x=xs, a=fix, v=(flat, counts))  # one full basket, one open
        for arr in (xs, fix, flat):
            arr[...] = -1
    offs = np.concatenate(([0], np.cumsum(counts))).astype(int)
    assert _read_all(path, "x") == want[0].tolist()
    assert np.array_equal(np.array(_read_all(path, "a")), want[1])
    got = _read_all(path, "v")
    for i in range(5):
        assert np.array_equal(got[i], want[2][offs[i]:offs[i + 1]])


@pytest.mark.parametrize("chunk", [3, 4], ids=["unaligned", "aligned"])
@pytest.mark.parametrize("shape", [scalar(), fixed_array(1), var_array()],
                         ids=["scalar", "fixed", "var"])
def test_extend_rejects_out_of_range_integers(tmp_path, chunk, shape):
    path = tmp_path / "range.bkio"
    with TreeWriter(path, [("x", ElementType.I16, shape)],
                    basket_capacity_entries=4) as w:
        good = np.arange(chunk, dtype="i4")
        bad = good.copy()
        bad[-1] = 70000
        args = {ShapeKind.SCALAR: lambda a: a,
                ShapeKind.FIXED_ARRAY: lambda a: a.reshape(-1, 1),
                ShapeKind.VAR_ARRAY: lambda a: (a, np.ones(len(a), "u4"))}
        to_arg = args[shape.kind]
        w.extend(x=to_arg(good))
        with pytest.raises(ShapeError, match="I16"):
            w.extend(x=to_arg(bad))
        assert w.n_entries == chunk  # nothing of the bad call was appended
        w.extend(x=to_arg(good))
    assert len(_read_all(path)) == 2 * chunk


def test_extend_range_check_bounds(tmp_path):
    path = tmp_path / "bounds.bkio"
    schema = [("a", ElementType.U32, scalar()), ("b", ElementType.I64, scalar())]
    with TreeWriter(path, schema, basket_capacity_entries=4) as w:
        w.extend(a=np.array([0, 2**32 - 1], dtype="u8"),
                 b=np.array([2**63 - 1, 0], dtype="u8"))
        with pytest.raises(ShapeError):
            w.extend(a=np.array([-1, 0], dtype="i8"), b=np.zeros(2, "i8"))
        with pytest.raises(ShapeError):
            w.extend(a=np.zeros(2, "u4"), b=np.array([2**63, 0], dtype="u8"))
    assert _read_all(path, "a") == [0, 2**32 - 1]
    assert _read_all(path, "b") == [2**63 - 1, 0]


@pytest.mark.parametrize("shape", [fixed_array(1), var_array()],
                         ids=["fixed", "var"])
def test_fill_rejects_out_of_range_array_values(tmp_path, shape):
    path = tmp_path / "fill_range.bkio"
    with TreeWriter(path, [("x", ElementType.I16, shape)]) as w:
        with pytest.raises(ShapeError):
            w.fill(x=np.array([70000], dtype="i4"))
        with pytest.raises(ShapeError):
            w.fill(x=[70000])
        w.fill(x=[7])
    assert [list(v) for v in _read_all(path)] == [[7]]


def test_fill_out_of_range_scalar_fails_before_any_basket_write(tmp_path):
    path = tmp_path / "fill_scalar.bkio"
    schema = [("a", ElementType.F32, scalar()), ("b", ElementType.I16, scalar())]
    w = TreeWriter(path, schema, basket_capacity_entries=2)
    w.fill(a=1.0, b=70000)
    with pytest.raises(BulkIOError):
        w.fill(a=2.0, b=1)  # completes the basket, whose "b" cannot encode
    assert path.stat().st_size == 8  # header only: "a" was not written either
    with pytest.raises(WriterClosed):
        w.close()


BIG = 2**63 + 1  # inferred as float64 (rounded to 2**63) next to small ints


@pytest.mark.parametrize("shape,column,expect", [
    (scalar(), [BIG, 1], [BIG, 1]),
    (fixed_array(2), [[BIG, 1], [3, 2**64 - 1]], [[BIG, 1], [3, 2**64 - 1]]),
    (var_array(), [[BIG, 1], [5]], [[BIG, 1], [5]]),
    (var_array(), ([BIG, 1, 5], [2, 1]), [[BIG, 1], [5]]),
])
def test_extend_keeps_u64_sequences_exact(tmp_path, shape, column, expect):
    path = tmp_path / "u64.bkio"
    with TreeWriter(path, [("x", ElementType.U64, shape)]) as w:
        w.extend(x=column)
    with TreeFile(path) as tf:
        rd = tf.branch("x")
        got = [rd.get_entry(i) for i in range(rd.n_entries)]
    if shape.kind is ShapeKind.SCALAR:
        assert got == expect
    else:
        assert [g.tolist() for g in got] == expect


@pytest.mark.parametrize("etype,shape,column", [
    (ElementType.U64, scalar(), [2**64, 1]),
    (ElementType.U64, scalar(), [-1, BIG]),
    (ElementType.I64, scalar(), [2**63, 1]),
    (ElementType.U64, fixed_array(2), [[BIG, 1], [-1, 0]]),
    (ElementType.U64, var_array(), [[BIG, 1], [2**64]]),
    (ElementType.U64, var_array(), ([BIG, -1], [1, 1])),
    (ElementType.I32, scalar(), [1e20, 1]),
])
def test_extend_rejects_sequences_that_do_not_fit(tmp_path, etype, shape, column):
    with TreeWriter(tmp_path / "bad.bkio", [("x", etype, shape)]) as w:
        with pytest.raises(ShapeError):
            w.extend(x=column)
        assert w.n_entries == 0


UNSIGNED = [ElementType.U8, ElementType.U16, ElementType.U32, ElementType.U64]


@pytest.mark.parametrize("etype", UNSIGNED, ids=lambda t: t.name)
@pytest.mark.parametrize("value", [np.int64(-1), np.float64(1e20),
                                   np.float64("nan"), -1, 1e20],
                         ids=["np.int64(-1)", "np.float64(1e20)", "np.nan",
                              "-1", "1e20"])
def test_fill_rejects_numpy_scalars_that_do_not_fit(tmp_path, etype, value):
    """Numpy scalars are range-checked like the equal Python values."""
    path = tmp_path / "np_scalar.bkio"
    w = TreeWriter(path, [("x", etype, scalar())], basket_capacity_entries=2)
    w.fill(x=value)  # a filled scalar is checked when its basket is sealed
    with pytest.raises(ShapeError):
        w.fill(x=1)
    assert path.stat().st_size == 8
    with pytest.raises(WriterClosed):
        w.close()


def test_fill_rejects_numpy_scalars_too_large_for_the_type(tmp_path):
    for etype, big in ((ElementType.U8, np.uint16(256)),
                       (ElementType.U16, np.uint32(1 << 16)),
                       (ElementType.U32, np.uint64(1 << 32)),
                       (ElementType.U64, np.float64(2.0**64))):
        w = TreeWriter(tmp_path / f"{etype.name}.bkio", [("x", etype, scalar())])
        w.fill(x=big)
        with pytest.raises(ShapeError):
            w.close()


def test_fill_rejects_numpy_scalars_in_array_values(tmp_path):
    with TreeWriter(tmp_path / "a.bkio",
                    [("a", ElementType.U32, fixed_array(2))]) as w:
        with pytest.raises(ShapeError):
            w.fill(a=[np.int64(-1), 1])
        w.fill(a=[np.int64(4), 1])


@pytest.mark.parametrize("etype", UNSIGNED, ids=lambda t: t.name)
def test_in_range_numpy_scalars_write_the_same_bytes(tmp_path, etype):
    top = (1 << (8 * etype.width_bytes)) - 1
    values = [0, 1, 7, top // 2, top - 1, top]
    as_numpy = [np.int64(0), np.uint8(1), np.float64(7.0),
                np.uint64(top // 2), np.dtype(etype.np_native).type(top - 1),
                np.uint64(top)]
    paths = []
    for name, column in (("py", values), ("np", as_numpy)):
        path = tmp_path / f"{name}.bkio"
        with TreeWriter(path, [("x", etype, scalar()),
                               ("a", etype, fixed_array(2))],
                        basket_capacity_entries=4) as w:
            for v in column:
                w.fill(x=v, a=[v, v])
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with TreeFile(paths[1]) as tf:
        assert [tf.branch("x").get_entry(i) for i in range(6)] == values


INTEGER_TYPES = [ElementType.I8, ElementType.U8, ElementType.I16, ElementType.U16,
                 ElementType.I32, ElementType.U32, ElementType.I64, ElementType.U64]


def _float_bounds(etype):
    """(the float below the type's min, the first float past its max, the
    largest whole float it holds): float(info.max) rounds up past the max of
    the 64-bit types."""
    info = np.iinfo(etype.np_native)
    top = float(info.max) + 1
    return (np.nextafter(float(info.min), -np.inf), top,
            min(float(info.max), np.nextafter(top, 0.0)))


@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE], ids=["none", "deflate"])
@pytest.mark.parametrize("etype", INTEGER_TYPES, ids=lambda t: t.name)
def test_extend_rejects_floats_that_do_not_fit(tmp_path, etype, codec):
    below, top, _ = _float_bounds(etype)
    with TreeWriter(tmp_path / "f.bkio", [("x", etype, scalar()),
                                          ("a", etype, fixed_array(2)),
                                          ("v", etype, var_array())],
                    codec=codec) as w:
        for bad in ([np.nan, 2.0], [2.0, np.inf], [-np.inf, 1.0], [top, 1.0],
                    [below, 1.0], [1.0, np.nan]):
            col = np.array(bad)
            for x, a, v in ((col, np.ones((2, 2)), (np.ones(2), [1, 1])),
                            (np.ones(2), np.stack([col, col], axis=1),
                             (np.ones(2), [1, 1])),
                            (np.ones(2), np.ones((2, 2)), (col, [1, 1]))):
                with pytest.raises(ShapeError, match=etype.name):
                    w.extend(x=x, a=a, v=v)
            # fill: the same values in a list, as Python or numpy numbers
            for row in (col.tolist(), list(col)):
                for a, v in ((row, [1.0]), ([1.0, 1.0], row)):
                    with pytest.raises(ShapeError, match=etype.name):
                        w.fill(x=1, a=a, v=v)
        assert w.n_entries == 0
    # a filled scalar is checked when its basket is sealed
    for bad in (np.nan, np.inf, top, below):
        for value in (float(bad), np.float64(bad), np.float32(bad)):
            if np.isfinite(value) and float(value) != float(bad):
                continue  # float32 rounds it into range
            w = TreeWriter(tmp_path / "s.bkio", [("x", etype, scalar())])
            w.fill(x=value)
            with pytest.raises(ShapeError, match=etype.name):
                w.close()


def test_f32_rejects_finite_values_past_its_range(tmp_path):
    """A finite value that would overflow F32 raises ShapeError, in every
    container; NaN and the infinities are written as they are."""
    path = tmp_path / "f32.bkio"
    schema = [("x", ElementType.F32, scalar()), ("a", ElementType.F32, var_array())]
    with TreeWriter(path, schema) as w:
        for x, a in ((1.0, [1e300]), (1.0, np.array([-1e300])),
                     (1.0, [np.float64(1e300)]), (1.0, [2**200])):
            with pytest.raises(ShapeError, match="F32"):
                w.fill(x=x, a=a)
        for x, a in ((np.array([1e300]), ([1.0], [1])), ([1e300], ([1.0], [1])),
                     (np.ones(1), (np.array([1e300]), [1]))):
            with pytest.raises(ShapeError, match="F32"):
                w.extend(x=x, a=a)
        w.fill(x=np.nan, a=[np.inf, -np.inf, 3.4e38])
        w.extend(x=np.array([np.inf]), a=([np.nan], [1]))
    got = [np.float32(v) for v in _read_all(path, "x")]
    assert np.isnan(got[0]) and got[1] == np.inf
    for value in (1e300, np.float64(-1e300), 2**200):
        w = TreeWriter(tmp_path / "s.bkio", [("x", ElementType.F32, scalar())])
        w.fill(x=value)  # a filled scalar is checked when its basket is sealed
        with pytest.raises(ShapeError, match="F32"):
            w.close()


def test_f32_conversions_of_short_and_long_inputs_agree(tmp_path):
    """An F32 branch converts up to 32 wider floats with struct and longer
    inputs with numpy's cast: both give the same bits, signed zeros,
    subnormals and NaN payloads (signalling ones too) included, print no
    warning, and reject the same values."""
    limit = 2.0**128 - 2.0**103  # the least float64 F32 rounds to infinity
    rng = np.random.default_rng(11)
    wild = rng.integers(0, 2**64, 4000, dtype=np.uint64).view("f8")
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-45, 7e-46, 7.1e-46,
                      np.nextafter(limit, 0), -np.nextafter(limit, 0),
                      np.inf, -np.inf, np.nan, -np.nan, 1 / 3, 3.4e38])
    snan = np.array([0x7FF0000000000001, 0xFFF4000000000000],
                    dtype=np.uint64).view("f8")
    good = np.concatenate([edges, snan,
                           wild[~(np.isfinite(wild) & (abs(wild) >= limit))]])
    path = tmp_path / "f32.bkio"
    with TreeWriter(path, [("x", ElementType.F32, scalar())]) as w:
        for lo in range(0, len(good), 32):
            w.extend(x=good[lo:lo + 32])  # 32 at most: struct
        w.extend(x=good)  # all at once: numpy's cast
        w.extend(x=good[:32].tolist())  # a list of Python floats
        for bad in (limit, -limit, 1e300, 2**200):
            for n in (1, 32, 33):
                with pytest.raises(ShapeError, match="F32"):
                    w.extend(x=[1.0] * (n - 1) + [bad])
                with pytest.raises(ShapeError, match="F32"):
                    w.extend(x=np.array([bad] * n))
    with TreeFile(path) as tf:
        rd, buf, parts, entry = tf.branch("x"), BulkBuffer(), [], 0
        while entry < rd.n_entries:
            entry += rd.get_bulk_entries(entry, buf)
            parts.append(buf.as_array().copy())
    got = np.concatenate(parts)
    n = len(good)
    assert got[:n].view("u4").tolist() == got[n:2 * n].view("u4").tolist()
    assert got[2 * n:].view("u4").tolist() == got[:32].view("u4").tolist()


def test_f4_values_widen_into_f64_branches_bit_for_bit(tmp_path):
    """f4 values, signalling NaNs included, widen into F64 scalar, fixed and
    var branches from every container, print no warning, and are written
    as numpy's own f4 -> f8 cast writes them."""
    f4 = np.array([0x7F800001, 0xFFA00001, 0x7FC00000, 0x3F800000, 0x80000000,
                   0x00000001, 0xFF800000], dtype=np.uint32).view("f4")
    with np.errstate(invalid="ignore"):
        want = f4.astype("f8").view("u8").tolist()
    n = len(f4)
    path = tmp_path / "f64.bkio"
    schema = [("x", ElementType.F64, scalar()),
              ("a", ElementType.F64, fixed_array(n)),
              ("v", ElementType.F64, var_array())]
    with TreeWriter(path, schema, basket_capacity_entries=n) as w:
        rows = np.tile(f4, (n, 1))
        w.extend(x=f4, a=rows, v=(rows.ravel(), np.full(n, n, "u4")))
        w.extend(x=list(f4), a=[list(f4)] * n, v=[list(f4)] * n)
        for value in f4:  # a numpy scalar is converted when its basket seals
            w.fill(x=value, a=f4, v=f4)
    with TreeFile(path) as tf:
        for name, per_event in (("x", 1), ("a", n), ("v", n)):
            rd, buf, parts, entry = tf.branch(name), BulkBuffer(), [], 0
            while entry < rd.n_entries:
                entry += rd.get_bulk_entries(entry, buf)
                parts.append(buf.as_array().copy())
            got = np.concatenate(parts).view("u8").tolist()
            assert len(got) == 3 * n * per_event
            assert got == want * (len(got) // n)


def test_long_double_signalling_nan_widens_without_a_warning(tmp_path):
    """Long doubles go through float64 first; a signalling NaN among them
    is written as numpy's own cast writes it, with no warning."""
    if np.finfo(np.longdouble).nmant != 63:
        pytest.skip("builds an x87 80-bit long double")
    raw = np.zeros((2, np.dtype(np.longdouble).itemsize), np.uint8)
    raw[0, :10] = list((0x7FFF8000000000000001).to_bytes(10, "little"))
    raw[1, :10] = list((0x3FFF8000000000000000).to_bytes(10, "little"))  # 1.0
    ld = raw.view(np.longdouble).ravel()
    with np.errstate(invalid="ignore"):
        want = ld.astype("f8").view("u8").tolist()
    path = tmp_path / "ld.bkio"
    with TreeWriter(path, [("x", ElementType.F64, scalar()),
                           ("y", ElementType.F32, scalar())]) as w:
        w.extend(x=ld, y=ld)
    with TreeFile(path) as tf:
        x, y = tf.branch("x"), tf.branch("y")
        got = [x.get_entry(i) for i in range(2)]
        assert np.array(got).view("u8").tolist() == want
        assert math.isnan(y.get_entry(0)) and y.get_entry(1) == 1.0


@pytest.mark.parametrize("etype,bad", [(ElementType.U32, [np.nan, 2.0]),
                                       (ElementType.U64, [2.0**64, 1.0])],
                         ids=["U32-nan", "U64-2**64"])
def test_extend_float_defects_are_rejected(tmp_path, etype, bad):
    path = tmp_path / "d.bkio"
    with TreeWriter(path, [("x", etype, scalar())]) as w:
        with pytest.raises(ShapeError):
            w.extend(x=np.array(bad))
        w.extend(x=np.array([3.0]))
    assert _read_all(path, "x") == [3]


@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE], ids=["none", "deflate"])
@pytest.mark.parametrize("etype", INTEGER_TYPES, ids=lambda t: t.name)
def test_in_range_floats_write_the_same_bytes_as_integers(tmp_path, etype, codec):
    info = np.iinfo(etype.np_native)
    _, _, last = _float_bounds(etype)
    floats = np.array([float(info.min), 0.0, 1.0, 7.0, last])
    ints = [info.min, 0, 1, 7, int(last)]
    paths = []
    for name, column in (("int", ints), ("float", floats)):
        path = tmp_path / f"{name}.bkio"
        with TreeWriter(path, [("x", etype, scalar())], codec=codec,
                        basket_capacity_entries=3) as w:
            w.extend(x=column)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert _read_all(paths[1], "x") == ints


# --- checks made when fill or extend is called ---

# Rejected fills: for each schema, branch -> bad values for that branch;
# good rows give event i the values _good_row(schema, i).
REJECT_SCHEMAS = {
    "scalar": [("a", ElementType.F32, scalar()), ("b", ElementType.I32, scalar()),
               ("c", ElementType.U8, scalar())],
    "fixed": [("a", ElementType.F32, scalar()),
              ("f", ElementType.I16, fixed_array(2)),
              ("g", ElementType.F64, fixed_array(3))],
    "var": [("a", ElementType.I32, scalar()), ("v", ElementType.F32, var_array()),
            ("w", ElementType.U8, var_array())],
    "shared": [("v", ElementType.F32, var_array(count_name="n")),
               ("a", ElementType.F64, scalar()),
               ("w", ElementType.I16, var_array(count_name="n"))],
}
BAD_VALUES = {
    ShapeKind.SCALAR: [[1.0], (1, 2), np.zeros(1), b"1", "1.5", None,
                       np.str_("1"), 1 + 2j, np.complex128(1 + 2j), object(), {}],
    ShapeKind.FIXED_ARRAY: [1.0, [1, 2, 3, 4], [[1, 2]], "12", b"12",
                            [None, 1], ["1", "2"], np.array(["1", "2"])],
    ShapeKind.VAR_ARRAY: [1.0, "1", b"1", [None], np.array(["1"]), [[1]]],
}


def _bad_values(etype, shape):
    bad = list(BAD_VALUES[shape.kind])
    if shape.kind is not ShapeKind.SCALAR and np.dtype(etype.np_native).kind in "iu":
        bad.append([70000] * max(shape.fixed_len, 1))  # out of range
    if shape.count_name:  # good rows are at most 2 long
        bad.append([1.0] * 5)
    if shape.kind is not ShapeKind.SCALAR:  # arrays of the native dtype too
        native = np.dtype(etype.np_native)
        k = max(shape.fixed_len, 1)
        bad.append(np.zeros((k, 1), native))
        if shape.kind is ShapeKind.FIXED_ARRAY:
            bad.append(np.zeros(k + 1, native))
        if shape.count_name:
            bad.append(np.ones(5, native))
    return bad


def _good_row(schema, i):
    row = {}
    for name, _, shape in schema:
        if shape.kind is ShapeKind.SCALAR:
            row[name] = i
        elif shape.kind is ShapeKind.FIXED_ARRAY:
            row[name] = [i + k for k in range(shape.fixed_len)]
        else:  # every var branch i % 3 long, so shared counts agree
            row[name] = np.arange(i % 3, dtype="i4") + i
    return row


@pytest.mark.parametrize("schema_name", REJECT_SCHEMAS)
def test_rejected_fill_appends_nothing(tmp_path, schema_name):
    """A bad value in any branch position, tried before every good fill,
    leaves n_entries and the file exactly as without the call."""
    schema = REJECT_SCHEMAS[schema_name]
    n = 11
    ref = tmp_path / "ref.bkio"
    with TreeWriter(ref, schema, basket_capacity_entries=4,
                    codec=Codec.DEFLATE) as w:
        for i in range(n):
            w.fill(**_good_row(schema, i))
    tried = 0
    for name, etype, shape in schema:
        for bad in _bad_values(etype, shape):
            path = tmp_path / f"{name}-{tried}.bkio"
            with TreeWriter(path, schema, basket_capacity_entries=4,
                            codec=Codec.DEFLATE) as w:
                for i in range(n):
                    with pytest.raises(ShapeError):
                        w.fill(**{**_good_row(schema, i), name: bad})
                    assert w.n_entries == i
                    w.fill(**_good_row(schema, i))
            assert path.read_bytes() == ref.read_bytes(), (name, bad)
            tried += 1
    assert tried >= 20


@pytest.mark.parametrize("etype", [ElementType.F32, ElementType.I32,
                                   ElementType.U8], ids=lambda t: t.name)
@pytest.mark.parametrize("value", ["1.5", "1", b"1", None, np.str_("1"),
                                   np.bytes_(b"1"), np.datetime64("2020"),
                                   1 + 2j, np.complex128(1 + 2j), object(), {},
                                   Decimal("1"), Fraction(1, 2)],
                         ids=["str-float", "str-int", "bytes", "None", "np.str_",
                              "np.bytes_", "datetime64", "complex",
                              "np.complex128", "object", "dict", "Decimal",
                              "Fraction"])
def test_fill_rejects_non_numbers_when_called(tmp_path, etype, value):
    path = tmp_path / "text.bkio"
    with TreeWriter(path, [("x", etype, scalar())],
                    basket_capacity_entries=2) as w:
        with pytest.raises(ShapeError):
            w.fill(x=value)
        assert w.n_entries == 0
        w.fill(x=1)
        w.fill(x=2)  # seals a basket: nothing of the rejected call is left
    assert _read_all(path) == [1, 2]


@pytest.mark.parametrize("shape", [fixed_array(2), var_array()],
                         ids=["fixed", "var"])
@pytest.mark.parametrize("value", ["12", b"12", ["1", "2"], [None, 1],
                                   np.array(["1", "2"]), np.array([b"1", b"2"]),
                                   np.array([1, None], dtype=object),
                                   np.array([1 + 2j, 1]), [1 + 2j, 1],
                                   [np.complex128(1 + 2j), 1]],
                         ids=["str", "bytes", "str-list", "None-list",
                              "U-array", "S-array", "object-array",
                              "complex-array", "complex-list",
                              "np.complex128-list"])
def test_fill_rejects_non_numeric_arrays(tmp_path, shape, value):
    path = tmp_path / "text.bkio"
    with TreeWriter(path, [("x", ElementType.U8, shape)]) as w:
        with pytest.raises(ShapeError):
            w.fill(x=value)
        assert w.n_entries == 0
        w.fill(x=[1, 2])
    assert [list(v) for v in _read_all(path)] == [[1, 2]]


@pytest.mark.parametrize("shape,column", [
    (scalar(), np.array(["1.5", "2"])),
    (scalar(), ["1.5", "2"]),
    (scalar(), np.array([b"1", b"2"])),
    (scalar(), [None, 1.0]),
    (scalar(), None),
    (scalar(), "12"),
    (fixed_array(1), np.array([["1"], ["2"]])),
    (fixed_array(1), [[None], [1]]),
    (var_array(), (np.array(["1", "2"]), [1, 1])),
    (var_array(), ([None, 1.0], [1, 1])),
    (var_array(), ([1.0, 2.0], ["1", "1"])),
    (var_array(), ["1", "2"]),
    (var_array(), [b"1", b"2"]),
    (var_array(), [[None], [1]]),
    (var_array(), [None, [1]]),
    (var_array(), None),
    (scalar(), [1 + 2j, 1.0]),
    (scalar(), np.array([1 + 2j, 1.0])),
    (fixed_array(1), [[1 + 2j], [1]]),
    (var_array(), ([1 + 2j, 1.0], [1, 1])),
    (var_array(), [[1 + 2j], [1]]),
], ids=["U-array", "str-list", "S-array", "None-list", "None", "str",
        "fixed-U-array", "fixed-None", "var-U-flat", "var-None-flat", "var-U-counts",
        "var-str-rows", "var-bytes-rows", "var-None-in-row", "var-None-row",
        "var-None", "complex-list", "complex-array", "fixed-complex",
        "var-complex-flat", "var-complex-rows"])
@pytest.mark.parametrize("etype", [ElementType.F32, ElementType.I32],
                         ids=lambda t: t.name)
def test_extend_rejects_non_numbers_when_called(tmp_path, etype, shape, column):
    path = tmp_path / "text.bkio"
    with TreeWriter(path, [("x", etype, shape)]) as w:
        with pytest.raises(ShapeError):
            w.extend(x=column)
        assert w.n_entries == 0


def test_python_and_numpy_numbers_fill_the_same_bytes(tmp_path):
    values = [1.5, 2.0, 0.0, 1.0, -3.0, 7.0]
    as_numbers = [np.float32(1.5), np.int64(2), False, True, np.int8(-3),
                  np.float16(7.0)]
    paths = []
    for name, column in (("py", values), ("np", as_numbers)):
        path = tmp_path / f"{name}.bkio"
        with TreeWriter(path, [("x", ElementType.F32, scalar()),
                               ("a", ElementType.F64, fixed_array(1))],
                        basket_capacity_entries=4) as w:
            for v in column:
                w.fill(x=v, a=[v])
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# --- fill's array rows: native-order bytes, swapped once per basket ---

class _Sub(np.ndarray):
    """An ndarray subclass: fill must not take it for a plain array."""


# a dtype that holds every value of the type exactly, other than its own
_OTHER_DTYPE = {
    ElementType.I8: "i2", ElementType.U8: "u2", ElementType.I16: "i4",
    ElementType.U16: "u4", ElementType.I32: "i8", ElementType.U32: "i8",
    ElementType.I64: "O", ElementType.U64: "O", ElementType.F32: "f8",
    ElementType.F64: "O", ElementType.BOOL: "u1",
}


def _containers(etype):
    """Ways to hand fill one row, each taking a native array: a native
    array, a strided view, big-endian, a list, another dtype, a subclass."""
    return [
        lambda r: r,
        lambda r: np.repeat(r, 2)[::2],
        lambda r: r.astype(r.dtype.newbyteorder(">")),
        lambda r: r.tolist(),
        lambda r: r.astype(_OTHER_DTYPE[etype]),
        lambda r: r.view(_Sub),
    ]


def _follower_type(etype):
    return ElementType.I8 if etype is ElementType.F64 else ElementType.F64


def _row_schema(etype, shape_name):
    if shape_name == "fixed":
        return [("x", etype, fixed_array(3))]
    if shape_name == "var":
        return [("x", etype, var_array())]
    # shared: the lead and a follower of another width share one count
    return [("x", etype, var_array(count_name="n")),
            ("y", _follower_type(etype), var_array(count_name="n"))]


@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE],
                         ids=lambda c: c.name)
@pytest.mark.parametrize("shape_name", ["fixed", "var", "shared"])
@pytest.mark.parametrize("etype", ALL_TYPES, ids=lambda t: t.name)
def test_fill_row_containers_write_the_bytes_of_extend(tmp_path, rng, etype,
                                                      shape_name, codec):
    """Rows of every container, mixed inside each basket, write the bytes
    extend writes, for capacities that do not divide the number of events."""
    schema = _row_schema(etype, shape_name)
    n = 50
    shape = schema[0][2]
    events = make_events(rng, etype, shape, n)
    if shape_name == "shared":
        follow = [random_elements(rng, schema[1][1], len(r)) for r in events]
        follow_ways = _containers(schema[1][1])
    ways = _containers(etype)
    if shape_name != "fixed":
        ways.append(lambda r: [] if not len(r) else r)  # empty rows as lists
    for cap in (1, 7, 64):
        ref = tmp_path / f"extend-{cap}.bkio"
        with TreeWriter(ref, schema, basket_capacity_entries=cap,
                        codec=codec) as w:
            cols = {"x": _extend_args(etype, shape, events)}
            if shape_name == "shared":
                cols["y"] = _extend_args(schema[1][1], shape, follow)
            w.extend(**cols)
        path = tmp_path / f"fill-{cap}.bkio"
        with TreeWriter(path, schema, basket_capacity_entries=cap,
                        codec=codec) as w:
            for i, r in enumerate(events):
                way = ways[i % len(ways)]
                row = {"x": way(r)}
                if shape_name == "shared":
                    row["y"] = follow_ways[i % len(follow_ways)](follow[i])
                w.fill(**row)
        assert path.read_bytes() == ref.read_bytes(), cap


@pytest.mark.parametrize("schema_name", ["var", "fixed", "shared"])
def test_fill_rows_are_copied_at_the_call(tmp_path, schema_name):
    """Overwriting every buffer handed to fill, right after each call,
    changes nothing in the file, for arrays of the native dtype too."""
    etype = ElementType.I32
    schema = _row_schema(etype, schema_name)
    rows = [np.arange(3 if schema_name == "fixed" else i % 4, dtype="i4") + i
            for i in range(20)]
    paths = []
    for mutate in (False, True):
        path = tmp_path / f"copy-{mutate}.bkio"
        with TreeWriter(path, schema, basket_capacity_entries=6) as w:
            for r in rows:
                buf = r.copy()
                view = np.repeat(buf, 2)[::2]
                if schema_name == "shared":
                    other = buf.astype("f8")
                    w.fill(x=buf, y=other)
                else:
                    w.fill(x=buf)
                    other = view.base
                    w.fill(x=view)
                if mutate:
                    buf[...] = -7
                    other[...] = -7
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("shape,column", [
    (fixed_array(2), [[1, 2], [3]]),
    (scalar(), [[1], 2]),
    (var_array(), [[[1]], [2]]),
    (var_array(), (np.ones(2), [-1, 3])),
    (var_array(), (np.ones(2), [1.5, 0.5])),
    (var_array(), (np.ones(2), [1.5, 1.5])),
    (var_array(), (np.ones(2), [np.nan, 2])),
    (var_array(), (np.ones(2), [2**70, 2])),
    (var_array(), (np.ones(2), np.array([-1, 3]))),
    (var_array(), (np.ones(1), np.array([0.5, 1.5]))),
    (var_array(), (np.ones(2), np.array([2**32 + 2, 0], dtype="i8"))),
    (var_array(), (np.ones(2), np.array([1 + 1j, 1]))),
    (var_array(), (np.ones(2), [[1], [1]])),
    (var_array(), (np.ones(2), [[1], 1])),
], ids=["fixed-ragged", "scalar-ragged", "var-ragged-values", "negative-count",
        "fractional-counts", "fractional-counts-sum", "nan-count",
        "huge-count", "negative-count-array", "fractional-count-array",
        "count-past-u32", "complex-count", "2d-counts", "ragged-counts"])
def test_extend_rejects_malformed_input_before_appending(tmp_path, shape, column):
    """Ragged sequences and counts that are not whole numbers in the u32
    range raise ShapeError, and the call appends nothing."""
    path = tmp_path / "bad.bkio"
    with TreeWriter(path, [("x", ElementType.F64, shape)],
                    basket_capacity_entries=2) as w:
        with pytest.raises(ShapeError):
            w.extend(x=column)
        assert w.n_entries == 0
    with TreeFile(path) as tf:
        assert tf.n_entries == 0


def test_extend_accepts_whole_float_counts(tmp_path):
    paths = []
    for counts in ([2, 0, 1], [2.0, 0.0, 1.0]):
        path = tmp_path / f"{type(counts[0]).__name__}.bkio"
        with TreeWriter(path, [("v", ElementType.I16, var_array())]) as w:
            w.extend(v=(np.array([4, 5, 6], "i2"), counts))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("etype,shape,column", [
    (ElementType.U32, scalar(), np.array([1, np.nan, 2], dtype=object)),
    (ElementType.F64, scalar(), [2**1024, 1.0, 2.0]),
    (ElementType.F64, scalar(), np.array([2**1024, 1.0, 2.0], dtype=object)),
    (ElementType.U32, fixed_array(1), np.array([[np.nan], [1], [2]], dtype=object)),
    (ElementType.U32, var_array(), (np.array([1, np.nan, 2], dtype=object), [1, 1, 1])),
    (ElementType.F64, var_array(), [[2**1024], [1.0], []]),
], ids=["object-nan", "huge-int-list", "huge-int-object", "fixed-object-nan",
        "var-object-nan", "var-huge-int-rows"])
def test_values_the_branch_cannot_take_append_nothing(tmp_path, etype, shape, column):
    """A value numpy cannot convert to the branch's type raises ShapeError
    before any branch is appended to, in extend and in fill."""
    path = tmp_path / "objects.bkio"
    schema = [("a", ElementType.U32, scalar()), ("x", etype, shape)]
    with TreeWriter(path, schema, basket_capacity_entries=2) as w:
        with pytest.raises(ShapeError):
            w.extend(a=np.arange(3), x=column)
        if shape.kind is not ShapeKind.SCALAR and not isinstance(column, tuple):
            with pytest.raises(ShapeError):
                w.fill(a=0, x=column[0])
        assert w.n_entries == 0
        good = [1] * 3 if shape.kind is ShapeKind.SCALAR else [[1]] * 3
        w.extend(a=np.arange(3), x=_extend_args(etype, shape, good))
    # a stray chunk of the rejected call would make the footer inconsistent
    assert _read_all(path, "a") == [0, 1, 2]
