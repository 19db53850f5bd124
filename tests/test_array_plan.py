"""The BULK frame's array plan: whole-basket kernels for plans with no node.

A bare ``sum`` or ``histogram`` of a catalog column in BULK mode has no
Python callable between the basket and the reduction, so the frame reduces
whole baskets with numpy. Its results must be bit for bit those of the
per-event loops (PER_ENTRY, and the BULK indexed plan that a filter forces),
for every slot count and element type.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bulkio import (
    ElementType,
    Frame,
    SourceMode,
    TreeWriter,
    direct_histogram,
    make_source,
    scalar,
)

from conftest import int_bounds

NUMERIC = [t for t in ElementType if t is not ElementType.BOOL]
SLOTS = (1, 2, 3)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(a: float, b: float) -> bool:
    """Bit for bit: ``Frame.sum`` returns ``math.nan`` for any NaN sum."""
    return _bits(a) == _bits(b)


def _canonical(x: float) -> float:
    """A Python fold's result as ``Frame.sum`` returns it. When two NaNs of
    different sign or payload meet in an addition, which one it keeps
    depends on the operand order of the compiled add, and CPython's own
    specialised and generic float additions differ in it."""
    return math.nan if math.isnan(x) else x


def _left_fold(values) -> float:
    acc = 0.0
    for v in values:
        acc += v
    return acc


def test_add_accumulate_is_a_left_fold():
    """The array plan's sum rests on ``np.add.accumulate`` adding strictly
    left to right: each output is the one before plus the next input. A
    numpy that reassociated it, as ``np.sum``'s pairwise summation does,
    would fail here."""
    rng = np.random.default_rng(7)
    cases = [
        np.array([1e16] + [1.0] * 1000),  # pairwise summation keeps the ones
        rng.standard_normal(8193) * 10.0 ** rng.integers(-5, 20, size=8193),
        np.array([2.0**53, 1.0, 1.0, -(2.0**53)] * 50),
    ]
    assert np.sum(cases[0]) != _left_fold(cases[0].tolist())
    for values in cases:
        for start in (0.0, -3.5, 1e19):
            buf = np.concatenate([[start], values])
            acc = start
            for v in values.tolist():
                acc += v
            assert _bits(np.add.accumulate(buf)[-1]) == _bits(acc)
            assert _bits(np.add.accumulate(buf, out=buf)[-1]) == _bits(acc)


def _elements(etype: ElementType):
    if etype is ElementType.F32:
        return st.floats(width=32)
    if etype is ElementType.F64:
        return st.one_of(st.floats(), st.floats(-1e20, 1e20),
                         st.floats(-1e-5, 1e-5))
    lo, hi = int_bounds(etype)
    if etype.width_bytes < 8:
        return st.integers(lo, hi)
    near = [c for c in (2**53, 2**63, 2**64 - 1, -(2**53), -(2**63))
            if lo <= c <= hi]
    return st.one_of(
        st.integers(lo, hi),
        st.sampled_from(near).flatmap(
            lambda c: st.integers(max(lo, c - 9), min(hi, c + 9))))


def _write(path, etype, values, capacity) -> None:
    with TreeWriter(path, [("x", etype, scalar())],
                    basket_capacity_entries=capacity) as w:
        w.extend(x=np.array(values, dtype=etype.np_native))


def _bounds(data, values):
    """(bins, lo, hi): finite bounds near the data, past 2**53 included."""
    anchors = [float(v) for v in values if np.isfinite(float(v))
               and abs(float(v)) < 1e300] + [0.0, float(2**53 + 4)]
    lo = data.draw(st.one_of(st.sampled_from(anchors),
                             st.floats(-1e300, 1e300)), label="lo")
    hi = data.draw(st.one_of(st.sampled_from(anchors),
                             st.floats(-1e300, 1e300)), label="hi")
    lo, hi = min(lo, hi), max(lo, hi)
    assume(hi > lo and (hi - lo) / 8 > 0.0)
    return data.draw(st.integers(1, 8), label="bins"), lo, hi


def _check_plans(path, etype, values, bins, lo, hi) -> None:
    stored = np.array(values, dtype=etype.np_native).tolist()
    for n_slots in SLOTS:
        with make_source(path, mode=SourceMode.PER_ENTRY,
                         n_slots=n_slots) as per_entry, \
                make_source(path, mode=SourceMode.BULK, n_slots=n_slots) as bulk:
            ref = Frame(per_entry)
            indexed = Frame(bulk).filter(lambda x: True, ["x"])
            want_sum = ref.sum("x")
            want_hist = ref.histogram("x", bins, lo, hi).tolist()
            assert _same(Frame(bulk).sum("x"), want_sum)
            assert Frame(bulk).histogram("x", bins, lo, hi).tolist() == want_hist
            assert bulk.plans_run == {"array": 2, "indexed": 0}
            assert _same(indexed.sum("x"), want_sum)
            assert indexed.histogram("x", bins, lo, hi).tolist() == want_hist
            assert direct_histogram(bulk, "x", bins, lo, hi).tolist() == want_hist
            assert bulk.plans_run == {"array": 2, "indexed": 2}
            assert per_entry.plans_run == {"array": 0, "indexed": 2}
            # the oracle: Python's own left fold per slot, slots in order,
            # and Python's own range test
            total = 0.0
            for start, stop in bulk.slot_ranges:
                total += _left_fold(stored[start:stop])
            assert _same(want_sum, _canonical(total))
            assert sum(want_hist) == sum(1 for v in stored if lo <= v < hi)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), etype=st.sampled_from(NUMERIC),
       capacity=st.integers(1, 9))
def test_array_plan_matches_the_per_event_loops(tmp_path_factory, data, etype,
                                                capacity):
    values = data.draw(st.lists(_elements(etype), max_size=40), label="values")
    bins, lo, hi = _bounds(data, values)
    path = tmp_path_factory.mktemp("plan") / "x.bkio"
    _write(path, etype, values, capacity)
    _check_plans(path, etype, values, bins, lo, hi)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("etype,values", [
    (ElementType.F32, [1.0, NAN, 3.0, INF, -INF, 1e-5, 3e38, 3e38, -0.0]),
    (ElementType.F32, [INF, 2.0, -INF, 5.0, 1.0]),
    (ElementType.F64, [1e308, 1e308, -1e308, 1.0, -5e-324]),
    (ElementType.F64, [1e20, 1.0, -1e20, 1e-5, 7.0, 1e-300, 3.0]),
    (ElementType.I64, [-2**63, 2**53 + 1, 1, 2**62 + 3, -5, 2**63 - 1, 2**53 + 3]),
    (ElementType.U64, [2**64 - 1, 2**53 + 1, 1, 2**63 + 3, 2**53 + 3]),
], ids=["f32-nan-inf", "f32-inf-minus-inf", "f64-overflow", "f64-magnitudes",
        "i64-past-2-53", "u64-past-2-53"])
@pytest.mark.parametrize("lo,hi", [(0.0, float(2**53 + 4)), (-1e300, 1e300)])
def test_array_plan_at_its_edges(tmp_path, etype, values, lo, hi):
    """Sums that overflow, or make NaN from opposite infinities, do so
    silently in both loops; values past 2**53 add and bin alike."""
    path = tmp_path / "x.bkio"
    _write(path, etype, values, 3)
    _check_plans(path, etype, values, 4, lo, hi)


@pytest.mark.parametrize("n_slots", [1, 2])
def test_a_nan_sum_is_one_nan_in_every_plan_and_mode(tmp_path, n_slots):
    """``[inf, -inf]`` then ``[nan, 1.0]``: the running sum meets a NaN of
    each sign, and the loops kept different ones (+NaN bare per entry,
    -NaN behind a filter)."""
    path = tmp_path / "x.bkio"
    _write(path, ElementType.F64, [INF, -INF, NAN, 1.0], 2)
    for mode in (SourceMode.PER_ENTRY, SourceMode.BULK):
        with make_source(path, mode=mode, n_slots=n_slots) as src:
            frame = Frame(src)
            sums = [frame.sum("x"),
                    frame.define("y", lambda x: x, ["x"]).sum("y"),
                    frame.filter(lambda x: True, ["x"]).sum("x")]
            assert [_bits(s) for s in sums] == [_bits(math.nan)] * 3
            assert src.plans_run == (
                {"array": 1, "indexed": 2}
                if mode is SourceMode.BULK
                else {"array": 0, "indexed": 3})


@pytest.mark.parametrize("lo,hi", [
    (-INF, 1.0), (0.0, INF), (-INF, INF), (NAN, 1.0), (0.0, NAN),
    (-1e308, 1.5e308), (-1.7e308, 1.7e308), (0.0, 5e-324),
])
def test_histogram_rejects_bounds_without_a_finite_width(tmp_path, lo, hi):
    """One ValueError, before any basket is read, from the frame in both
    modes and from ``direct_histogram``; the span of the last two pairs of
    finite bounds overflows float64, and the last one's width rounds to 0."""
    path = tmp_path / "x.bkio"
    _write(path, ElementType.F64, [1.0, -2.0, 3e300, -3e300], 2)
    for mode in (SourceMode.PER_ENTRY, SourceMode.BULK):
        with make_source(path, mode=mode) as src:
            calls = [lambda: Frame(src).histogram("x", 2, lo, hi)]
            if mode is SourceMode.BULK:
                calls.append(lambda: direct_histogram(src, "x", 2, lo, hi))
            for call in calls:
                with pytest.raises(ValueError) as err:
                    call()
                if not hi > lo:  # NaN: the older, ordering check
                    assert str(err.value) == "need hi > lo"
                else:
                    assert str(err.value) == ("need finite lo and hi and a "
                                              "finite, nonzero bin width")
            assert src.plans_run == {"array": 0, "indexed": 0}


def test_direct_histogram_compares_8_byte_integers_exactly(tmp_path):
    """A float64 cast rounds 2**53 + 3 up to hi = 2**53 + 4, out of range;
    Python's int-float comparison keeps it in, in the last bin."""
    for etype in (ElementType.I64, ElementType.U64):
        path = tmp_path / f"{etype.name}.bkio"
        _write(path, etype, [2**53 + 3, 2**53 + 1, 5], 8192)
        for mode in (SourceMode.PER_ENTRY, SourceMode.BULK):
            with make_source(path, mode=mode) as src:
                got = Frame(src).histogram("x", 2, 0.0, float(2**53 + 4))
                assert got.tolist() == [1, 2]
        with make_source(path, mode=SourceMode.BULK) as src:
            got = direct_histogram(src, "x", 2, 0.0, float(2**53 + 4))
            assert got.tolist() == [1, 2]
            # bounds past the dtype's range: nothing, or everything, is in it
            assert direct_histogram(src, "x", 1, 2.0**64, 2.0**65).tolist() == [0]
            assert direct_histogram(src, "x", 1, -2.0**70, 2.0**70).tolist() == [3]


def _counting(calls: list, name: str, fn):
    def call(*args):
        calls.append(name)
        return fn(*args)
    return call


@pytest.mark.parametrize("n_slots", SLOTS)
def test_array_plan_runs_exactly_when_the_plan_has_no_node(tmp_path, n_slots):
    """Only a BULK action on a catalog column whose pruned plan is empty
    runs the array plan; filters and the defines an action reads keep their
    per-event calls, once per reference per event."""
    path = tmp_path / "x.bkio"
    n = 50
    _write(path, ElementType.F32, [float(i) for i in range(n)], 8)
    calls: list = []
    with make_source(path, mode=SourceMode.BULK, n_slots=n_slots) as src:
        frame = Frame(src).define(
            "unused", _counting(calls, "unused", lambda x: x), ["x"])
        frame.sum("x")
        frame.histogram("x", 4, 0.0, 50.0)
        assert src.plans_run == {"array": 2, "indexed": 0}
        assert calls == []

        twice = frame.define("d", _counting(calls, "d", lambda x: 2.0 * x), ["x"])
        both = twice.define("dd", _counting(calls, "dd", lambda a, b: a + b),
                            ["d", "d"])
        assert both.sum("dd") == 4.0 * sum(range(n))
        assert calls.count("d") == 2 * n and calls.count("dd") == n
        assert src.plans_run == {"array": 2, "indexed": 1}

        calls.clear()
        kept = frame.filter(_counting(calls, "f", lambda x: x < 10.0), ["x"])
        assert kept.sum("x") == float(sum(range(10)))
        assert kept.histogram("x", 2, 0.0, 10.0).tolist() == [5, 5]
        assert calls == ["f"] * (2 * n)
        assert frame.count() == n
        assert src.plans_run == {"array": 2, "indexed": 4}
        assert "unused" not in calls
    with make_source(path, mode=SourceMode.PER_ENTRY, n_slots=n_slots) as src:
        Frame(src).sum("x")
        assert src.plans_run == {"array": 0, "indexed": 1}
