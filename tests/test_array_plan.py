"""The BULK frame's array plan: whole-basket kernels for plans with no node.

A bare ``sum`` or ``histogram`` of a catalog column in BULK mode has no
Python callable between the basket and the reduction, so the frame reduces
whole baskets with numpy. Its results must be bit for bit those of the
per-event loops (PER_ENTRY, and the BULK indexed plan that a filter forces),
for every slot count and element type. Sums are also checked against the
one sum of a column written out in Python (``conftest.column_sum``).
"""

from __future__ import annotations

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bulkio import (
    ElementType,
    Frame,
    SourceMode,
    TreeFile,
    TreeWriter,
    direct_histogram,
    direct_sum,
    make_source,
    scalar,
)

from conftest import column_sum, int_bounds, pairwise_sum

NUMERIC = [t for t in ElementType if t is not ElementType.BOOL]
SLOTS = (1, 2, 3)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(a: float, b: float) -> bool:
    """Bit for bit: ``Frame.sum`` returns ``math.nan`` for any NaN sum."""
    return _bits(a) == _bits(b)


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


def _stored_baskets(path, stored: list) -> list[list]:
    """The stored values cut where the file's baskets start."""
    with TreeFile(path) as tf:
        baskets = tf.branch("x").descriptor.baskets
    return [stored[bk.first_entry:bk.first_entry + bk.n_entries]
            for bk in baskets]


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
            # the oracle: the one sum written out over the stored values,
            # and Python's own range test
            assert _same(want_sum, column_sum(_stored_baskets(path, stored)))
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


# Columns whose sum shows the order of its additions in its bits: each
# mixes magnitudes, signs, subnormals, signed zeros or integers near 2**53,
# in baskets of 3 to 16 values, around the 8 at which numpy's pairwise
# kernel starts its eight running sums.
_M9 = 2**52 // 9
F32, F64 = ElementType.F32, ElementType.F64


@pytest.mark.parametrize("etype,values,capacity", [
    (F32, [2.0**-133] * 7 + [2.0**-80], 8),
    (F32, [2.0**-127] + [2.0**-120 + 2.0**-133] * 6 + [2.0**-80], 8),
    (F64, [float(_M9)] * 9 + [float(_M9 + 1)] * 9, 9),
    (F64, [_M9 / 2 + 0.5] * 9 + [0.0] * 9 + [_M9 + 0.5] + [0.0] * 8, 9),
    (F64, [2.0**53 - 8] + [1.0] * 15, 16),
    (F64, [1.0] + [2.0**-54] * 14 + [0.0], 16),
    (F32, [2.0**30] + [2.0**-24] * 14 + [0.0], 16),
    (F32, [-(2.0**30)] + [2.0**-24] * 14 + [1.0], 16),
    (F32, [1.0 + (2 * k + 1) * 2.0**-23 for k in range(16)], 8),
    (F32, [-1.0 - (2 * k + 1) * 2.0**-23 for k in range(16)], 8),
    (F32, [2.0**-149] * 9 + [2.0**-149] * 8 + [1.0], 9),
    (F64, [5e-324] * 9 + [-5e-324] * 9, 9),
    (ElementType.I64, [2**48 - 1] * 16 + [0] + [2**49 + 1] * 14 + [2**50], 16),
    (ElementType.U64, [2**48 - 1] * 16 + [0] + [2**49 + 1] * 14 + [2**50], 16),
    (ElementType.I64, [2**53 // 8 + 1] * 8 + [-(2**53 // 8) - 1] * 8, 8),
    (F32, [-0.0] * 9, 9),
    (F64, [-0.0] * 18, 9),
    (F64, [0.25, 0.0, 0.0, 2.0**50, 2.0**50, -(2.0**50)], 3),
    (F64, [2.0**53, 1.0, -(2.0**53), 1.0] * 2 + [1.0] * 8, 8),
], ids=["f32-scale-overflows", "f32-scale-overflows-inside",
        "f64-integers-straddle-2-52", "f64-halves-straddle-2-51",
        "f64-past-2-53", "f64-off-the-grid", "f32-off-the-grid",
        "f32-off-the-grid-mixed-signs", "f32-positive-narrow",
        "f32-negative-narrow", "f32-subnormal", "f64-subnormal",
        "i64-near-2-53-over-n", "u64-near-2-53-over-n", "i64-2-53-over-n",
        "f32-minus-zero", "f64-minus-zero", "passes-then-fails",
        "fails-then-passes"])
def test_array_plan_sum_at_the_edges_of_its_exact_rule(tmp_path, etype, values,
                                                       capacity):
    """Each plan and mode against the oracle, for 1-3 slots."""
    path = tmp_path / "x.bkio"
    _write(path, etype, values, capacity)
    _check_plans(path, etype, values, 4, -1e300, 1e300)


@pytest.mark.parametrize("n_slots", [1, 2, 3])
def test_indexed_sums_across_many_baskets_and_batches(tmp_path, n_slots):
    """An indexed sum reduces its collected values a batch at a time:
    6001 baskets of 7 float32 draws, and a basket of 40000, more than a
    batch, then one of 7, give the oracle's bits bare, through a define,
    behind an always-true filter, and behind one that keeps about half of
    each basket, in both modes."""
    rng = np.random.default_rng(2311)
    small = (rng.standard_exponential(6001 * 7) * 1e3).astype("f4")
    big = np.concatenate([small[:7], rng.standard_normal(40000).astype("f4")])
    for name, values, capacity in (("small", small, 7), ("big", big, 40000)):
        path = tmp_path / f"{name}.bkio"
        with TreeWriter(path, [("x", ElementType.F32, scalar())],
                        basket_capacity_entries=capacity) as w:
            w.extend(x=values)
        baskets = _stored_baskets(path, values.tolist())
        half = [[v for v in b if v % 2.0 < 1.0] for b in baskets]
        want = [_bits(column_sum(baskets))] * 3 + [_bits(column_sum(half))]
        for mode in SourceMode:
            with make_source(path, mode=mode, n_slots=n_slots) as src:
                frame = Frame(src)
                got = [frame.sum("x"),
                       frame.define("y", lambda x: x, ["x"]).sum("y"),
                       frame.filter(lambda x: True, ["x"]).sum("x"),
                       frame.filter(lambda x: x % 2.0 < 1.0, ["x"]).sum("x")]
                assert [_bits(s) for s in got] == want


@pytest.mark.parametrize("bad", [None, "1.5", 1j], ids=["none", "str", "complex"])
@pytest.mark.parametrize("n_slots", [1, 2])
def test_a_summed_define_must_return_real_numbers(tmp_path, bad, n_slots):
    """A define that returns None, a numeric string or a complex number
    makes ``Frame.sum`` raise TypeError in both modes; a Python float sum
    would refuse each."""
    path = tmp_path / "x.bkio"
    _write(path, ElementType.F64, [1.0, 2.0, 3.0, 4.0, 5.0], 2)
    for mode in SourceMode:
        with make_source(path, mode=mode, n_slots=n_slots) as src:
            frame = Frame(src).define("y", lambda x: bad if x == 4.0 else x, ["x"])
            with pytest.raises(TypeError):
                frame.sum("y")
            ok = Frame(src).define("y", lambda x: int(x) if x < 3 else np.float32(x), ["x"])
            assert ok.sum("y") == 15.0


def _all_sums(src) -> list[float]:
    """``Frame.sum`` bare, behind an always-true filter and through a
    define, then ``direct_sum``: every path one sum of the column runs."""
    frame = Frame(src)
    return [frame.sum("x"),
            frame.filter(lambda x: True, ["x"]).sum("x"),
            frame.define("y", lambda x: x, ["x"]).sum("y"),
            direct_sum(src, "x")]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), etype=st.sampled_from(NUMERIC),
       capacity=st.integers(1, 9), n_slots=st.integers(1, 4))
def test_one_sum_from_every_path_mode_and_slot_count(tmp_path_factory, data,
                                                     etype, capacity, n_slots):
    """NaN, infinities, signed zeros, subnormals, mixed magnitudes and
    64-bit integers past 2**53: each path, in each mode, gives the bits
    of the oracle, whatever the slot count."""
    values = data.draw(st.lists(_elements(etype), max_size=40), label="values")
    path = tmp_path_factory.mktemp("sum") / "x.bkio"
    _write(path, etype, values, capacity)
    stored = np.array(values, dtype=etype.np_native).tolist()
    want = _bits(column_sum(_stored_baskets(path, stored)))
    for mode in SourceMode:
        with make_source(path, mode=mode, n_slots=n_slots) as src:
            assert [_bits(s) for s in _all_sums(src)] == [want] * 4


@pytest.mark.parametrize("n_slots", [1, 2, 3])
def test_a_sum_that_overflows_or_makes_nan_warns_nowhere(tmp_path, n_slots):
    """``[inf, -inf, 1.0, 1e308]`` makes NaN and ``[1e308, 1e308]``
    overflows: every path returns ``math.nan`` and numpy warns of neither,
    not even under ``-W error``."""
    path = tmp_path / "x.bkio"
    _write(path, ElementType.F64, [INF, -INF, 1.0, 1e308, 1e308, 1e308], 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in SourceMode:
            with make_source(path, mode=mode, n_slots=n_slots) as src:
                assert [_bits(s) for s in _all_sums(src)] == [_bits(math.nan)] * 4


BASKET_SIZES = (8191, 8192, 8193, 20000, 28700)


def test_a_basket_sum_does_not_depend_on_numpys_buffer_size(tmp_path):
    """One basket of float32 draws per file, on both sides of numpy's
    default buffer of 8192 elements. A reduce that casts as it goes sums
    in buffer-sized chunks, and on the basket of 28700 values, under the
    default buffer and under one of 4096, its bits differ from the
    oracle's; every path gives the oracle's under both."""
    files = []
    for n in BASKET_SIZES:
        values = np.random.default_rng([24, n]).standard_exponential(n)
        path = tmp_path / f"x{n}.bkio"
        _write(path, ElementType.F32, values, n)
        files.append((path, values.astype("f4")))
    for bufsize in (None, 4096):
        old = np.setbufsize(bufsize) if bufsize else None
        try:
            cast_as_it_goes = [float(np.add.reduce(b.astype(">f4"), dtype=np.float64))
                               for _, b in files]
            oracle = [pairwise_sum(b.tolist()) for _, b in files]
            assert cast_as_it_goes != oracle  # the test can tell the two apart
            for (path, _), want in zip(files, oracle):
                for mode in SourceMode:
                    for n_slots in (1, 2):
                        with make_source(path, mode=mode, n_slots=n_slots) as src:
                            got = [Frame(src).sum("x"), direct_sum(src, "x")]
                        assert [_bits(s) for s in got] == [_bits(want)] * 2
        finally:
            if old is not None:
                np.setbufsize(old)


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
