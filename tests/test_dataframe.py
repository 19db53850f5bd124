"""dataframe: slot partitioning, laziness, actions, mode equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from bulkio import (
    Codec,
    ElementType,
    Frame,
    SourceMode,
    TreeFile,
    TreeWriter,
    TypeMismatch,
    UnknownBranch,
    UnknownColumn,
    direct_count,
    direct_histogram,
    direct_sum,
    fixed_array,
    make_source,
    scalar,
    var_array,
)

MODES = [SourceMode.PER_ENTRY, SourceMode.BULK]


def full_scan(path, name):
    """Independent oracle: every value via get_entry, plain Python after that."""
    with TreeFile(path) as tf:
        rd = tf.branch(name)
        return [rd.get_entry(i) for i in range(rd.n_entries)]


def oracle_hist(values, bins, lo, hi):
    width = (hi - lo) / bins
    out = [0] * bins
    for v in values:
        if lo <= v < hi:
            i = int((v - lo) / width)
            out[min(i, bins - 1)] += 1
    return np.asarray(out, dtype=np.int64)


@pytest.fixture
def mixed_file(tmp_path, rng):
    """Integer-valued f32 + i32 columns, 300 entries, capacity 32."""
    path = tmp_path / "mixed.bkio"
    n = 300
    xs = rng.integers(0, 1000, size=n).astype("f4")
    ys = rng.integers(-50, 50, size=n).astype("i4")
    with TreeWriter(path, [("x", ElementType.F32, scalar()),
                           ("y", ElementType.I32, scalar())],
                    basket_capacity_entries=32) as w:
        w.extend(x=xs, y=ys)
    return path


# --- source construction ---

def test_single_slot_covers_all(mixed_file):
    src = make_source(mixed_file, n_slots=1)
    assert src.slot_ranges == [(0, 300)]


def test_slot_ranges_snap_to_baskets(ramp_file):
    src = make_source(ramp_file, n_slots=4)
    assert src.slot_ranges == [(0, 32), (32, 64), (64, 96), (96, 100)]


def test_more_slots_than_baskets(ramp_file):
    src = make_source(ramp_file, n_slots=8)
    assert [a for a, b in src.slot_ranges][0] == 0
    assert src.slot_ranges[-1][1] == 100
    total = sum(b - a for a, b in src.slot_ranges)
    assert total == 100


def test_unknown_tree_rejected(ramp_file):
    with pytest.raises(UnknownBranch):
        make_source(ramp_file, tree="other")
    src = make_source(ramp_file, tree="tree")  # writer default name
    assert src.n_entries == 100


def test_unknown_column(mixed_file):
    src = make_source(mixed_file)
    frame = Frame(src)
    with pytest.raises(UnknownColumn):
        frame.filter(lambda z: z, ["z"])
    with pytest.raises(UnknownColumn):
        frame.sum("z")
    with pytest.raises(UnknownColumn):
        src.reader("z", 0)


def test_laziness_no_baskets_before_action(mixed_file):
    src = make_source(mixed_file, mode=SourceMode.BULK)
    frame = Frame(src).filter(lambda x: x > 1.0, ["x"]).define(
        "d", lambda x, y: x + y, ["x", "y"])
    assert src.baskets_read == 0
    frame.count()
    assert src.baskets_read > 0


# --- actions vs the oracle ---

def test_count_sum_hist_against_oracle(mixed_file):
    values = full_scan(mixed_file, "x")
    for mode in MODES:
        frame = Frame(make_source(mixed_file, mode=mode))
        assert frame.count() == len(values)
        assert frame.sum("x") == float(sum(values))
        got = frame.histogram("x", 10, 0.0, 1000.0)
        assert np.array_equal(got, oracle_hist(values, 10, 0.0, 1000.0))


def test_filter_count_matches_brute_force(mixed_file):
    values = full_scan(mixed_file, "x")
    expected = sum(1 for v in values if v > 500.0)
    for mode in MODES:
        frame = Frame(make_source(mixed_file, mode=mode))
        assert frame.filter(lambda x: x > 500.0, ["x"]).count() == expected


def test_filter_false_counts_zero(mixed_file):
    frame = Frame(make_source(mixed_file))
    assert frame.filter(lambda x: False, ["x"]).count() == 0


def test_define_linearity(mixed_file):
    frame = Frame(make_source(mixed_file))
    doubled = frame.define("y2", lambda x: x * 2.0, ["x"])
    assert doubled.sum("y2") == 2.0 * frame.sum("x")


def test_define_chains_and_multi_column(mixed_file):
    xs = full_scan(mixed_file, "x")
    ys = full_scan(mixed_file, "y")
    expected = sum(x + 2.0 * y for x, y in zip(xs, ys) if y > 0)
    for mode in MODES:
        frame = (Frame(make_source(mixed_file, mode=mode))
                 .define("y2", lambda y: 2.0 * y, ["y"])
                 .define("s", lambda x, y2: x + y2, ["x", "y2"])
                 .filter(lambda y: y > 0, ["y"]))
        assert frame.sum("s") == expected


def test_define_name_collision(mixed_file):
    frame = Frame(make_source(mixed_file))
    with pytest.raises(ValueError):
        frame.define("x", lambda y: y, ["y"])


def test_filter_on_array_column(tmp_path):
    path = tmp_path / "arr.bkio"
    with TreeWriter(path, [("v", ElementType.F32, var_array())],
                    basket_capacity_entries=8) as w:
        for i in range(40):
            w.fill(v=[float(i)] * (i % 4))
    for mode in MODES:
        frame = Frame(make_source(path, mode=mode))
        got = frame.filter(lambda v: len(v) == 2, ["v"]).count()
        assert got == sum(1 for i in range(40) if i % 4 == 2)


def test_sum_rejects_non_scalar_and_bool(tmp_path):
    path = tmp_path / "b.bkio"
    with TreeWriter(path, [("b", ElementType.BOOL, scalar()),
                           ("a", ElementType.F32, fixed_array(2))]) as w:
        w.fill(b=True, a=[1.0, 2.0])
    frame = Frame(make_source(path))
    with pytest.raises(TypeMismatch):
        frame.sum("b")
    with pytest.raises(TypeMismatch):
        frame.sum("a")
    with pytest.raises(TypeMismatch):
        frame.histogram("a", 4, 0.0, 1.0)
    with pytest.raises(TypeMismatch):
        direct_sum(make_source(path, mode=SourceMode.BULK), "b")


def test_histogram_uniform_ramp(tmp_path):
    import bulkio.bench as bench
    path = tmp_path / "ramp1e5.bkio"
    n = 100_000
    bench.generate(n, out=path)
    for mode in MODES:
        got = Frame(make_source(path, mode=mode)).histogram(
            "x", 10, 0.0, float(n))
        assert np.array_equal(got, [n // 10] * 10)
    direct = direct_histogram(make_source(path, mode=SourceMode.BULK),
                              "x", 10, 0.0, float(n))
    assert np.array_equal(direct, [n // 10] * 10)


def test_million_ramp_sum(tmp_path):
    import bulkio.bench as bench
    path = tmp_path / "ramp1e6.bkio"
    bench.generate(1_000_000, out=path)
    frame = Frame(make_source(path, mode=SourceMode.BULK))
    assert frame.sum("x") == 499999500000.0
    assert direct_sum(make_source(path, mode=SourceMode.BULK), "x") == \
        499999500000.0


def test_count_with_filter_half(tmp_path):
    import bulkio.bench as bench
    n = 10_000
    path = tmp_path / "half.bkio"
    bench.generate(n, out=path, basket_capacity=512)
    for mode in MODES:
        frame = Frame(make_source(path, mode=mode))
        assert frame.filter(lambda x: x < n / 2, ["x"]).count() == n // 2


# --- mode and slot equivalence ---

def test_mode_and_slot_equivalence(mixed_file):
    values = full_scan(mixed_file, "x")
    expect_count = len(values)
    expect_sum = float(sum(values))
    expect_hist = oracle_hist(values, 13, 0.0, 1000.0)
    for n_slots in (1, 2, 4):
        results = []
        for mode in MODES:
            src = make_source(mixed_file, mode=mode, n_slots=n_slots)
            frame = Frame(src)
            results.append((frame.count(), frame.sum("x"),
                            frame.histogram("x", 13, 0.0, 1000.0)))
        direct_src = make_source(mixed_file, mode=SourceMode.BULK,
                                 n_slots=n_slots)
        results.append((direct_count(direct_src),
                        direct_sum(direct_src, "x"),
                        direct_histogram(direct_src, "x", 13, 0.0, 1000.0)))
        for count, total, hist in results:
            assert count == expect_count
            assert total == expect_sum
            assert np.array_equal(hist, expect_hist)


def test_per_entry_and_bulk_identical_on_general_floats(tmp_path, rng):
    """Same order, same f64 ops: bit-identical even for non-integer data."""
    path = tmp_path / "float.bkio"
    xs = rng.standard_normal(500).astype("f4")
    with TreeWriter(path, [("x", ElementType.F32, scalar())],
                    basket_capacity_entries=64) as w:
        w.extend(x=xs)
    sums = [Frame(make_source(path, mode=m)).sum("x") for m in MODES]
    assert sums[0] == sums[1]
    hists = [Frame(make_source(path, mode=m)).histogram("x", 7, -3.0, 3.0)
             for m in MODES]
    assert np.array_equal(hists[0], hists[1])


def test_bulk_var_column_roundtrip(tmp_path, rng):
    path = tmp_path / "bulkvar.bkio"
    rows = [rng.standard_normal(int(k)).astype("f4")
            for k in rng.integers(0, 5, size=90)]
    with TreeWriter(path, [("v", ElementType.F32, var_array())],
                    basket_capacity_entries=16) as w:
        for r in rows:
            w.fill(v=r)
    src = make_source(path, mode=SourceMode.BULK)
    reader = src.reader("v", 0)
    for i, expect in enumerate(rows):
        assert np.array_equal(reader.read(i), expect)


def test_blocks_cover_slot_ranges(mixed_file):
    src = make_source(mixed_file, mode=SourceMode.BULK, n_slots=3)
    values = full_scan(mixed_file, "x")
    for slot, (start, stop) in enumerate(src.slot_ranges):
        got = np.concatenate(
            [blk.astype("f4") for blk in src.blocks("x", slot)]
        ) if stop > start else np.empty(0, "f4")
        assert np.array_equal(got, np.asarray(values[start:stop], dtype="f4"))


def test_empty_file_actions(tmp_path):
    path = tmp_path / "none.bkio"
    TreeWriter(path, [("x", ElementType.F32, scalar())]).close()
    for n_slots in (1, 2):
        for mode in MODES:
            frame = Frame(make_source(path, mode=mode, n_slots=n_slots))
            assert frame.count() == 0
            assert frame.sum("x") == 0.0
        src = make_source(path, mode=SourceMode.BULK, n_slots=n_slots)
        assert direct_sum(src, "x") == 0.0


def test_slot_readers_independent(mixed_file):
    src = make_source(mixed_file, mode=SourceMode.BULK, n_slots=2)
    r0 = src.reader("x", 0)
    r1 = src.reader("x", 1)
    (a0, b0), (a1, b1) = src.slot_ranges
    assert r0.read(a0) == full_scan(mixed_file, "x")[a0]
    assert r1.read(a1) == full_scan(mixed_file, "x")[a1]
    assert r0.read(a0 + 1) == full_scan(mixed_file, "x")[a0 + 1]


# --- windows: both modes run one loop over windows of a slot ---

def _three_actions(path, mode, n_slots, build):
    frame = build(Frame(make_source(path, mode=mode, n_slots=n_slots)))
    return frame.count(), frame.sum("s"), frame.histogram("s", 9, -2.0, 2.0)


@pytest.mark.parametrize("n,capacity", [(0, 16), (1, 16), (50, 16), (301, 32)])
def test_windows_per_entry_and_bulk_bit_identical(tmp_path, rng, n, capacity):
    """Filters and chained defines on capacities that do not divide n."""
    path = tmp_path / "w.bkio"
    with TreeWriter(path, [("x", ElementType.F64, scalar()),
                           ("y", ElementType.I32, scalar()),
                           ("v", ElementType.F32, var_array())],
                    basket_capacity_entries=capacity) as w:
        for i in range(n):
            w.fill(x=float(rng.standard_normal()), y=int(rng.integers(-9, 9)),
                   v=rng.standard_normal(i % 4).astype("f4"))

    def build(frame):
        return (frame.define("vs", lambda v: float(np.sum(v, dtype=np.float64)), ["v"])
                .filter(lambda y: y != 0, ["y"])
                .define("t", lambda x, vs: x * 0.1 + vs, ["x", "vs"])
                .define("s", lambda t, y: t / y, ["t", "y"])
                .filter(lambda s, v: s < 1.5 or len(v) == 3, ["s", "v"]))

    for n_slots in (1, 2, 3):
        per_entry = _three_actions(path, SourceMode.PER_ENTRY, n_slots, build)
        bulk = _three_actions(path, SourceMode.BULK, n_slots, build)
        assert per_entry[:2] == bulk[:2]
        assert np.array_equal(per_entry[2], bulk[2])
    if n == 0:
        assert per_entry[:2] == (0, 0.0)


def test_windows_filters_short_circuit_in_order(mixed_file):
    xs, ys = full_scan(mixed_file, "x"), full_scan(mixed_file, "y")
    expect = []
    for x, y in zip(xs, ys):
        expect.append(("y", y))
        if y > 0:
            expect.append(("x", x))
    for mode in MODES:
        calls = []
        frame = (Frame(make_source(mixed_file, mode=mode))
                 .filter(lambda y: calls.append(("y", y)) or y > 0, ["y"])
                 .filter(lambda x: calls.append(("x", x)) or True, ["x"]))
        assert frame.count() == sum(1 for y in ys if y > 0)
        assert calls == expect


def test_windows_define_evaluated_only_when_referenced(mixed_file):
    for mode in MODES:
        calls = []
        unused = Frame(make_source(mixed_file, mode=mode)).define(
            "d", lambda x: calls.append(x) or x, ["x"])
        assert unused.sum("y") == float(sum(full_scan(mixed_file, "y")))
        assert unused.count() == 300
        assert calls == []
        assert unused.sum("d") == float(sum(full_scan(mixed_file, "x")))
        assert len(calls) == 300


def test_bulk_frame_rejects_invalid_bool_byte(tmp_path):
    from bulkio import FormatError
    path = tmp_path / "bool.bkio"
    with TreeWriter(path, [("b", ElementType.BOOL, scalar()),
                           ("x", ElementType.F32, scalar())],
                    basket_capacity_entries=4) as w:
        for i in range(8):
            w.fill(b=bool(i % 2), x=float(i))
    with TreeFile(path) as tf:
        offset = tf.footer.branches[0].baskets[1].file_offset
    data = bytearray(path.read_bytes())
    data[offset + 2] = 0x02  # entry 6
    path.write_bytes(bytes(data))
    frame = Frame(make_source(path, mode=SourceMode.BULK))
    with pytest.raises(FormatError):
        frame.filter(lambda b: b, ["b"]).count()
    with pytest.raises(FormatError):
        frame.filter(lambda x, b: x < 5 or b, ["x", "b"]).sum("x")


def test_bulk_var_values_kept_by_a_define_stay_valid(var_file):
    """Arrays handed to user functions outlive the basket they came from."""
    kept = []

    def keep(v):
        kept.append(v)
        return 0.0

    Frame(make_source(var_file, mode=SourceMode.BULK)).define(
        "k", keep, ["v"]).sum("k")
    expect = full_scan(var_file, "v")
    assert len(kept) == len(expect) == 10
    for got, want in zip(kept, expect):
        assert np.array_equal(got, want)


def test_bulk_fixed_array_values(tmp_path, rng):
    path = tmp_path / "fixed.bkio"
    rows = rng.integers(-100, 100, size=(70, 3)).astype("i2")
    with TreeWriter(path, [("a", ElementType.I16, fixed_array(3))],
                    basket_capacity_entries=16) as w:
        w.extend(a=rows)
    for mode in MODES:
        src = make_source(path, mode=mode, n_slots=2)
        frame = Frame(src).define("s", lambda a: int(a.sum()) * 1.0, ["a"])
        assert frame.sum("s") == float(rows.astype("f8").sum())
        reader = src.reader("a", 0)
        for i in (0, 17, 3, 69):
            assert np.array_equal(reader.read(i), rows[i])


# --- reader lifetime and array direct sums ---

def test_actions_release_their_readers(mixed_file):
    import gc
    from bulkio import BranchReader

    def live_readers():
        gc.collect()
        return sum(isinstance(o, BranchReader) for o in gc.get_objects())

    for mode in MODES:
        src = make_source(mixed_file, mode=mode)
        frame = Frame(src)
        before = live_readers()
        for _ in range(50):
            frame.sum("x")
            direct_sum(src, "y")
        assert live_readers() - before <= 2
        # ten baskets per column and pass; released readers still count
        assert src.baskets_read == 100 * 10
        col = src.reader("x", 0)
        col.read(40)
        assert src.baskets_read == 100 * 10 + 1
        del col
        assert live_readers() - before <= 2
        assert src.baskets_read == 100 * 10 + 1
        src.close()


def test_direct_sum_sums_every_array_element(tmp_path, rng):
    path = tmp_path / "arrays.bkio"
    fixed = rng.integers(0, 1000, size=(90, 2)).astype("f4")
    counts = rng.integers(0, 5, size=90).astype("u4")
    flat = rng.integers(-500, 500, size=int(counts.sum())).astype("i4")
    with TreeWriter(path, [("a", ElementType.F32, fixed_array(2)),
                           ("v", ElementType.I32, var_array())],
                    basket_capacity_entries=16) as w:
        w.extend(a=fixed, v=(flat, counts))
    for n_slots in (1, 3):
        src = make_source(path, mode=SourceMode.BULK, n_slots=n_slots)
        assert direct_sum(src, "a") == float(fixed.astype("f8").sum())
        assert direct_sum(src, "v") == float(flat.astype("f8").sum())
        with pytest.raises(TypeMismatch):
            direct_histogram(src, "v", 4, 0.0, 1.0)
        with pytest.raises(TypeMismatch):
            Frame(src).sum("v")


# --- unfiltered BULK windows stream their values ---

def _recorded(calls, name, fn):
    """fn, also appending (name, its arguments) to calls at every call."""
    def norm(a):
        if isinstance(a, np.ndarray):
            return "array", a.dtype.str, a.tolist()
        return type(a), a

    def call(*args):
        calls.append((name, [norm(a) for a in args]))
        return fn(*args)
    return call


def _unfiltered_actions(path, mode, n_slots):
    """Results of count/sum/histogram on catalog columns and on defines of
    defines without filters, and each define's calls in order."""
    calls = []

    def d1(x, i, b, a, v):
        return x + 0.5 * i + b + float(a[1]) - float(np.sum(v, dtype=np.float64))

    frame = (Frame(make_source(path, mode=mode, n_slots=n_slots))
             .define("d1", _recorded(calls, "d1", d1), ["x", "i", "b", "a", "v"])
             .define("unused", _recorded(calls, "unused", lambda x: x), ["x"])
             .define("one", _recorded(calls, "one", lambda: 1.0), [])
             .define("d2", _recorded(calls, "d2",
                                     lambda p, q, s, t: p * 0.25 - q * 0.5 + s * t),
                     ["d1", "d1", "i", "i"])
             .define("d3", _recorded(calls, "d3",
                                     lambda d2, x, one: d2 / (1.5 + x * x) + one),
                     ["d2", "x", "one"]))
    results = [frame.count()]
    for column in ("x", "i", "d1", "d3"):
        results.append(frame.sum(column))
        results.append(frame.histogram(column, 11, -3.0, 3.0).tolist())
    results.append(frame.sum("one"))
    return results, calls


@pytest.mark.parametrize("n,capacity", [(0, 16), (1, 16), (50, 16), (301, 32)])
def test_unfiltered_per_entry_and_bulk_bit_identical(tmp_path, rng, n, capacity):
    """Defines of defines, columns named twice: same sums, same calls."""
    path = tmp_path / "u.bkio"
    with TreeWriter(path, [("x", ElementType.F64, scalar()),
                           ("i", ElementType.I32, scalar()),
                           ("b", ElementType.BOOL, scalar()),
                           ("a", ElementType.F32, fixed_array(2)),
                           ("v", ElementType.F32, var_array())],
                    basket_capacity_entries=capacity) as w:
        for e in range(n):
            w.fill(x=float(rng.standard_normal()), i=int(rng.integers(-9, 9)),
                   b=bool(e % 3), a=rng.standard_normal(2).astype("f4"),
                   v=rng.standard_normal(e % 4).astype("f4"))
    for n_slots in (1, 2, 3):
        per_entry, per_entry_calls = _unfiltered_actions(
            path, SourceMode.PER_ENTRY, n_slots)
        bulk, bulk_calls = _unfiltered_actions(path, SourceMode.BULK, n_slots)
        assert per_entry == bulk
        assert per_entry_calls == bulk_calls
        # per action and event: d1 once per reference, left to right
        names = [name for name, _ in bulk_calls]
        assert "unused" not in names
        assert names.count("d1") == 2 * n + 2 * 2 * n  # sum/hist of d1; of d3
        assert names[2 * n:2 * n + 5] == (
            ["d1", "d1", "d2", "one", "d3"] if n else [])
    assert per_entry[0] == n
    assert per_entry[-1] == float(n)


@pytest.mark.parametrize("empty", [5, 7], ids=["mid-window", "window-end"])
def test_define_raising_stop_iteration_never_cuts_a_window_short(tmp_path, empty):
    """A define or filter raising StopIteration makes the action raise
    RuntimeError instead of summing what came before it, in every plan: a
    bare StopIteration would end a caller's own generator silently."""
    stop = "a define or filter raised StopIteration"
    path = tmp_path / "lead.bkio"
    with TreeWriter(path, [("v", ElementType.F32, var_array())],
                    basket_capacity_entries=4) as w:
        for i in range(10):
            w.fill(v=[] if i == empty else [float(i)])
    for mode in MODES:
        frame = (Frame(make_source(path, mode=mode))
                 .define("lead", lambda v: float(next(iter(v))), ["v"])
                 .define("twice", lambda a: 2.0 * a, ["lead"]))
        for column in ("lead", "twice"):
            with pytest.raises(RuntimeError, match=stop):
                frame.sum(column)
        filtered = frame.filter(lambda a: a > 0.0, ["lead"])
        with pytest.raises(RuntimeError, match=stop):
            filtered.count()
        with pytest.raises(RuntimeError, match=stop):
            filtered.sum("twice")
        with pytest.raises(RuntimeError, match=stop):
            filtered.histogram("twice", 4, 0.0, 20.0)
