"""iterator: plain vs fast event loops, proxies, refills, invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from bulkio import (
    Codec,
    ElementType,
    EventReader,
    FastEventReader,
    InvalidProxyState,
    TreeFile,
    TreeWriter,
    TypeMismatch,
    UnknownBranch,
    fixed_array,
    scalar,
    var_array,
)

from conftest import make_events, write_events


# --- attach ---

def test_attach_value_scalar(ramp_file):
    with EventReader(ramp_file) as ev:
        proxy = ev.attach_value("x", ElementType.F32)
        assert proxy is not None


def test_attach_type_mismatch(ramp_file):
    with EventReader(ramp_file) as ev:
        with pytest.raises(TypeMismatch):
            ev.attach_value("x", ElementType.F64)


def test_attach_shape_mismatch(var_file):
    with EventReader(var_file) as ev:
        with pytest.raises(TypeMismatch):
            ev.attach_value("v", ElementType.F32)
    with EventReader(var_file) as ev:
        with pytest.raises(TypeMismatch):
            ev.attach_array("v.count", ElementType.U32)


def test_attach_unknown_branch(ramp_file):
    for cls in (EventReader, FastEventReader):
        with cls(ramp_file) as ev:
            with pytest.raises(UnknownBranch):
                ev.attach_value("nope", ElementType.F32)


def test_attach_after_start_rejected(ramp_file):
    for cls in (EventReader, FastEventReader):
        with cls(ramp_file) as ev:
            ev.attach_value("x", ElementType.F32)
            ev.next()
            with pytest.raises(InvalidProxyState):
                ev.attach_value("x", ElementType.F32)


def test_attach_array_var_lengths(var_file):
    for cls in (EventReader, FastEventReader):
        with cls(var_file) as ev:
            v = ev.attach_array("v", ElementType.F32)
            with pytest.raises(InvalidProxyState):
                len(v)  # before the first next()
            lengths = []
            while ev.next():
                lengths.append(len(v))
            assert lengths[:3] == [2, 0, 3]
            assert len(set(lengths)) > 1  # per-event length varies
            with pytest.raises(InvalidProxyState):
                len(v)  # past the last entry


def test_attach_array_fixed_length(tmp_path):
    """A fixed array's proxy has its length on every entry, and off them."""
    path = tmp_path / "fixed.bkio"
    write_events(path, ElementType.I16, fixed_array(3),
                 [np.arange(3, dtype="i2")] * 10, capacity=4)
    for cls in (EventReader, FastEventReader):
        with cls(path) as ev:
            a = ev.attach_array("x", ElementType.I16)
            assert len(a) == 3
            n = 0
            while ev.next():
                assert len(a) == 3
                n += 1
            assert n == 10 and len(a) == 3


# --- next ---

def test_next_empty_file(tmp_path):
    path = tmp_path / "none.bkio"
    TreeWriter(path, [("x", ElementType.F32, scalar())]).close()
    for cls in (EventReader, FastEventReader):
        with cls(path) as ev:
            ev.attach_value("x", ElementType.F32)
            assert ev.next() is False


def test_next_exactly_n_trues(ramp_file):
    for cls in (EventReader, FastEventReader):
        with cls(ramp_file) as ev:
            ev.attach_value("x", ElementType.F32)
            results = [ev.next() for _ in range(103)]
            assert results == [True] * 100 + [False] * 3


def test_fast_refill_count(ramp_file):
    """100 entries, capacity 32 -> exactly 4 bulk refills per branch."""
    with FastEventReader(ramp_file) as ev:
        x = ev.attach_value("x", ElementType.F32)
        while ev.next():
            pass
        assert x.refill_count == 4


def test_fast_refill_count_multi_branch(tmp_path):
    path = tmp_path / "two.bkio"
    with TreeWriter(path, [("a", ElementType.F32, scalar()),
                           ("v", ElementType.I32, var_array())],
                    basket_capacity_entries=32) as w:
        for i in range(100):
            w.fill(a=float(i), v=[i] * (i % 3))
    with FastEventReader(path) as ev:
        a = ev.attach_value("a", ElementType.F32)
        v = ev.attach_array("v", ElementType.I32)
        while ev.next():
            pass
        assert a.refill_count == 4
        assert v.refill_count == 4


# --- deref ---

def test_deref_after_eight_nexts(ramp_file):
    for cls in (EventReader, FastEventReader):
        with cls(ramp_file) as ev:
            x = ev.attach_value("x", ElementType.F32)
            for _ in range(8):
                assert ev.next()
            assert x.deref() == 7.0


def test_deref_before_first_next(ramp_file):
    for cls in (EventReader, FastEventReader):
        with cls(ramp_file) as ev:
            x = ev.attach_value("x", ElementType.F32)
            with pytest.raises(InvalidProxyState):
                x.deref()


def test_deref_after_exhaustion(ramp_file):
    for cls in (EventReader, FastEventReader):
        with cls(ramp_file) as ev:
            x = ev.attach_value("x", ElementType.F32)
            while ev.next():
                x.deref()
            with pytest.raises(InvalidProxyState):
                x.deref()


def test_loop_sum_million(tmp_path):
    """Loop sum with an f64 accumulator over v[i]=i equals N(N-1)/2 exactly."""
    n = 1_000_000
    path = tmp_path / "million.bkio"
    import bulkio.bench as bench
    bench.generate(n, out=path)
    with EventReader(path) as ev:
        x = ev.attach_value("x", ElementType.F32)
        total = 0.0
        while ev.next():
            total += x.deref()
    assert total == 499999500000.0
    with FastEventReader(path) as ev:
        x = ev.attach_value("x", ElementType.F32)
        total = 0.0
        while ev.next():
            total += x.deref()
    assert total == 499999500000.0


# --- fast-specific machinery ---

def test_generation_counter_increments_per_refill(ramp_file):
    with FastEventReader(ramp_file) as ev:
        x = ev.attach_value("x", ElementType.F32)
        gens = []
        while ev.next_block():
            gens.append(x.generation)
        assert gens == [1, 2, 3, 4]
        assert ev.generation == 4


def test_block_views(ramp_file):
    with FastEventReader(ramp_file) as ev:
        x = ev.attach_value("x", ElementType.F32)
        with pytest.raises(InvalidProxyState):
            x.block()
        total = 0.0
        sizes = []
        while (n := ev.next_block()):
            blk = x.block()
            sizes.append(len(blk))
            assert blk.dtype.str == ">f4"  # serialized until accessed
            total += float(np.sum(blk, dtype=np.float64))
        assert sizes == [32, 32, 32, 4]
        assert total == float(sum(range(100)))


def test_block_counts_var(var_file):
    with FastEventReader(var_file) as ev:
        v = ev.attach_array("v", ElementType.F32)
        ev.next_block()
        assert list(v.block_counts()[:3]) == [2, 0, 3]
        assert v.block().size == int(v.block_counts().sum())


def test_next_and_blocks_mix(ramp_file):
    with FastEventReader(ramp_file) as ev:
        x = ev.attach_value("x", ElementType.F32)
        assert ev.next()
        assert x.deref() == 0.0
        assert ev.next_block() == 32  # jumps to second basket
        assert x.deref() == 32.0
        assert ev.next()
        assert x.deref() == 33.0


def test_old_block_view_is_overwritten_after_refill(ramp_file):
    """Buffer reuse: a kept view aliases storage the next refill rewrites."""
    with FastEventReader(ramp_file) as ev:
        x = ev.attach_value("x", ElementType.F32)
        ev.next_block()
        first_gen = x.generation
        old = x.block()
        old_copy = old.copy()
        ev.next_block()
        assert x.generation == first_gen + 1
        assert not np.array_equal(old, old_copy)  # stale view, new bytes


# --- plain/fast equivalence ---

@pytest.mark.parametrize("codec", [Codec.NONE, Codec.DEFLATE],
                         ids=["none", "deflate"])
def test_plain_fast_equivalence(tmp_path, rng, codec):
    from conftest import ALL_TYPES
    for etype in ALL_TYPES:
        for shape in (scalar(), fixed_array(2), var_array()):
            events = make_events(rng, etype, shape, 60)
            path = tmp_path / f"{etype.name}_{shape.kind.name}.bkio"
            write_events(path, etype, shape, events, capacity=16, codec=codec)
            want_array = shape.kind.name != "SCALAR"
            plain_vals, fast_vals = [], []
            with EventReader(path) as ev:
                p = (ev.attach_array if want_array else ev.attach_value)(
                    "x", etype)
                while ev.next():
                    plain_vals.append(p.deref())
            with FastEventReader(path) as ev:
                p = (ev.attach_array if want_array else ev.attach_value)(
                    "x", etype)
                while ev.next():
                    fast_vals.append(p.deref())
            assert len(plain_vals) == len(fast_vals) == len(events)
            for a, b, e in zip(plain_vals, fast_vals, events):
                if want_array:
                    assert np.array_equal(a, b) and np.array_equal(a, e)
                else:
                    assert a == b == e


def test_fast_refills_equal_basket_count(tmp_path, rng):
    events = make_events(rng, ElementType.F64, scalar(), 100)
    path = tmp_path / "refills.bkio"
    write_events(path, ElementType.F64, scalar(), events, capacity=7)
    with TreeFile(path) as tf:
        n_baskets = len(tf.branch("x").descriptor.baskets)
    with FastEventReader(path) as ev:
        x = ev.attach_value("x", ElementType.F64)
        while ev.next():
            pass
        assert x.refill_count == n_baskets
