"""read-ahead: the next compressed basket inflates on the helper thread
while a walk's caller inflates the current one, changing no result."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import bulkio.reader as reader
from bulkio import (
    BulkBuffer,
    Codec,
    CountBuffer,
    CountBufferRequired,
    DecompressError,
    ElementType,
    EntryOutOfRange,
    EventReader,
    FastEventReader,
    FileClosed,
    Frame,
    NotBasketStart,
    SourceMode,
    TreeFile,
    TreeWriter,
    direct_histogram,
    direct_sum,
    make_source,
    scalar,
    var_array,
)

from conftest import reap

N, CAPACITY = 45, 8  # 6 baskets, the last of 5 events
FIRSTS = list(range(0, N, CAPACITY))

# the two bulk calls; only the serialized one fills the CountBuffer
BULK_CALLS = {
    "get_bulk_entries": lambda rd, entry, buf, cbuf: rd.get_bulk_entries(entry, buf),
    "get_entries_serialized": lambda rd, entry, buf, cbuf: rd.get_entries_serialized(
        entry, buf, cbuf),
}


def _write(path, codec: Codec = Codec.DEFLATE):
    """An F32 scalar ``x`` and an F32 var array ``v`` of random integers."""
    rng = np.random.default_rng(17)
    xs = rng.integers(0, 1 << 20, size=N).astype("f4")
    vs = [rng.integers(0, 1 << 20, size=int(k)).astype("f4")
          for k in rng.integers(0, 6, size=N)]
    with TreeWriter(path, [("x", ElementType.F32, scalar()),
                           ("v", ElementType.F32, var_array())],
                    basket_capacity_entries=CAPACITY, codec=codec) as w:
        for x, v in zip(xs, vs):
            w.fill(x=float(x), v=v)
    return path


@pytest.fixture
def deflate_file(tmp_path):
    return _write(tmp_path / "ahead.bkio")


def _hold(monkeypatch) -> tuple[threading.Event, threading.Event]:
    """Hold the helper thread after each basket it inflates from now on:
    ``running`` is set once it is held, and it goes on once ``release`` is
    set, which the caller must do."""
    running, release = threading.Event(), threading.Event()
    real = reader._inflate

    def inflate(file, name, bk):
        out = real(file, name, bk)
        if threading.current_thread().name == "bulkio-helper":
            running.set()
            release.wait(10)
        return out

    monkeypatch.setattr(reader, "_inflate", inflate)
    return running, release


def _corrupt(path, branch: str, basket: int):
    """The first byte of a deflate basket set to 0xFF: a block of the
    reserved type, which zlib refuses."""
    with TreeFile(path) as tf:
        desc = tf.footer.branches[tf.footer.branch_index(branch)]
        offset = desc.baskets[basket].file_offset
    data = bytearray(path.read_bytes())
    data[offset] = 0xFF
    path.write_bytes(bytes(data))


# --- errors are raised at the load of their own basket ---

@pytest.mark.parametrize("broken,column", [("x", "x"), ("v", "v"), ("v.count", "v")])
def test_corrupt_next_basket_raises_at_its_own_load(deflate_file, jobs, broken, column):
    """Basket 1 is read ahead while basket 0 loads: its DecompressError
    waits for the load of basket 1, in every walk that reads ahead."""
    _corrupt(deflate_file, broken, 1)
    etype = ElementType.F32
    with FastEventReader(deflate_file) as events:
        proxy = (events.attach_array if column == "v" else events.attach_value)(column, etype)
        assert events.next_block() == CAPACITY
        assert proxy._rd._ahead is not None and len(jobs) == 1
        with pytest.raises(DecompressError):
            events.next_block()

    with make_source(deflate_file, mode=SourceMode.BULK) as src:
        blocks = src.blocks(column)
        next(blocks)
        with pytest.raises(DecompressError):
            next(blocks)

        seen = []

        def record(value) -> bool:
            seen.append(value)
            return True

        frame = Frame(src).filter(record, [column])
        with pytest.raises(DecompressError):
            frame.sum("x") if column == "x" else frame.count()
        assert len(seen) == CAPACITY  # every event of basket 0, none of 1
        if column == "x":
            with pytest.raises(DecompressError):
                Frame(src).sum("x")  # the array plan walks blocks

    with TreeFile(deflate_file) as tf:
        for name, call in BULK_CALLS.items():
            rd, buf, cbuf = tf.branch(column), BulkBuffer(), CountBuffer()
            started = len(jobs)
            assert call(rd, 0, buf, cbuf) == CAPACITY
            assert rd._ahead is not None and len(jobs) == started + 1
            if broken == "v.count" and name == "get_bulk_entries":
                # it reads no counts, so its read-ahead leaves them alone
                assert len(jobs[-1].args[1]) == 1
                assert call(rd, CAPACITY, buf, cbuf) == CAPACITY
                continue
            with pytest.raises(DecompressError):
                call(rd, CAPACITY, buf, cbuf)
            assert buf.state is None and buf.nbytes == 0  # left unfilled


# --- close and abandon ---

def test_close_mid_walk_raises_file_closed(deflate_file, jobs):
    """Closing the file drops the basket read ahead: the next load raises
    FileClosed, though that basket's bytes were already inflated."""
    with TreeFile(deflate_file) as tf:
        events = FastEventReader(tf)
        v = events.attach_array("v", ElementType.F32)
        assert events.next_block() == CAPACITY
        assert v._rd._ahead is not None
        jobs[0].finished.wait()  # basket 1 is inflated before the close
    assert v._rd._ahead is None
    with pytest.raises(FileClosed):
        events.next_block()

    with make_source(deflate_file, mode=SourceMode.BULK) as src:
        blocks = src.blocks("x")
        next(blocks)
    with pytest.raises(FileClosed):
        next(blocks)

    with make_source(deflate_file, mode=SourceMode.BULK) as src:
        def close_then_pass(x) -> bool:
            src.close()
            return True

        with pytest.raises(FileClosed):
            Frame(src).filter(close_then_pass, ["x"]).sum("x")
    assert all(job.finished.is_set() for job in jobs)


def test_close_cancels_pending_and_waits_for_running_read_aheads(
        deflate_file, jobs, monkeypatch):
    """The helper is held inside the first job, so the second waits in its
    queue: close cancels the second and returns after the first ends."""
    running, release = _hold(monkeypatch)
    tf = TreeFile(deflate_file)
    events = FastEventReader(tf)
    events.attach_value("x", ElementType.F32)
    events.attach_array("v", ElementType.F32)
    events.next_block()
    assert len(jobs) == 2 and running.wait(10)
    timer = threading.Timer(0.05, release.set)
    timer.start()
    try:
        tf.close()
        assert jobs[0].finished.is_set() and jobs[0].out is not None
        assert jobs[1].finished.is_set() and jobs[1].out is None  # cancelled
    finally:
        release.set()
        timer.join(10)
    assert not timer.is_alive()
    with pytest.raises(FileClosed):
        events.next_block()


@pytest.mark.parametrize("column", ["x", "v"])
def test_close_on_another_thread_during_a_load_raises_file_closed(
        deflate_file, jobs, monkeypatch, column):
    """A walk waits in its load for the held helper's read-ahead of its next
    basket while another thread closes the file, which waits for that
    read-ahead too: the load raises FileClosed, though its basket was
    inflated."""
    running, release = _hold(monkeypatch)
    tf = TreeFile(deflate_file)
    events = FastEventReader(tf)
    if column == "x":
        events.attach_value("x", ElementType.F32)
    else:
        events.attach_array("v", ElementType.F32)
    events.next_block()
    assert len(jobs) == 1 and running.wait(10)
    errors = []

    def walk():
        try:
            events.next_block()
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    walker = threading.Thread(target=walk)
    closer = threading.Thread(target=tf.close)
    try:
        walker.start()
        time.sleep(0.05)  # the walker waits for the read-ahead
        closer.start()
        time.sleep(0.05)  # close waits for it too
    finally:
        release.set()
        walker.join(10)
        closer.join(10)
    assert not walker.is_alive() and not closer.is_alive()
    assert [type(exc) for exc in errors] == [FileClosed]
    assert not isinstance(jobs[0].out[0][1], Exception)  # inflated it


def test_a_released_walk_drops_its_read_ahead(deflate_file, jobs):
    with TreeFile(deflate_file) as tf:
        events = FastEventReader(tf)
        x = events.attach_value("x", ElementType.F32)
        events.next_block()
        assert x._rd._ahead is not None
        events.close()  # the file stays open
        assert x._rd._ahead is None


# --- the two bulk calls read ahead in a forward walk ---

def _bulk_walk(tf, name: str, order, column: str = "v") -> tuple:
    """Call ``name`` on a fresh reader for the baskets of ``order`` (their
    indices): the sums, counts and ``baskets_read`` of the calls."""
    rd, buf, cbuf, seen = tf.branch(column), BulkBuffer(), CountBuffer(), []
    for idx in order:
        BULK_CALLS[name](rd, FIRSTS[idx], buf, cbuf)
        seen.append((float(np.sum(buf.as_array(), dtype=np.float64)),
                     cbuf.counts.tolist()))
    counted = rd.count_reader.baskets_read if column == "v" else 0
    return seen, rd.baskets_read, counted


@pytest.mark.parametrize("name", BULK_CALLS)
def test_forward_bulk_walk_reads_ahead_in_pairs(deflate_file, jobs, name):
    """Baskets 0, 2 and 4 load inline and read 1, 3 and 5 ahead, and a walk
    that reached the last basket reads ahead again from basket 0."""
    with TreeFile(deflate_file) as tf:
        rd, buf, cbuf = tf.branch("v"), BulkBuffer(), CountBuffer()
        for _ in range(2):
            for idx, first in enumerate(FIRSTS):
                BULK_CALLS[name](rd, first, buf, cbuf)
                assert (rd._ahead is not None) == (idx % 2 == 0)
        assert len(jobs) == 6
        with_counts = name == "get_entries_serialized"
        assert all(len(job.args[1]) == 1 + with_counts for job in jobs)


@pytest.mark.parametrize("name", BULK_CALLS)
@pytest.mark.parametrize("order", [
    [1, 2, 3, 4, 5],        # begins past basket 0
    [0, 0, 1, 2, 3, 4, 5],  # repeats
    [0, 1, 2, 1, 2, 3],     # goes back
    [0, 2, 3, 4, 5],        # skips
    [0, 1, 2, 3, 4, 5, 5],  # repeats the last
    [3, 1, 4, 0, 5, 2],     # random order
])
def test_bulk_jump_reads_nothing_ahead_from_then_on(deflate_file, jobs,
                                                    monkeypatch, name, order):
    """The first call that is not the walk's next basket drops the walk's
    read-ahead, and neither it nor any later call starts a job; every
    call's result and count equal those without read-ahead."""
    jump = next(i for i, idx in enumerate(order) if idx != i % len(FIRSTS))
    with TreeFile(deflate_file) as tf:
        rd, buf, cbuf = tf.branch("v"), BulkBuffer(), CountBuffer()
        for i, idx in enumerate(order):
            if i == jump:
                started = len(jobs)
            BULK_CALLS[name](rd, FIRSTS[idx], buf, cbuf)
            if i >= jump:
                assert rd._ahead is None
        assert len(jobs) == started == (jump + 1) // 2
        ahead = _bulk_walk(tf, name, order)
        monkeypatch.setattr(reader.BranchReader, "_start_ahead", lambda rd, *args: None)
        assert _bulk_walk(tf, name, order) == ahead


def test_mixed_bulk_calls_share_one_walk(deflate_file, jobs, monkeypatch):
    """``get_bulk_entries`` reads basket k + 1 ahead without its count
    basket, which ``get_entries_serialized`` of k + 1 then reads itself; the
    other way round, ``get_bulk_entries`` leaves the count basket read
    ahead untaken. Counts and ``baskets_read`` equal those without
    read-ahead."""
    def mixed(tf):
        rd, buf, cbuf, seen = tf.branch("v"), BulkBuffer(), CountBuffer(), []
        for idx, first in enumerate(FIRSTS):
            if idx < 4:  # bulk then serialized, for baskets 0-1 and 2-3
                call = "get_entries_serialized" if idx % 2 else "get_bulk_entries"
            else:  # serialized then bulk
                call = "get_bulk_entries" if idx % 2 else "get_entries_serialized"
            cbuf = CountBuffer()
            BULK_CALLS[call](rd, first, buf, cbuf)
            seen.append((call, buf.to_bytes(), cbuf.counts.tolist()))
        return seen, rd.baskets_read, rd.count_reader.baskets_read

    with TreeFile(deflate_file) as tf:
        ahead = mixed(tf)
        assert [len(job.args[1]) for job in jobs] == [1, 1, 2]
        monkeypatch.setattr(reader.BranchReader, "_start_ahead", lambda rd, *args: None)
        assert mixed(tf) == ahead
    assert ahead[1:] == (6, 3)  # the count baskets of 1, 3 and 4 only


@pytest.mark.parametrize("name", BULK_CALLS)
def test_a_refused_bulk_call_leaves_the_walk_going(tmp_path, jobs, name):
    """A call that raises NotBasketStart, EntryOutOfRange or
    CountBufferRequired is not part of the walk; one whose basket does not
    inflate is: after each, the next basket's call takes its read-ahead and
    the walk goes on reading ahead."""
    path = _write(tmp_path / "bad.bkio")
    _corrupt(path, "v", 2)
    call = BULK_CALLS[name]
    with TreeFile(path) as tf:
        rd, buf, cbuf = tf.branch("v"), BulkBuffer(), CountBuffer()
        call(rd, 0, buf, cbuf)
        for refused, exc in ((1, NotBasketStart), (N, EntryOutOfRange),
                             (-1, EntryOutOfRange)):
            with pytest.raises(exc):
                call(rd, refused, buf, cbuf)
        with pytest.raises(CountBufferRequired):
            rd.get_entries_serialized(CAPACITY, buf)
        assert rd._ahead is not None and len(jobs) == 1
        call(rd, FIRSTS[1], buf, cbuf)  # takes the read-ahead
        assert len(jobs) == 1 and rd.baskets_read == 2
        with pytest.raises(DecompressError):
            call(rd, FIRSTS[2], buf, cbuf)  # inline, reading basket 3 ahead
        assert rd._ahead is not None and len(jobs) == 2
        for first in FIRSTS[3:]:
            call(rd, first, buf, cbuf)
        assert len(jobs) == 3 and rd.baskets_read == 6


@pytest.mark.parametrize("name", BULK_CALLS)
def test_close_mid_bulk_walk_raises_file_closed(deflate_file, jobs, name):
    """Closing the file drops the bulk walk's read-ahead: the next call
    raises FileClosed, though its basket was already inflated."""
    call, buf, cbuf = BULK_CALLS[name], BulkBuffer(), CountBuffer()
    with TreeFile(deflate_file) as tf:
        rd = tf.branch("v")
        call(rd, 0, buf, cbuf)
        assert rd._ahead is not None
        jobs[0].finished.wait()  # basket 1 is inflated before the close
    assert rd._ahead is None
    with pytest.raises(FileClosed):
        call(rd, CAPACITY, buf, cbuf)
    assert buf.state is None  # left unfilled


# --- read-ahead changes no result and no count ---

def _walks(path) -> dict:
    """Sums and basket counts of every walk that reads ahead."""
    out = {}
    with FastEventReader(path) as events:
        x = events.attach_value("x", ElementType.F32)
        v = events.attach_array("v", ElementType.F32)
        total = []
        while events.next_block():
            total.append(float(np.sum(x.block(), dtype=np.float64)))
            total.append(float(np.sum(v.block(), dtype=np.float64)))
        out["fast"] = (total, x._rd.baskets_read, v._rd.baskets_read,
                       v._rd.count_reader.baskets_read)
    for n_slots in (1, 2):
        with make_source(path, mode=SourceMode.BULK, n_slots=n_slots) as src:
            frame = Frame(src)
            results = (
                direct_sum(src, "v"),
                direct_histogram(src, "x", 7, 0.0, float(1 << 20)).tolist(),
                frame.sum("x"),
                frame.filter(lambda x: x > 1000.0, ["x"]).sum("x"),
                frame.define("n", len, ["v"]).sum("n"),
            )
            out[n_slots] = (results, src.baskets_read, src.plans_run)
    with TreeFile(path) as tf:
        for name, call in BULK_CALLS.items():  # each on fresh readers
            x, v = tf.branch("x"), tf.branch("v")
            buf, cbuf, total = BulkBuffer(), CountBuffer(), []
            for first in FIRSTS:
                for rd in (x, v):
                    call(rd, first, buf, cbuf)
                    total.append(float(np.sum(buf.as_array(), dtype=np.float64)))
                    total.append(cbuf.counts.tolist())
            out[name] = (total, x.baskets_read, v.baskets_read,
                         v.count_reader.baskets_read)
    return out


def test_read_ahead_changes_no_result_or_count(deflate_file, jobs, monkeypatch):
    ahead = _walks(deflate_file)
    assert jobs  # the walks read ahead
    started = len(jobs)
    monkeypatch.setattr(reader.BranchReader, "_start_ahead", lambda rd, *args: None)
    assert _walks(deflate_file) == ahead
    assert len(jobs) == started


def test_demand_loads_and_codec_none_do_not_read_ahead(tmp_path, jobs):
    path = _write(tmp_path / "d.bkio")
    with TreeFile(path) as tf:
        x, v = tf.branch("x"), tf.branch("v")
        for e in range(N):
            x.get_entry(e)
            v.get_entry(e)
    with EventReader(path) as events:
        v = events.attach_array("v", ElementType.F32)
        while events.next():
            v.deref()
    with make_source(path, mode=SourceMode.BULK) as src:
        col = src.reader("x")
        for e in range(N):
            col.read(e)
    assert not jobs
    _walks(_write(tmp_path / "n.bkio", Codec.NONE))
    assert not jobs


def test_walks_on_many_threads_share_the_helper(deflate_file):
    """Four threads walk at once, switching often, through the one helper:
    every walk gets the results and counts of a walk on its own."""
    expected = _walks(deflate_file)
    results, errors = [], []

    def work():
        try:
            for _ in range(5):
                results.append(_walks(deflate_file))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert results == [expected] * 20


# --- interpreter shutdown ---

_WALK_AT_SHUTDOWN = """
import atexit, sys, threading
import numpy as np
from bulkio import ElementType, FastEventReader, SourceMode, direct_sum, make_source

def walk(when):
    with FastEventReader(sys.argv[1]) as events:
        v = events.attach_array("v", ElementType.F32)
        total = 0.0
        while events.next_block():
            total += float(np.sum(v.block(), dtype=np.float64))
    with make_source(sys.argv[1], mode=SourceMode.BULK) as src:
        print(when, repr(total), repr(direct_sum(src, "v")), flush=True)

def after_main():
    threading.main_thread().join()  # returns once the interpreter shuts down
    walk("thread")

atexit.register(walk, "atexit")
threading.Thread(target=after_main).start()
"""


def test_walks_read_ahead_while_the_interpreter_shuts_down(deflate_file):
    """A thread still walking after the main one returned, then an atexit
    handler, each finish a fast-reader pass and a ``direct_sum``."""
    src = os.path.dirname(os.path.dirname(reader.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _WALK_AT_SHUTDOWN, str(deflate_file)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0 and not run.stderr, run.stderr
    with FastEventReader(deflate_file) as events:
        v = events.attach_array("v", ElementType.F32)
        total = 0.0
        while events.next_block():
            total += float(np.sum(v.block(), dtype=np.float64))
    with make_source(deflate_file, mode=SourceMode.BULK) as source:
        expected = f"{total!r} {direct_sum(source, 'v')!r}"
    assert run.stdout.splitlines() == [f"thread {expected}", f"atexit {expected}"]


# --- fork ---

@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_completes_a_fast_reader_pass(deflate_file, jobs):
    """The helper thread does not survive a fork: the child starts its own
    and finishes the pass that reads ahead."""
    expected = _walks(deflate_file)["fast"]
    assert jobs  # the parent's helper thread is running
    pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        code = 1
        try:
            code = 0 if _walks(deflate_file)["fast"] == expected else 3
        finally:
            os._exit(code)
    assert reap(pid) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_a_walk_begun_before_the_fork(
        deflate_file, jobs, monkeypatch):
    """The fork comes between two ``next_block`` calls, with the read-ahead
    of x running on the held helper and that of v waiting in its queue:
    the child loads both baskets itself and finishes the pass."""
    expected = _walks(deflate_file)["fast"][0]
    jobs.clear()
    running, release = _hold(monkeypatch)
    with FastEventReader(deflate_file) as events:
        x = events.attach_value("x", ElementType.F32)
        v = events.attach_array("v", ElementType.F32)
        total = []
        events.next_block()
        assert len(jobs) == 2 and running.wait(10)
        pid = os.fork()
        if pid == 0:  # the child: never return into pytest
            code = 1
            try:
                monkeypatch.undo()  # the child's helper is not held
                while True:
                    total.append(float(np.sum(x.block(), dtype=np.float64)))
                    total.append(float(np.sum(v.block(), dtype=np.float64)))
                    if not events.next_block():
                        break
                code = 0 if total == expected else 3
            finally:
                os._exit(code)
        release.set()
        assert reap(pid) == 0
