"""Writer hand-off: a DEFLATE writer call shares its baskets' compression
with the helper thread, and survives a helper that fails, is busy, is
shutting down with the interpreter, or was left behind by a fork."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import bulkio.reader as reader
import bulkio.writer as writer
from bulkio import (
    Codec,
    ElementType,
    FastEventReader,
    TreeWriter,
    WriteError,
    WriterClosed,
    scalar,
    var_array,
)

from conftest import reap

CAPACITY = 8192
N = 3 * CAPACITY + 1000  # one extend seals three baskets of three branches
SCHEMA = [("x", ElementType.F32, scalar()), ("v", ElementType.I32, var_array())]


def _columns() -> dict:
    rng = np.random.default_rng(23)
    counts = rng.integers(0, 8, N).astype("u4")
    return {"x": rng.integers(0, 1 << 24, N).astype("f4"),
            "v": (rng.integers(0, 1 << 24, int(counts.sum()), dtype="i4"), counts)}


def _write(path) -> None:
    """One extend that hands work to the helper, then close."""
    with TreeWriter(path, SCHEMA, basket_capacity_entries=CAPACITY,
                    codec=Codec.DEFLATE) as w:
        w.extend(**_columns())


@pytest.fixture
def expected(tmp_path, monkeypatch) -> bytes:
    """The file's bytes as the caller's thread alone writes them."""
    path = tmp_path / "alone.bkio"
    with monkeypatch.context() as m:  # a helper of its own: no spy reaches it
        m.setattr(reader._Helper, "submit", lambda self, *args: None)
        m.setattr(reader, "_helper", reader._Helper())
        _write(path)
    return path.read_bytes()


def test_a_failing_helper_leaves_its_payloads_to_the_caller(
        tmp_path, monkeypatch, expected, jobs):
    """Compression raises on the helper thread only: the caller, held
    until the helper has failed, compresses what the helper took."""
    failed = threading.Event()
    real = writer.compress_payload

    def compress(data, codec):
        if threading.current_thread().name == "bulkio-helper":
            failed.set()
            raise RuntimeError("compression failed on the helper")
        failed.wait(10)
        return real(data, codec)

    monkeypatch.setattr(writer, "compress_payload", compress)
    path = tmp_path / "shared.bkio"
    _write(path)
    assert failed.is_set() and len(jobs) == 1
    assert jobs[0].finished.is_set() and jobs[0].out is None
    assert path.read_bytes() == expected


def test_a_busy_helper_makes_no_writer_wait(tmp_path, monkeypatch, expected, jobs):
    """The helper is held inside a read-ahead: the writer's job never
    starts, the writer cancels it and compresses everything itself."""
    src = tmp_path / "src.bkio"
    _write(src)
    jobs.clear()
    running, release = threading.Event(), threading.Event()
    real = reader._inflate

    def inflate(file, name, bk):
        if threading.current_thread().name == "bulkio-helper":
            running.set()
            release.wait(30)
        return real(file, name, bk)

    monkeypatch.setattr(reader, "_inflate", inflate)
    on_helper = []
    real_compress = writer.compress_payload

    def compress(data, codec):
        if threading.current_thread().name == "bulkio-helper":
            on_helper.append(len(data))
        return real_compress(data, codec)

    monkeypatch.setattr(writer, "compress_payload", compress)
    path, errors = tmp_path / "shared.bkio", []

    def write():
        try:
            _write(path)
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    with FastEventReader(src) as events:
        events.attach_value("x", ElementType.F32)
        try:
            events.next_block()  # reads basket 1 ahead on the held helper
            assert running.wait(10)
            t = threading.Thread(target=write)
            t.start()
            t.join(20)
            assert not t.is_alive(), "the writer waited for the busy helper"
        finally:
            release.set()
    assert not errors
    writes = [job for job in jobs if isinstance(job.key, TreeWriter)]
    assert len(writes) == 1 and writes[0].finished.is_set()
    assert writes[0] not in reader._helper._jobs and not on_helper
    assert path.read_bytes() == expected


def test_writers_on_many_threads_share_the_helper(tmp_path, expected):
    """Four threads write at once, switching often, through the one
    helper: every file has the bytes of a write on one thread."""
    got, errors = [], []

    def work(k: int):
        try:
            for i in range(3):
                path = tmp_path / f"w{k}-{i}.bkio"
                _write(path)
                got.append(path.read_bytes() == expected)
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert got == [True] * 12


def test_a_failed_basket_write_abandons_the_writer(tmp_path, jobs):
    """An OSError writing a basket, after its call compressed them all,
    raises WriteError and closes the writer; no job is left behind."""
    w = TreeWriter(tmp_path / "w.bkio", SCHEMA, basket_capacity_entries=CAPACITY,
                   codec=Codec.DEFLATE)

    class Full:
        def __init__(self, fobj):
            self.fobj = fobj

        def tell(self):
            return self.fobj.tell()

        def write(self, data):
            raise OSError(28, "No space left on device")

        def close(self):
            self.fobj.close()

    w._fobj = Full(w._fobj)
    with pytest.raises(WriteError, match="basket write failed"):
        w.extend(**_columns())
    assert len(jobs) == 1 and jobs[0].finished.is_set()
    with pytest.raises(WriterClosed):
        w.fill(x=1.0, v=[1])
    with pytest.raises(WriterClosed):
        w.close()


_WRITE_AT_SHUTDOWN = """
import atexit, hashlib, sys, threading
sys.path.insert(0, sys.argv[1])
import test_write_ahead as t
import bulkio.reader as reader

def write(when):
    path = f"{sys.argv[2]}.{when}"
    t._write(path)
    with open(path, "rb") as f:
        print(when, hashlib.sha256(f.read()).hexdigest(), reader._helper._started,
              flush=True)

def after_main():
    threading.main_thread().join()  # returns once the interpreter shuts down
    write("thread")

atexit.register(write, "atexit")
threading.Thread(target=after_main).start()
"""


def test_writes_while_the_interpreter_shuts_down(tmp_path, expected):
    """A thread still writing after the main one returned, then an atexit
    handler, each write the bytes of a write on one thread."""
    src = os.path.dirname(os.path.dirname(reader.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _WRITE_AT_SHUTDOWN, os.path.dirname(__file__),
         str(tmp_path / "w.bkio")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0 and not run.stderr, run.stderr
    digest = hashlib.sha256(expected).hexdigest()
    assert run.stdout.splitlines() == [f"thread {digest} True",
                                       f"atexit {digest} True"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_through_its_own_helper(tmp_path, expected, jobs):
    """The parent's helper has run a writer job; the child, which has no
    helper thread, starts its own and writes the same bytes."""
    _write(tmp_path / "parent.bkio")
    assert len(jobs) == 1
    path = tmp_path / "child.bkio"
    pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        code = 1
        try:
            _write(path)
            ok = path.read_bytes() == expected and reader._helper._started
            code = 0 if ok else 3
        finally:
            os._exit(code)
    assert reap(pid) == 0
