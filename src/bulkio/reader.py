"""Branch-level read paths: per-entry, bulk-deserialized, bulk-serialized.

A :class:`BranchReader` resolves entries to baskets and keeps one loaded
basket, its window: the basket's serialized bytes plus, for array
branches, its per-event element counts. ``get_entry`` reads through the
window, and so do the fast iterator and the bulk frame's columns, each in
the window of a reader of its own. ``DataSource.blocks`` walks a slot's
baskets by index through its own reader's buffer. The two bulk calls
instead hand a whole basket to a caller-owned :class:`BulkBuffer`, either
deserialized to native layout or byte-for-byte in on-disk order; var-array
baskets additionally fill a :class:`CountBuffer` with per-event element
counts.

Every read in the library goes through one basket load
(``BranchReader._load``), whose callers are the window load, ``blocks``
and the two bulk calls. It checks a BOOL basket's bytes once, for every
caller except ``get_entries_serialized``, which hands raw bytes out. It
also fills the counts, and raises :class:`FormatError` when a var basket's
counts do not add up to its payload. Every stored byte is read by one
function, ``_read``, which holds the closed-file, truncation and
short-read checks.

Readers use offset-addressed reads (``os.pread``), so any number of
BranchReaders may share one open :class:`TreeFile`, including from
different threads. A single BranchReader is not thread-safe. Closing the
TreeFile closes its readers: any later read raises :class:`FileClosed`.

Read-ahead. A walk that knows its next basket (the fast iterator's
refills, ``DataSource.blocks``, the bulk frame's windows, and the two bulk
calls in a forward walk) passes the index past its last basket to the
load. When that basket and the next are compressed, the load hands the
next to the process's one helper thread, which inflates it (and a var
branch's count basket, when the load fills counts) while the caller's
thread inflates the current one; the load of that next basket then takes
the result and reads nothing ahead, so baskets go in pairs, unless the
helper has not started it and is busy with other work, when the load
reads the basket itself rather than wait in the queue. ``pread`` and
zlib release the interpreter lock, which is what lets the two inflates
overlap. Codec-none baskets, whose read costs less than a hand-off, and
``get_entry``, whose caller picks any entry, never read ahead.

* The two bulk calls of one reader share a forward walk: calls for
  basket 0, 1, 2, ... in turn, which may begin again at 0 after the last
  basket. The first call for any other basket is a jump, and from then on
  that reader's bulk calls read nothing ahead. A call refused before its
  load leaves the walk as it was; one whose load fails is a step of it.
* A read-ahead job runs only ``_read`` (a ``pread``) and
  ``decompress_payload``, given the file's shared descriptor and the
  basket descriptors: it touches no reader state. A reader holds at most
  one basket read ahead, and a walk that is abandoned or released drops
  it. The helper also runs the writer's share of compressing the baskets
  a writer call seals (see ``writer.py``): a job is any callable, kept
  under a key, the file for a read-ahead and the writer for a write.
* ``baskets_read`` is counted on the caller's thread when a load takes a
  basket, so it counts what it counted without read-ahead. An error the
  helper met is raised by the load of its basket, as that load would
  have raised it.
* ``TreeFile.close()`` cancels the file's pending read-aheads and waits
  for any that are running before it closes the descriptor; every later
  load raises :class:`FileClosed`, a basket read ahead or not, and so
  does a load that was waiting for its read-ahead when the file closed.
* The helper is a daemon thread on a queue of its own, started by the
  first job, so walks read ahead also while the interpreter shuts
  down; where no thread can start, they load every basket themselves. A
  forked child starts its own helper, and a read-ahead from before the
  fork is loaded again by the child.
"""

from __future__ import annotations

import enum
import os
import queue
import struct
import threading
import weakref
from bisect import bisect_right
from os import PathLike
from typing import Optional, Union

import numpy as np

from .errors import (
    BulkIOError,
    CountBufferRequired,
    DecompressError,
    EntryOutOfRange,
    FileClosed,
    FormatError,
    IndexOutOfRange,
    NotBasketStart,
    UnknownBranch,
)
from .format import (
    BasketDescriptor,
    BranchDescriptor,
    Codec,
    ElementType,
    FileFooter,
    ShapeKind,
    decode_element,
    decompress_payload,
    locate_footer,
)


_NATIVE_STRUCTS = {t: struct.Struct("=" + t.struct_char) for t in ElementType}
_DISK_STRUCTS = {t: struct.Struct(">" + t.struct_char) for t in ElementType}
# BOOL decodes through "?", any nonzero byte as True: the basket load checks
# a BOOL basket's bytes before anything decodes them
_NATIVE_STRUCTS[ElementType.BOOL] = struct.Struct("=?")
_DISK_STRUCTS[ElementType.BOOL] = struct.Struct(">?")
# (native, disk) unsigned ints per element width: swapping through them keeps
# every float bit pattern, NaN payloads included
_UINTS = {w: (np.dtype(f"u{w}"), np.dtype(f">u{w}")) for w in (1, 2, 4, 8)}
_VIEW_DTYPES = {t: (np.dtype(t.np_native), np.dtype(t.np_disk)) for t in ElementType}
_CODEC_NONE = Codec.NONE  # a global is cheaper than an enum lookup


class BufferState(enum.Enum):
    DESERIALIZED = "deserialized"
    SERIALIZED = "serialized"


class BulkBuffer:
    """Caller-owned byte buffer a bulk call fills with one basket.

    The storage grows as needed and is never shrunk, so a buffer reused
    across baskets allocates only on the largest basket seen. Array views
    handed out by :meth:`as_array` alias the storage and are invalidated
    (their contents overwritten) by the next fill. A fill that fails
    leaves the buffer unfilled.
    """

    __slots__ = ("_mem", "_nbytes", "state", "element_type",
                 "event_count", "element_count")

    def __init__(self, capacity_bytes: int = 0):
        self._mem = np.empty(capacity_bytes, dtype="u1")
        self._nbytes = 0
        self.state: Optional[BufferState] = None
        self.element_type: Optional[ElementType] = None
        self.event_count = 0
        self.element_count = 0

    @property
    def nbytes(self) -> int:
        """Number of valid payload bytes currently held."""
        return self._nbytes

    def _prepare(self, nbytes: int, etype: Optional[ElementType],
                 state: Optional[BufferState], event_count: int,
                 element_count: int) -> np.ndarray:
        if len(self._mem) < nbytes:
            self._mem = np.empty(nbytes, dtype="u1")
        self._nbytes = nbytes
        self.state = state
        self.element_type = etype
        self.event_count = event_count
        self.element_count = element_count
        return self._mem[:nbytes]

    def as_array(self) -> np.ndarray:
        """View the valid region as typed elements (no copy).

        Deserialized buffers view as the native dtype; serialized buffers as
        the on-disk big-endian dtype, so element access decodes lazily.
        """
        state = self.state
        if state is None:
            raise IndexOutOfRange("buffer has not been filled")
        dtypes = _VIEW_DTYPES[self.element_type]
        return self._mem[:self._nbytes].view(
            dtypes[state is BufferState.SERIALIZED])

    def value_at(self, etype: ElementType, idx: int):
        """Decode the idx-th element, interpreting the bytes as ``etype``.

        Deserialized buffers load native-layout elements directly (their
        BOOL bytes were checked when filled); serialized buffers decode one
        big-endian element per call, with no caching.
        """
        w = etype.width_bytes
        off = idx * w
        if idx < 0 or off + w > self._nbytes:
            raise IndexOutOfRange(
                f"element {idx} not in buffer of {self._nbytes} bytes"
            )
        if self.state is BufferState.SERIALIZED:
            return decode_element(self._mem[off:off + w].tobytes(), etype)
        return _NATIVE_STRUCTS[etype].unpack_from(self._mem.data, off)[0]

    def to_bytes(self) -> bytes:
        """Copy of the valid payload bytes."""
        return self._mem[:self._nbytes].tobytes()


class CountBuffer:
    """Per-event element counts for one var-array basket."""

    __slots__ = ("_mem", "event_count")

    def __init__(self, capacity_events: int = 0):
        self._mem = np.empty(capacity_events, dtype="u4")
        self.event_count = 0

    def _set(self, counts: np.ndarray) -> None:
        n = len(counts)
        if len(self._mem) < n:
            self._mem = np.empty(n, dtype="u4")
        self._mem[:n] = counts
        self.event_count = n

    @property
    def counts(self) -> np.ndarray:
        return self._mem[:self.event_count]

    def offsets(self) -> np.ndarray:
        """Element offsets per event (prefix sums), length event_count + 1."""
        out = np.zeros(self.event_count + 1, dtype="i8")
        np.cumsum(self._mem[:self.event_count], out=out[1:])
        return out

    def total(self) -> int:
        return int(self._mem[:self.event_count].sum()) if self.event_count else 0

    def __len__(self) -> int:
        return self.event_count

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.event_count:
            raise IndexOutOfRange(f"event {i} not in count buffer")
        return int(self._mem[i])


class _OpenFile:
    """A TreeFile's descriptor, shared by its readers; -1 once closed."""

    __slots__ = ("fobj", "fd", "payload_end", "cached", "_starts")

    def __init__(self, fobj, payload_end: int):
        self.fobj = fobj  # keeps the file open as long as any reader lives
        self.fd = fobj.fileno()
        self.payload_end = payload_end  # where the footer begins
        # every reader, whose window and read-ahead must not outlive close
        self.cached: "weakref.WeakSet[BranchReader]" = weakref.WeakSet()
        self._starts: dict[str, list[int]] = {}

    def starts(self, desc: BranchDescriptor) -> list[int]:
        """The first entry of each basket of a branch, built once per file
        and shared by its readers, which never modify it."""
        firsts = self._starts.get(desc.name)
        if firsts is None:
            firsts = self._starts[desc.name] = [b.first_entry for b in desc.baskets]
        return firsts

    def close(self) -> None:
        # the closed descriptor's number may soon belong to another file
        self.fd = -1
        for rd in list(self.cached):
            rd._drop_cache()
        _helper.drain(self)  # a running read-ahead still reads self.fd
        self.fobj.close()


def _read(file: _OpenFile, name: str, bk: BasketDescriptor,
          mem: Optional[np.ndarray] = None) -> Optional[bytes]:
    """Read ``bk``'s stored bytes, into ``mem`` when given (a codec-none
    basket's buffer) or else as new bytes. A closed file raises FileClosed;
    a basket running into the footer, or a short read, means truncation."""
    fd = file.fd
    if fd < 0:
        raise FileClosed(f"branch {name!r}: its file is closed")
    size = bk.compressed_size
    if bk.file_offset + size > file.payload_end:
        raise DecompressError(
            f"truncated basket at entry {bk.first_entry} of branch "
            f"{name!r}: it runs into the footer at byte {file.payload_end}"
        )
    if mem is None:
        raw = os.pread(fd, size, bk.file_offset)
        got = len(raw)
    else:
        raw = None
        got = os.preadv(fd, [mem], bk.file_offset) if size else 0
    if got != size:
        raise DecompressError(
            f"truncated basket at entry {bk.first_entry} of branch "
            f"{name!r}: read {got} of {size} bytes"
        )
    return raw


def _inflate(file: _OpenFile, name: str, bk: BasketDescriptor) -> tuple:
    """``(read, payload)`` of one basket: ``read`` says its stored bytes were
    read, and ``payload`` is their inflated bytes, or the BulkIOError that
    stopped the read or the inflate, for the load to raise."""
    try:
        raw = _read(file, name, bk)
    except BulkIOError as exc:
        return False, exc
    try:
        return True, decompress_payload(raw, bk.codec, bk.uncompressed_size)
    except BulkIOError as exc:
        return True, exc


def _inflate_all(file: _OpenFile, baskets: list) -> list:
    """A read-ahead job: ``_inflate`` each ``(name, basket)`` in turn, up to
    the first that fails."""
    out = []
    for name, bk in baskets:
        out.append(_inflate(file, name, bk))
        if isinstance(out[-1][1], BulkIOError):
            break
    return out


class _Job:
    """One piece of the helper's work: ``fn(*args)``, run under ``key`` (a
    read-ahead's file, or a writer), the helper that runs it, and, once
    ``finished`` is set, what ``fn`` returned in ``out``: None when the job
    was cancelled or raised, and its submitter then does the work itself."""

    __slots__ = ("key", "fn", "args", "helper", "out", "finished")

    def __init__(self, key, fn, args: tuple, helper: "_Helper"):
        self.key = key
        self.fn = fn
        self.args = args
        self.helper = helper
        self.out = None
        self.finished = threading.Event()


class _Helper:
    """The process's one helper thread and its jobs not yet done.

    The thread is a daemon, started by the first job and fed by a queue of
    its own, so it takes jobs for as long as the interpreter runs threads:
    also from a thread still running after the main one returned, and from
    an atexit handler, where ``concurrent.futures`` refuses new work.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._queue: "queue.SimpleQueue[_Job]" = queue.SimpleQueue()
        self._jobs: dict[_Job, bool] = {}  # each job not done: is it running
        self._started = False

    def submit(self, key, fn, *args) -> Optional[_Job]:
        """Queue ``fn(*args)`` under ``key``; None when no thread can start
        (the interpreter is shutting down), and the caller then does the
        work itself."""
        job = _Job(key, fn, args, self)
        with self._lock:
            if not self._started:
                try:
                    threading.Thread(target=self._run, daemon=True,
                                     name="bulkio-helper").start()
                except RuntimeError:
                    return None
                self._started = True
            self._jobs[job] = False
        self._queue.put(job)
        return job

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            with self._lock:
                if job not in self._jobs:
                    continue  # cancelled while it waited
                self._jobs[job] = True
            try:
                job.out = job.fn(*job.args)
            except Exception:
                pass  # the submitter meets the same error doing the work itself
            finally:
                with self._lock:
                    del self._jobs[job]
                job.finished.set()

    def cancel(self, job: _Job, behind: bool = False) -> bool:
        """Drop ``job`` unless it runs or is done, and with ``behind`` only
        while another job runs, that is while it waits behind other work;
        True when it was dropped. A job from before a fork is not this
        helper's, and is left alone."""
        with self._lock:
            if self._jobs.get(job) is not False or (
                    behind and True not in self._jobs.values()):
                return False
            del self._jobs[job]
        job.finished.set()
        return True

    def drain(self, key) -> None:
        """Cancel ``key``'s pending jobs and wait for its running ones."""
        with self._lock:
            jobs = [job for job in self._jobs if job.key is key]
        for job in jobs:
            self.cancel(job)
            job.finished.wait()


_helper = _Helper()


def _new_helper() -> None:
    # a forked child has no helper thread, and its readers' jobs from before
    # the fork are the old helper's, which no thread will finish
    global _helper
    _helper = _Helper()


os.register_at_fork(after_in_child=_new_helper)


class BranchReader:
    """Reads one branch of an open tree file. Not thread-safe; cheap to make.

    ``get_entry`` returns a scalar here; array branches get a subclass whose
    ``get_entry`` returns a fresh native array.
    """

    __slots__ = ("_file", "_desc", "_etype", "_width", "_k", "_baskets",
                 "_firsts", "_n_entries", "_ck_first", "_ck_end", "_ck_payload",
                 "_ck_buf", "_ck_counts", "_baskets_read", "_unpack_from",
                 "_uint", "_dtypes", "_bool", "_var", "_ahead", "_walk",
                 "__weakref__")

    def __init__(self, file: _OpenFile, descriptor: BranchDescriptor):
        self._file = file
        self._desc = descriptor
        self._etype = etype = descriptor.element
        self._width = etype.width_bytes
        shape = descriptor.shape
        # elements per event, except for var arrays (counted per basket)
        self._k = shape.fixed_len if shape.kind is ShapeKind.FIXED_ARRAY else 1
        self._baskets = descriptor.baskets
        self._firsts = file.starts(descriptor)
        self._n_entries = descriptor.n_entries
        self._ck_first = 0
        self._ck_end = 0
        self._ck_payload = b""
        self._ck_buf = BulkBuffer()
        self._ck_counts: Optional[CountBuffer] = None
        self._baskets_read = 0
        self._unpack_from = _DISK_STRUCTS[etype].unpack_from
        # what each load of a basket needs, looked up once per reader
        self._uint = _UINTS[self._width]
        self._dtypes = _VIEW_DTYPES[etype]  # (native, disk)
        self._bool = etype is ElementType.BOOL
        self._var = shape.kind is ShapeKind.VAR_ARRAY
        self._ahead: Optional[tuple[int, _Job]] = None  # (basket, its job)
        # the basket the bulk calls' forward walk loads next; -1 after a jump
        self._walk = 0
        file.cached.add(self)

    # --- metadata ---

    @property
    def descriptor(self) -> BranchDescriptor:
        return self._desc

    @property
    def name(self) -> str:
        return self._desc.name

    @property
    def element_type(self) -> ElementType:
        return self._etype

    @property
    def n_entries(self) -> int:
        return self._n_entries

    @property
    def baskets_read(self) -> int:
        """Number of basket payloads fetched (and decompressed) so far."""
        return self._baskets_read

    def basket_bounds(self, entry: int) -> tuple[int, int]:
        """(first_entry, n_entries) of the basket containing ``entry``."""
        idx = self._basket_index(entry)
        bk = self._baskets[idx]
        return bk.first_entry, bk.n_entries

    # --- basket location / payload fetch ---

    def _basket_index(self, entry: int) -> int:
        if entry < 0 or entry >= self._n_entries:
            raise EntryOutOfRange(
                f"entry {entry} not in [0, {self._n_entries}) of branch "
                f"{self._desc.name!r}"
            )
        return bisect_right(self._firsts, entry) - 1

    def _basket_at_start(self, entry: int) -> int:
        idx = self._basket_index(entry)
        if self._firsts[idx] != entry:
            raise NotBasketStart(
                f"entry {entry} is not a basket start of branch "
                f"{self._desc.name!r} (basket begins at {self._firsts[idx]})"
            )
        return idx

    def _drop_cache(self) -> None:
        self._ck_first = self._ck_end = 0  # every entry misses the window
        self._drop_ahead()

    def _drop_ahead(self) -> None:
        """Drop the basket read ahead, if any: a walk stopped before it."""
        ahead = self._ahead  # read once: another thread may close the file
        if ahead is not None:
            self._ahead = None
            _helper.cancel(ahead[1])

    def _take(self, fetched: tuple) -> bytes:
        """A basket's inflated payload from its ``_inflate`` outcome, counted
        as read once its bytes were; raises the error that stopped it."""
        read, payload = fetched
        if read:
            self._baskets_read += 1
        if isinstance(payload, BulkIOError):
            raise payload
        return payload

    def _fetch(self, bk: BasketDescriptor) -> bytes:
        return self._take(_inflate(self._file, self._desc.name, bk))

    def _claim(self, idx: int) -> Optional[list]:
        """The helper's outcomes for basket ``idx`` if it was read ahead,
        else None and the load reads it itself: a read-ahead of any other
        basket is dropped, and so is one that was cancelled, comes from
        before a fork or finished after its file closed. A read-ahead not
        yet started while the helper runs other work (a writer's, or another
        reader's) is dropped too, since reading it here is sooner; the load
        waits only for one that runs, or one queued while no job runs."""
        ahead = self._ahead  # read once: another thread may close the file
        self._ahead = None
        if ahead is None:
            return None
        ahead_idx, job = ahead
        if ahead_idx != idx or job.helper is not _helper:
            _helper.cancel(job)
            return None
        if _helper.cancel(job, behind=True):
            return None
        job.finished.wait()
        return job.out if self._file.fd >= 0 else None

    def _start_ahead(self, idx: int, counts: bool) -> None:
        """Hand basket ``idx`` to the helper, and a var branch's count basket
        ``idx`` too when ``counts`` says the walk fills counts."""
        file = self._file
        if file.fd < 0:
            return  # the caller's own load raises FileClosed
        baskets = [(self._desc.name, self._baskets[idx])]
        if counts and self._var:
            cr = self.count_reader
            baskets.append((cr._desc.name, cr._baskets[idx]))
        job = _helper.submit(file, _inflate_all, file, baskets)
        if job is not None:
            self._ahead = (idx, job)

    def _load(self, idx: int, buf: BulkBuffer, counts: Optional[CountBuffer] = None,
              stop: int = 0, state: BufferState = BufferState.SERIALIZED,
              check_bool: bool = True) -> np.ndarray:
        """Fill ``buf`` with basket ``idx``: the one basket load of every read.

        Returns the filled bytes (``u1``). It checks a BOOL basket's bytes,
        unless ``check_bool`` is false. Given ``counts``, it fills them with
        the basket's per-event element counts, whose ``offsets()`` index its
        events: computed for scalars and fixed arrays, read from the count
        basket for var arrays, where counts that do not add up to the
        payload raise FormatError. A failed load leaves ``buf`` unfilled.

        A walk whose next loads are baskets ``idx + 1`` up to ``stop - 1``
        passes ``stop``: unless this basket was read ahead, the next one is
        then read ahead when both are compressed, with a var branch's count
        basket only when this load fills ``counts``.
        """
        bk = self._baskets[idx]
        nbytes = bk.uncompressed_size
        swap = state is BufferState.DESERIALIZED and self._width > 1
        try:
            # a compressed basket is inflated before the buffer is sized, so a
            # recorded size its stream does not reach allocates nothing
            if bk.codec is _CODEC_NONE:
                got = payload = None
            else:
                got = None if self._ahead is None else self._claim(idx)
                if (got is None and idx + 1 < stop
                        and self._baskets[idx + 1].codec is not _CODEC_NONE):
                    self._start_ahead(idx + 1, counts is not None)
                payload = self._fetch(bk) if got is None else self._take(got[0])
            mem = buf._prepare(nbytes, self._etype, state, bk.n_entries,
                               nbytes // self._width)
            if payload is None:
                _read(self._file, self._desc.name, bk, mem)
                self._baskets_read += 1
                if swap:  # numpy swaps two views of one memory without a copy
                    np.copyto(mem.view(self._uint[0]), mem.view(self._uint[1]))
            elif swap:
                mem.view(self._dtypes[0])[:] = np.frombuffer(payload,
                                                             dtype=self._dtypes[1])
            else:  # 1-byte types copy verbatim, so the BOOL check sees raw bytes
                mem[:] = np.frombuffer(payload, dtype="u1")
            if check_bool and self._bool and nbytes and int(mem.max()) > 1:
                raise FormatError(f"invalid BOOL byte in basket at entry "
                                  f"{bk.first_entry} of branch {self._desc.name!r}")
            if counts is None:
                return mem
            if self._var:
                cr = self.count_reader
                # a read-ahead started by a load without counts has none
                raw = (cr._take(got[1]) if got is not None and len(got) > 1
                       else cr._fetch(cr._baskets[idx]))
                counts._set(np.frombuffer(raw, dtype=">u4"))
                total = counts.total()
            else:  # n copies of k, without summing them
                counts._set(np.full(bk.n_entries, self._k, dtype="u4"))
                total = bk.n_entries * self._k
            if total * self._width != nbytes:
                raise FormatError(
                    f"branch {self._desc.name!r}: basket at entry {bk.first_entry} "
                    f"has {nbytes} payload bytes but counts sum to {total} elements"
                )
        except BaseException:
            buf._prepare(0, None, None, 0, 0)
            raise
        return mem

    # --- bulk reads ---

    def _walk_stop(self, idx: int) -> int:
        """The ``stop`` a bulk call passes to its load of basket ``idx``.

        The two bulk calls share one forward walk, from basket 0 one basket
        per call, and a call for the walk's next basket reads ahead; after
        the last basket the walk may begin again at 0. Any other call jumps:
        it and every later bulk call of this reader read nothing ahead.
        """
        if idx != self._walk:
            self._walk = -1
            return 0
        n = len(self._baskets)
        self._walk = idx + 1 if idx + 1 < n else 0
        return n

    def get_bulk_entries(self, entry: int, user_buf: BulkBuffer) -> int:
        """Copy the basket starting at ``entry`` into ``user_buf``, deserialized.

        ``entry`` must be a basket start; returns the basket's event count.
        Called for basket 0, 1, 2, ... in turn (a forward walk, shared with
        ``get_entries_serialized``), a compressed basket's load reads the
        next one ahead; a call for any other basket is a jump, after which
        this reader's bulk calls read nothing ahead.
        """
        idx = self._basket_at_start(entry)
        self._load(idx, user_buf, stop=self._walk_stop(idx),
                   state=BufferState.DESERIALIZED)
        return user_buf.event_count

    def get_entries_serialized(self, entry: int, user_buf: BulkBuffer,
                               count_buf: Optional[CountBuffer] = None) -> int:
        """Copy the basket starting at ``entry`` byte-for-byte (on-disk order).

        Var-array branches require ``count_buf``, which receives the
        per-event element counts; other shapes fill it if provided. BOOL
        bytes are handed out unchecked. Returns the basket's event count.
        It reads ahead in a forward walk as ``get_bulk_entries`` does, and
        a var branch's count basket only when ``count_buf`` is given.
        """
        idx = self._basket_at_start(entry)
        if self._var and count_buf is None:
            raise CountBufferRequired(
                f"branch {self._desc.name!r} is a var array; pass a CountBuffer"
            )
        self._load(idx, user_buf, count_buf, self._walk_stop(idx), check_bool=False)
        return user_buf.event_count

    # --- per-entry read ---

    def _seek_entry(self, entry: int, stop: int = 0) -> None:
        """Load the basket holding ``entry`` as the window: serialized, BOOL
        bytes checked, counts filled for array branches. ``stop`` goes to
        the load: the basket index past a walk's last, or 0 outside one."""
        self._ck_first = self._ck_end = 0  # a failed load leaves no window
        idx = self._basket_index(entry)
        bk = self._baskets[idx]
        counts = self._ck_counts
        if (counts is not None and counts.event_count == bk.n_entries
                and not self._var):
            counts = None  # they are already n copies of the fixed length
        self._load(idx, self._ck_buf, counts, stop)
        self._ck_first = first = bk.first_entry
        self._ck_end = first + bk.n_entries

    def get_entry(self, entry: int):
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            self._ck_payload = self._ck_buf._mem.data
            first = self._ck_first
        return self._unpack_from(self._ck_payload, (entry - first) * self._width)[0]


class _ArrayReader(BranchReader):
    """Fixed and var arrays: ``get_entry`` slices the basket by its offsets."""

    __slots__ = ("count_reader", "_ck_view", "_ck_offsets")

    def __init__(self, file: _OpenFile, descriptor: BranchDescriptor,
                 count_descriptor: Optional[BranchDescriptor] = None):
        super().__init__(file, descriptor)
        self._ck_counts = CountBuffer()
        self._ck_view = None
        self._ck_offsets: list[int] = []
        if count_descriptor is not None:  # var arrays: their u32 count branch
            self.count_reader = BranchReader(file, count_descriptor)

    def get_entry(self, entry: int) -> np.ndarray:
        first = self._ck_first
        if entry < first or entry >= self._ck_end:
            self._seek_entry(entry)
            self._ck_offsets = self._ck_counts.offsets().tolist()
            self._ck_view = self._ck_buf.as_array()
            first = self._ck_first
        offs = self._ck_offsets
        local = entry - first
        return self._ck_view[offs[local]:offs[local + 1]].astype(self._dtypes[0])


def _make_reader(file: _OpenFile, footer: FileFooter, index: int) -> BranchReader:
    desc = footer.branches[index]
    kind = desc.shape.kind
    if kind is ShapeKind.SCALAR:
        return BranchReader(file, desc)
    count = (footer.branches[desc.shape.count_branch]
             if kind is ShapeKind.VAR_ARRAY else None)
    return _ArrayReader(file, desc, count)


class TreeFile:
    """An open bulk file: footer metadata plus a factory for branch readers."""

    def __init__(self, path: Union[str, PathLike]):
        self._fobj = open(path, "rb")
        try:
            self.footer, payload_end = locate_footer(self._fobj)
        except Exception:
            self._fobj.close()
            raise
        self.path = os.fspath(path)
        self._file = _OpenFile(self._fobj, payload_end)

    @property
    def n_entries(self) -> int:
        return self.footer.n_entries

    @property
    def tree_name(self) -> str:
        return self.footer.tree_name

    @property
    def branch_names(self) -> list[str]:
        return [b.name for b in self.footer.branches]

    def branch(self, name: str) -> BranchReader:
        """A fresh reader for the named branch (readers are independent)."""
        try:
            index = self.footer.branch_index(name)
        except KeyError:
            raise UnknownBranch(
                f"no branch {name!r} in tree {self.footer.tree_name!r}"
            ) from None
        return _make_reader(self._file, self.footer, index)

    def close(self) -> None:
        """Close the file and every reader made from it."""
        self._file.close()

    def __enter__(self) -> "TreeFile":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
