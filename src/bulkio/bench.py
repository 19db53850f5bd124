"""Benchmark harness: deterministic file generation, timed read scenarios,
correctness verification and CSV reporting.

Seven scenarios read the same file and must produce bit-identical float64
checksums (that gate comes before any timing claim). On a scalar column
every scenario computes the one sum of :mod:`bulkio.dataframe`: each
basket's pairwise ``np.add.reduce`` over a contiguous float64 array of its
values, collected per event or cast from the basket, added left to right
from +0.0. So any scalar file passes, whatever its values. On an array
column the orders still differ: get-entry and reader add up each event's
``np.sum`` in turn, the two frame scenarios take ``Frame.sum`` of it, and
bulk, fast-reader and rds-bulk sum whole baskets. They agree on integer
data such as :func:`generate` writes; one order for array columns is
left for later.

* ``get-entry``      one library call per event
* ``bulk``           whole deserialized baskets, native-layout reduction
* ``reader``         plain event iterator (dereference -> get_entry)
* ``fast-reader``    fast iterator, serialized blocks decoded in the reduction
* ``rdf-standard``   frame dispatch per event over a per-entry source
* ``rdf-bulk``       the frame over a bulk source: a bare sum of a scalar
                     column switches to whole-basket kernels (the array
                     plan); a var column's per-event define keeps dispatch
                     per event (the indexed plan)
* ``rds-bulk``       direct source-buffer reduction, no frame dispatch

Wall time covers iterating all events; readers are opened fresh for every
repetition and closed after it, outside the timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from os import PathLike
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .dataframe import (
    Frame,
    SourceMode,
    _Sum,
    _sum_baskets,
    direct_sum,
    make_source,
)
from .errors import (
    BenchmarkIntegrityError,
    BulkIOError,
    EmptyBenchmark,
    NoRecords,
)
from .format import BranchShape, Codec, ElementType, ShapeKind, decompress_payload
from .iterator import EventReader, FastEventReader
from .reader import BulkBuffer, CountBuffer, TreeFile
from .writer import DEFAULT_BASKET_CAPACITY, TreeWriter, WriteStats

PathArg = Union[str, PathLike]

RAMP_MODULUS = 1 << 24  # keeps float32 ramp values exactly representable


@dataclass(frozen=True)
class Scenario:
    id: str
    description: str


@dataclass(frozen=True)
class BenchRecord:
    scenario: str
    n_entries: int
    basket_capacity: int
    codec: str
    repetition: int
    wall_seconds: float
    events_per_second: float
    checksum: float


SCENARIOS: dict[str, Scenario] = {s.id: s for s in [
    Scenario("get-entry", "per-event branch reads"),
    Scenario("bulk", "deserialized whole-basket reads"),
    Scenario("reader", "plain event iterator over get_entry"),
    Scenario("fast-reader", "fast iterator over serialized blocks"),
    Scenario("rdf-standard", "frame dispatch, per-entry source"),
    Scenario("rdf-bulk", "frame over a bulk source, array plan when bare"),
    Scenario("rds-bulk", "direct source-buffer reduction"),
]}


# --- deterministic content generation ---

def _ramp_modulus(etype: ElementType) -> int:
    caps = {
        ElementType.I8: 1 << 7, ElementType.U8: 1 << 8,
        ElementType.I16: 1 << 15, ElementType.U16: 1 << 16,
        ElementType.BOOL: 2,
    }
    return caps.get(etype, RAMP_MODULUS)


def generate(entries: int, etype: ElementType = ElementType.F32,
             shape: Optional[BranchShape] = None,
             basket_capacity: int = DEFAULT_BASKET_CAPACITY,
             codec: Codec = Codec.NONE,
             out: PathArg = "bench.bkio",
             branch_name: str = "x") -> WriteStats:
    """Write a deterministic benchmark file: value ramp modulo the type's cap.

    Scalar files hold v[i] = i mod 2^24 (smaller caps for narrow integers);
    array shapes continue the ramp element-wise, var arrays with per-event
    lengths cycling 0..7.
    """
    if entries < 1:
        raise EmptyBenchmark("benchmark files need at least one entry")
    shape = shape or BranchShape(ShapeKind.SCALAR)
    modulus = _ramp_modulus(etype)
    native = etype.np_native
    writer = TreeWriter(out, [(branch_name, etype, shape)],
                        basket_capacity_entries=basket_capacity, codec=codec)
    chunk = max(basket_capacity, 1 << 16)
    element_base = 0
    with writer:
        for lo in range(0, entries, chunk):
            hi = min(lo + chunk, entries)
            if shape.kind is ShapeKind.SCALAR:
                vals = (np.arange(lo, hi, dtype=np.int64) % modulus).astype(native)
                writer.extend(**{branch_name: vals})
            elif shape.kind is ShapeKind.FIXED_ARRAY:
                k = shape.fixed_len
                idx = np.arange(lo * k, hi * k, dtype=np.int64)
                vals = (idx % modulus).astype(native).reshape(hi - lo, k)
                writer.extend(**{branch_name: vals})
            else:
                counts = (np.arange(lo, hi, dtype=np.int64) % 8).astype("u4")
                total = int(counts.sum())
                idx = np.arange(element_base, element_base + total, dtype=np.int64)
                flat = (idx % modulus).astype(native)
                element_base += total
                writer.extend(**{branch_name: (flat, counts)})
        return writer.close()


def ramp_checksum(entries: int, etype: ElementType = ElementType.F32) -> float:
    """Expected scalar-file checksum, computed independently of the readers."""
    modulus = _ramp_modulus(etype)
    full, rem = divmod(entries, modulus)
    total = full * (modulus * (modulus - 1) // 2) + rem * (rem - 1) // 2
    return float(total)


# --- scenario runners ---

def _user_branch(tf: TreeFile) -> str:
    """First branch that is not some var branch's count branch."""
    count_idx = {
        b.shape.count_branch
        for b in tf.footer.branches if b.shape.kind is ShapeKind.VAR_ARRAY
    }
    for i, b in enumerate(tf.footer.branches):
        if i not in count_idx:
            return b.name
    raise BulkIOError("file has no user branches")


def _closing(resource, go: Callable[[], float]) -> Callable[[], float]:
    """``go`` carrying ``resource.close``, which :func:`run` calls once the
    repetition is timed."""
    go.close = resource.close
    return go


def _prep_get_entry(path: PathArg) -> Callable[[], float]:
    tf = TreeFile(path)
    rd = tf.branch(_user_branch(tf))
    n = rd.n_entries
    if rd.descriptor.shape.kind is ShapeKind.SCALAR:
        spans = [(bk.first_entry, bk.first_entry + bk.n_entries)
                 for bk in rd.descriptor.baskets]

        def go() -> float:
            ge = rd.get_entry
            s = _Sum()
            for first, end in spans:
                s.add([ge(entry) for entry in range(first, end)])
            return s.total()
    else:
        def go() -> float:
            ge = rd.get_entry
            s = 0.0
            for entry in range(n):
                s += float(np.sum(ge(entry), dtype=np.float64))
            return s
    return _closing(tf, go)


def _prep_bulk(path: PathArg) -> Callable[[], float]:
    tf = TreeFile(path)
    rd = tf.branch(_user_branch(tf))
    n = rd.n_entries

    def baskets():
        buf = BulkBuffer()
        read = rd.get_bulk_entries
        entry = 0
        while entry < n:
            entry += read(entry, buf)
            yield buf.as_array()

    return _closing(tf, lambda: _sum_baskets(0.0, baskets()))


def _prep_reader(path: PathArg) -> Callable[[], float]:
    tf = TreeFile(path)
    name = _user_branch(tf)
    rd = tf.branch(name)
    events = EventReader(tf)
    if rd.descriptor.shape.kind is ShapeKind.SCALAR:
        proxy = events.attach_value(name, rd.element_type)
        sizes = [bk.n_entries for bk in rd.descriptor.baskets]

        def go() -> float:
            advance = events.next
            deref = proxy.deref
            s = _Sum()
            for size in sizes:  # each basket's events, advancing to each
                s.add([deref() for _ in range(size) if advance()])
            return s.total()
    else:
        proxy = events.attach_array(name, rd.element_type)

        def go() -> float:
            advance = events.next
            deref = proxy.deref
            s = 0.0
            while advance():
                s += float(np.sum(deref(), dtype=np.float64))
            return s
    return _closing(tf, go)


def _prep_fast_reader(path: PathArg) -> Callable[[], float]:
    tf = TreeFile(path)
    name = _user_branch(tf)
    rd = tf.branch(name)
    events = FastEventReader(tf)
    if rd.descriptor.shape.kind is ShapeKind.SCALAR:
        proxy = events.attach_value(name, rd.element_type)
    else:
        proxy = events.attach_array(name, rd.element_type)

    def go() -> float:  # a block is a basket; next_block gives 0 at the end
        blocks = (proxy.block() for _ in iter(events.next_block, 0))
        return _sum_baskets(0.0, blocks)

    return _closing(tf, go)


def _elem_sum(values: np.ndarray) -> float:
    return float(np.sum(values, dtype=np.float64))


def _prep_rdf(path: PathArg, mode: SourceMode) -> Callable[[], float]:
    source = make_source(path, mode=mode, n_slots=1)
    with TreeFile(path) as tf:
        name = _user_branch(tf)
        shape = tf.footer.branches[tf.footer.branch_index(name)].shape
    frame = Frame(source)
    if shape.kind is not ShapeKind.SCALAR:
        # Frame.sum takes scalars: sum each event's elements first, in order
        column = name
        name = f"{column}.elem_sum"
        frame = frame.define(name, _elem_sum, [column])
    return _closing(source, lambda: frame.sum(name))


def _prep_rds_bulk(path: PathArg) -> Callable[[], float]:
    source = make_source(path, mode=SourceMode.BULK, n_slots=1)
    with TreeFile(path) as tf:
        name = _user_branch(tf)
    return _closing(source, lambda: direct_sum(source, name))


_PREPARERS: dict[str, Callable[[PathArg], Callable[[], float]]] = {
    "get-entry": _prep_get_entry,
    "bulk": _prep_bulk,
    "reader": _prep_reader,
    "fast-reader": _prep_fast_reader,
    "rdf-standard": lambda p: _prep_rdf(p, SourceMode.PER_ENTRY),
    "rdf-bulk": lambda p: _prep_rdf(p, SourceMode.BULK),
    "rds-bulk": _prep_rds_bulk,
}


def run(path: PathArg, scenarios: Union[str, Sequence[str]],
        repeat: int = 3) -> list[BenchRecord]:
    """Time the given scenarios on one file; repeat each with fresh readers.

    Raises BenchmarkIntegrityError if any two repetitions (of any scenario)
    disagree on the checksum: the timings would be meaningless.
    """
    if isinstance(scenarios, str):
        scenarios = [s.strip() for s in scenarios.split(",") if s.strip()]
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    for s in scenarios:
        if s not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {s!r}; known: {', '.join(SCENARIOS)}")
    with TreeFile(path) as tf:
        n_entries = tf.n_entries
        first = tf.footer.branches[0]
        capacity = max((b.n_entries for b in first.baskets), default=0)
        codec = first.baskets[0].codec.name.lower() if first.baskets else "none"

    records: list[BenchRecord] = []
    checksum_seen: Optional[float] = None
    for scenario in scenarios:
        prepare = _PREPARERS[scenario]
        for rep in range(repeat):
            go = prepare(path)
            try:
                t0 = time.perf_counter()
                checksum = go()
                wall = time.perf_counter() - t0
            finally:  # outside the timed region; a bare callable holds nothing
                close = getattr(go, "close", None)
                if close is not None:
                    close()
            if checksum_seen is None:
                checksum_seen = checksum
            elif checksum != checksum_seen:
                raise BenchmarkIntegrityError(
                    f"scenario {scenario!r} rep {rep} checksum {checksum!r} "
                    f"!= {checksum_seen!r}"
                )
            records.append(BenchRecord(
                scenario=scenario,
                n_entries=n_entries,
                basket_capacity=capacity,
                codec=codec,
                repetition=rep,
                wall_seconds=wall,
                events_per_second=n_entries / wall if wall > 0 else float("inf"),
                checksum=checksum,
            ))
    return records


def median_walls(records: Sequence[BenchRecord]) -> dict[str, float]:
    """Median wall seconds per scenario (the reported figure of merit)."""
    import statistics
    by_scenario: dict[str, list[float]] = {}
    for r in records:
        by_scenario.setdefault(r.scenario, []).append(r.wall_seconds)
    return {s: statistics.median(w) for s, w in by_scenario.items()}


CSV_HEADER = ("scenario,entries,basket_entries,codec,repeat,"
              "wall_seconds,events_per_second,checksum")


def report(records: Sequence[BenchRecord], out: PathArg) -> None:
    """Write records as CSV: floats at 6 significant digits, checksum exact."""
    if not records:
        raise NoRecords("no benchmark records to report")
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.scenario},{r.n_entries},{r.basket_capacity},{r.codec},"
            f"{r.repetition},{r.wall_seconds:.6g},{r.events_per_second:.6g},"
            f"{r.checksum!r}"
        )
    with open(out, "w", encoding="utf-8") as fobj:
        fobj.write("\n".join(lines) + "\n")


# --- verification ---

@dataclass
class VerifyReport:
    path: str
    n_entries: int
    checks: list[str]
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        out = [f"{status}: {self.path} ({self.n_entries} entries)"]
        out.extend(f"  ok: {c}" for c in self.checks)
        out.extend(f"  FAIL: {f}" for f in self.failures)
        return out


EXHAUSTIVE_LIMIT = 100_000
SAMPLE_SIZE = 10_000


def _verify_branch(tf: TreeFile, name: str, report_: VerifyReport) -> None:
    import os as _os

    rd = tf.branch(name)
    desc = rd.descriptor
    kind = desc.shape.kind
    etype = rd.element_type
    width = etype.width_bytes
    n = rd.n_entries
    exhaustive = n <= EXHAUSTIVE_LIMIT
    if exhaustive:
        wanted = None
    else:
        rng = np.random.default_rng(0)
        wanted = np.unique(rng.integers(0, n, size=SAMPLE_SIZE))
    ref = tf.branch(name)  # independent reader for get_entry comparisons

    buf = BulkBuffer()
    sbuf = BulkBuffer()
    cbuf = CountBuffer()
    fd = _os.open(tf.path, _os.O_RDONLY)
    checked = 0
    try:
        for bk in desc.baskets:
            first = bk.first_entry
            try:  # a basket that fails is reported, and the next one checked
                got = rd.get_bulk_entries(first, buf)
                rd.get_entries_serialized(first, sbuf, cbuf)
                if got != bk.n_entries:
                    report_.failures.append(
                        f"branch {name!r}: bulk read at {first} returned {got}"
                    )
                    continue
                raw = _os.pread(fd, bk.compressed_size, bk.file_offset)
                payload = decompress_payload(raw, bk.codec, bk.uncompressed_size)
                if sbuf.to_bytes() != payload:
                    report_.failures.append(
                        f"branch {name!r}: serialized buffer differs from on-disk "
                        f"payload at entry {first}"
                    )
                if exhaustive:
                    locals_ = range(got)
                else:
                    pos = np.searchsorted(wanted, [first, first + got])
                    locals_ = (wanted[pos[0]:pos[1]] - first).tolist()
                offsets = cbuf.offsets()
                des = buf.as_array()
                ser = sbuf.as_array()
                for local in locals_:
                    entry = first + local
                    expect = ref.get_entry(entry)
                    if kind is ShapeKind.SCALAR:
                        ok = (buf.value_at(etype, local) == expect
                              and sbuf.value_at(etype, local) == expect)
                    else:
                        lo, hi = int(offsets[local]), int(offsets[local + 1])
                        ok = (np.array_equal(des[lo:hi], expect)
                              and np.array_equal(ser[lo:hi].astype(etype.np_native),
                                                 expect))
                    if not ok:
                        report_.failures.append(
                            f"branch {name!r}: entry {entry} mismatch across read paths"
                        )
                    checked += 1
                if kind is not ShapeKind.SCALAR and cbuf.total() * width != sbuf.nbytes:
                    report_.failures.append(
                        f"branch {name!r}: count sum inconsistent at entry {first}"
                    )
            except BulkIOError as exc:
                report_.failures.append(f"branch {name!r}: basket at entry {first}: "
                                        f"{type(exc).__name__}: {exc}")
    finally:
        _os.close(fd)
    report_.checks.append(
        f"branch {name!r}: {len(desc.baskets)} baskets, "
        f"{checked} entries cross-checked"
    )


def verify(path: PathArg) -> VerifyReport:
    """Cross-check all read paths against each other on every basket.

    Exhaustive for files up to 100k entries, sampled (10k entries) above.
    """
    report_ = VerifyReport(path=str(path), n_entries=0, checks=[], failures=[])
    try:
        tf = TreeFile(path)
    except BulkIOError as exc:
        report_.failures.append(f"{type(exc).__name__}: {exc}")
        return report_
    with tf:
        report_.n_entries = tf.n_entries
        for name in tf.branch_names:
            _verify_branch(tf, name, report_)
    return report_
