"""One benchmark run: set-up, then timed cycles, then metrics.

A run is one process and one thread. Every read path is a stream of
back-to-back passes, and the writer job is one more stream. A cycle gives
each stream one turn of about ``TURN_S`` seconds (the writer: whole jobs
for ``WRITE_TURN_S``), in an order that rotates from cycle to cycle, and
repeats the set-up once; cycles repeat until ``seconds`` are spent. Every
path's samples are thus spread over the whole run. Cycle 0 is a warm-up
whose samples are dropped.

Every step is checked before its time is kept: a read step's sum must
equal, bit for bit, the numpy sum of the inputs it covers, and a writer
job's file must read back equal to its inputs. A mismatch or an exception
fails the pass (one failed operation) and its step is not timed.

The machine this was tuned on runs the same code up to 2x slower, in
phases that switch within a fraction of a second (other tenants share its
cores; CPU time slows down as much as wall time). A run's mean or median
moves with how much of it fell in slow phases, but the time of one short
piece of work in the fast phase repeats within a few per cent. So every
pass is timed in pieces of a few milliseconds at most, each at the same
place in every pass, and a rate is the events of one pass over the sum of
each piece's ``FAST_Q`` quantile time (see :func:`fast_rate`). Pieces are
fixed places in a pass, so fixed costs (a basket load, a flush, the
``Frame.sum`` set-up) count at the place where they fall. The speed of
the fast phase itself drifts between runs, so the end-to-end rates are
stated at a reference speed: raw rate over the run's
:func:`calibration.speed`, timed by one more stream of program-free
kernels. ``setup_s`` is the median of the set-up times.

With ``trace`` on, turns alternate untraced and traced, so the tracing
overhead is measured in the same run; traced turns, two probe streams and
the layer probes of ``layers`` give the per-layer metrics.
"""

from __future__ import annotations

import glob
import math
import os
import resource
import statistics
import sys
from array import array
from collections import defaultdict
from time import perf_counter, process_time

import calibration
import layers
import readpaths
import workloads
from bulkio import TypeMismatch, read_footer
from spans import NULL, Tracer

TURN_S = 0.05
WRITE_TURN_S = 0.15
FAST_Q = 0.05
MIN_CYCLES = 3

END_TO_END = {
    "setup_s": "s",
    "get_entry_eps": "events/s",
    "bulk_eps": "events/s",
    "reader_eps": "events/s",
    "fast_reader_eps": "events/s",
    "rdf_standard_eps": "events/s",
    "rdf_bulk_eps": "events/s",
    "rds_bulk_eps": "events/s",
    "write_extend_eps": "events/s",
    "write_fill_eps": "events/s",
    "bytes_per_user_byte": "B/B",
    "peak_rss_mb": "MiB",
}

PATH_NAMES = ("get-entry", "bulk", "reader", "fast-reader", "rdf-standard",
              "rdf-bulk", "rds-bulk")

PER_LAYER = {
    "format.open_ms": "ms",
    "format.decompress_us_per_basket": "us",
    "format.compress_us_per_basket": "us",
    "reader.get_entry_ns_per_event": "ns",
    "reader.bulk_basket_us.p50": "us",
    "reader.bulk_basket_us.p99": "us",
    "reader.serialized_basket_us.p50": "us",
    "reader.serialized_basket_us.p99": "us",
    "reader.baskets_fetched_ratio": "ratio",
    "reader.bytes_read_per_event": "B",
    "reader.floor_ratio": "ratio",
    "reader.cpu_per_wall": "ratio",
    "iterator.next_deref_ns_per_event": "ns",
    "iterator.next_block_us.p50": "us",
    "iterator.next_block_us.p99": "us",
    "iterator.refills_per_basket": "count",
    "dataframe.rdf_standard_ns_per_event": "ns",
    "dataframe.rdf_bulk_ns_per_event": "ns",
    "dataframe.direct_sum_us_per_basket": "us",
    "dataframe.blocks_basket_us.p50": "us",
    "dataframe.baskets_read_ratio": "ratio",
    "dataframe.cpu_per_wall": "ratio",
    "dataframe.retained_kb_per_action": "KiB",
    "dataframe.direct_sum_array_error_share": "ratio",
    "writer.fill_us_per_event": "us",
    "writer.extend_ns_per_event": "ns",
    "writer.close_ms": "ms",
    "writer.bytes_written": "B",
    "floor.pread_us_per_basket": "us",
    "floor.swap_us_per_basket": "us",
    "floor.sum_us_per_basket": "us",
    "floor.inflate_us_per_basket": "us",
    "floor.scan_us_per_basket": "us",
    **{f"trace.overhead_share.{p.replace('-', '_')}": "ratio" for p in PATH_NAMES},
    "calibration.speed": "ratio",
}


def eps_metric(path: str) -> str:
    return path.replace("-", "_") + "_eps"


def _fast(times) -> float:
    """``FAST_Q`` quantile of durations (the only one, for a single one)."""
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=round(1 / FAST_Q), method="inclusive")[0]


def fast_rate(samples: dict, events: dict) -> float:
    """Events over seconds of one pass made of each place's fast time.

    ``samples`` maps a place in the pass to the durations timed there,
    ``events`` maps it to the events it covers; 0.0 with no samples.
    """
    seconds = sum(_fast(times) for times in samples.values())
    return _div(sum(events[place] for place in samples), seconds)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 with no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q)) - 1])


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _exhaust(gen):
    """Run a pass generator to its end; returns its return value."""
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


class Tally:
    """Operations attempted and failed; ``correct`` drops on a wrong result."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def fail(self, label: str, why, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.correct = False
        if isinstance(why, BaseException):
            why = f"{type(why).__name__}: {why}"
        self.failures.append(f"{label}: {why}")


class _Switch:
    """A tracer whose spans are recorded only while ``on``."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.on = False

    def new_run(self) -> int:
        return self.tracer.new_run()

    def span(self, name: str):
        return self.tracer.span(name) if self.on else NULL.span(name)


class Stream:
    """Back-to-back passes of one generator (see ``readpaths``).

    Timed work is kept per place in the pass, for :func:`fast_rate`. With
    ``sums`` given, steps are ``(basket, events, value[, parts])`` and
    ``value`` is checked against ``sums`` (or ``total`` for basket -1)
    before the step's time (or its parts' times) is kept; the places are
    ``(basket, part)``. Without ``sums``, steps are ``(kind, events)``; a
    pass's times are kept once it ends without error, the n-th step of a
    kind at place n of that kind. With ``whole_passes``, a turn never cuts
    a pass short. When the run traces, every other turn is traced (every
    turn, with ``always_traced``).
    """

    def __init__(self, run: "Run", label: str, genfn, sums=None, total=None,
                 always_traced: bool = False, whole_passes: bool = False,
                 budget: float = TURN_S, counted: bool = True):
        self.run = run
        self.label = label
        self.genfn = genfn
        self.sums = sums
        self.total = total
        self.always_traced = always_traced
        self.whole_passes = whole_passes
        self.budget = budget
        self.counted = counted
        self.turns = 0
        self.keep = False
        self.pass_keep = False
        self.gen = None
        self.traced = False
        self.run_id = 0
        self.pending: list = []
        # traced? -> step kind -> place -> seconds, in an array so that the
        # run's own bookkeeping adds little to peak_rss_mb
        self.samples = {flag: defaultdict(lambda: defaultdict(lambda: array("d")))
                        for flag in (False, True)}
        self.events = defaultdict(dict)  # step kind -> place -> events
        self.results: list = []   # (total, counters) per pass
        self.tr = _Switch(run.tracer)
        self.cpu = {False: 0.0, True: 0.0}
        self.wall = {False: 0.0, True: 0.0}

    def _start(self) -> bool:
        run = self.run
        self.run_id = run.tracer.new_run()
        self.pending = []
        self.pass_keep = self.keep
        run.tally.attempted += self.counted
        self.gen = self.genfn(run.target, self.tr)
        try:
            next(self.gen)  # opens the readers
        except Exception as exc:
            self._fail(exc)
            return False
        return True

    def _fail(self, why, wrong: bool = False) -> None:
        self.run.tally.fail(self.label, why, wrong)
        gen, self.gen = self.gen, None
        try:
            gen.close()
        except Exception:  # the pass already failed; closing is best effort
            pass

    def _finish(self, result) -> bool:
        self.gen = None
        total, _ = result
        if self.total is not None and total != self.total:
            self.run.tally.fail(self.label, f"total {total!r}, expected {self.total!r}",
                                wrong=True)
            return False
        if self.pass_keep:
            places = defaultdict(int)
            for kind, events, seconds in self.pending:
                if events:
                    self._keep(kind, places[kind], events, seconds)
                    places[kind] += 1
        self.results.append(result)
        return True

    def turn(self) -> None:
        """Run passes for about ``budget`` seconds; a failed pass ends the turn."""
        deadline = perf_counter() + self.budget
        steps_deadline = math.inf if self.whole_passes else deadline
        self.turns += 1
        self.traced = self.run.trace and (self.always_traced or self.turns % 2 == 0)
        self.tr.on = self.traced
        while perf_counter() < deadline:
            if self.gen is None and not self._start():
                return
            if self.traced:
                self.run.tracer.run_id = self.run_id
            c0 = process_time()
            w0 = perf_counter()
            with self.tr.span("path." + self.label):
                ok = self._steps(steps_deadline)
            self.cpu[self.traced] += process_time() - c0
            self.wall[self.traced] += perf_counter() - w0
            if not ok:
                break

    def _keep(self, kind: str, place, events: int, seconds: float) -> None:
        self.samples[self.traced][kind][place].append(seconds)
        self.events[kind][place] = events

    def _steps(self, deadline: float) -> bool:
        gen = self.gen
        while perf_counter() < deadline:
            t0 = perf_counter()
            try:
                step = next(gen)
            except StopIteration as stop:
                return self._finish(stop.value)
            except Exception as exc:
                self._fail(exc)
                return False
            dt = perf_counter() - t0
            if self.sums is None:
                kind, events = step
                self.pending.append((kind, events, dt))
                continue
            key, events, value = step[:3]
            want = self.total if key < 0 else (
                self.sums[key] if key < len(self.sums) else None)
            if value != want:
                self._fail(f"basket {key}: sum {value!r}, expected {want!r}",
                           wrong=True)
                return False
            if self.keep:
                parts = step[3] if len(step) > 3 else ((events, dt),)
                for j, (k, sec) in enumerate(parts):
                    self._keep(self.label, (key, j), k, sec)
        return True

    def abandon(self) -> None:
        """Close a pass left unfinished when the run ends (not a failure)."""
        if self.gen is not None:
            self.gen.close()
            self.gen = None


def _write_pass(wl, inputs, path: str, tr):
    """The writer job as a pass: its file must read back equal to inputs."""
    try:
        yield None
        nbytes = yield from workloads.write_steps(wl, inputs, path, tr)
        workloads.verify_file(path, inputs)
        return nbytes, {}
    finally:
        if os.path.exists(path):
            os.remove(path)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str, scale: float = 1.0):
        self.wl = workloads.WORKLOADS[workload].scaled(scale)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.stem = os.path.join(workdir, f"{workload}-{seed}-{os.getpid()}")
        self.read_file = self.stem + "-read.bkio"
        self.n_scratch = 0
        self.spans_file = os.path.join(workdir, f"spans-{workload}-{seed}.jsonl")
        self.tally = Tally()
        self.tracer = Tracer() if trace else NULL
        self.setup_times: list[float] = []
        self.cycles = 0
        self.defect_calls = self.defect_errors = 0
        self.defect_error = ""

    def execute(self) -> dict:
        os.makedirs(self.workdir, exist_ok=True)
        try:
            return self._execute()
        finally:
            for path in glob.glob(self.stem + "-*.bkio"):
                os.remove(path)
            if self.trace:
                self.tracer.write_jsonl(self.spans_file)

    def scratch(self) -> str:
        """A new file name. Each written file gets its own, so no file is
        ever truncated and rewritten (which can force writeback)."""
        self.n_scratch += 1
        return f"{self.stem}-{self.n_scratch}.bkio"

    def _setup(self, path: str) -> workloads.Inputs:
        """Generate the inputs; for the scans, also write and open the file."""
        t0 = perf_counter()
        inputs = workloads.Inputs(self.wl, self.seed)
        if self.wl.setup_writes:
            _exhaust(workloads.write_steps(self.wl, inputs, path, NULL))
            read_footer(path)
        self.setup_times.append(perf_counter() - t0)
        return inputs

    def _execute(self) -> dict:
        wl = self.wl
        self.inputs = inputs = self._setup(self.read_file)
        if not wl.setup_writes:  # the read paths scan the writer job's file
            _exhaust(workloads.write_steps(wl, inputs, self.read_file, NULL))
        self.target = target = readpaths.Target(
            self.read_file, wl.read_column, not wl.has_x, wl.n_slots)

        def stream(label, genfn, column, **kw):
            return Stream(self, label, genfn, inputs.basket_sums[column],
                          inputs.expected[column], **kw)

        self.streams = {name: stream(name, fn, col)
                        for name, (fn, col) in readpaths.paths(target).items()}
        self.streams["write"] = Stream(
            self, "write", lambda t, tr: _write_pass(wl, inputs, self.scratch(), tr),
            whole_passes=True, budget=WRITE_TURN_S)
        self.streams["calibration"] = Stream(
            self, "calibration", lambda t, tr: calibration.kernels(self.seed),
            counted=False)
        if self.trace:
            for name, (fn, col) in readpaths.probes(target).items():
                self.streams[name] = stream(name, fn, col, always_traced=True)

        start = perf_counter()
        layer = self._layer_probes() if self.trace else {}
        order = list(self.streams)
        last = 0.0
        while (self.cycles < MIN_CYCLES
               or perf_counter() - start + last <= self.seconds):
            t0 = perf_counter()
            k = self.cycles % len(order)
            for name in order[k:] + order[:k]:
                stream = self.streams[name]
                stream.keep = self.cycles > 0
                stream.turn()
            self._defect_probe()
            path = self.scratch()
            self._setup(path)
            if os.path.exists(path):
                os.remove(path)
            last = perf_counter() - t0
            self.cycles += 1
        for s in self.streams.values():
            s.abandon()

        if self.trace:
            metrics, units = self._per_layer(layer), PER_LAYER
        else:
            metrics, units = self._end_to_end(), END_TO_END
        return {
            "correct": self.tally.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                        for name, unit in units.items()},
        }

    def _defect_probe(self) -> None:
        """direct_sum on the var-array column "v", where the file has one.

        It raises TypeMismatch today (direct_sum takes scalar columns only).
        That known defect is not a failed operation of the benchmark: its
        calls are counted apart, reported on standard error and as
        ``dataframe.direct_sum_array_error_share``, so the defect stays
        visible and its fix shows there. Any other error, or a sum that
        differs from the inputs', is a failed operation.
        """
        if not self.wl.has_v:
            return
        self.defect_calls += 1
        try:
            total, _ = _exhaust(readpaths.rds_bulk("v", self.target, NULL))
        except TypeMismatch as exc:
            self.defect_errors += 1
            self.defect_error = f"{type(exc).__name__}: {exc}"
            return
        except Exception as exc:
            self.tally.attempted += 1
            self.tally.fail("rds-bulk[array]", exc)
            return
        self.tally.attempted += 1
        if total != self.inputs.expected["v"]:
            self.tally.fail("rds-bulk[array]", f"sum {total!r}", wrong=True)

    def _layer_probes(self) -> dict:
        t = self.target
        self.tally.attempted += 1
        try:
            # one whole get_entry pass, for the baskets it fetched
            total, fetched = _exhaust(readpaths.get_entry(t, NULL))
            if total != self.inputs.expected[t.column]:
                self.tally.fail("layer probes", f"get-entry sum {total!r}", wrong=True)
                return {}
            baskets = layers.Baskets(t.file, t.column)
            return {
                "reader.baskets_fetched_ratio": _div(
                    fetched["baskets_read"], fetched["baskets_needed"]),
                "reader.bytes_read_per_event": fetched["bytes_read"] / self.inputs.n,
                "format.open_ms": layers.open_ms(t.file),
                **layers.format_layer(baskets, self.wl.codec),
                **layers.floors(baskets),
                "dataframe.retained_kb_per_action": layers.retained_kb_per_action(
                    t.file, readpaths.rds_column(t), t.n_slots),
            }
        except Exception as exc:
            self.tally.fail("layer probes", exc)
            return {}

    # --- metrics ---

    def _rate(self, name: str, traced: bool = False, kind: str | None = None) -> float:
        """:func:`fast_rate` of one stream's steps of one kind."""
        stream = self.streams[name]
        kind = kind or name
        return fast_rate(stream.samples[traced][kind], stream.events[kind])

    def speed(self) -> float:
        """The run's :func:`calibration.speed`."""
        return calibration.speed({k: self._rate("calibration", kind=k)
                                  for k in calibration.REFERENCE})

    def raw_rates(self) -> dict:
        """Events per second as measured, by end-to-end rate name."""
        out = {eps_metric(name): self._rate(name) for name in PATH_NAMES}
        out["write_extend_eps"] = self._rate("write", kind="extend")
        out["write_fill_eps"] = self._rate("write", kind="fill")
        return out

    def _end_to_end(self) -> dict:
        out = {"setup_s": _median(self.setup_times)}
        speed = self.speed()
        for name, rate in self.raw_rates().items():
            out[name] = _div(rate, speed)
        written = self.streams["write"].results
        if written:
            out["bytes_per_user_byte"] = written[-1][0] / self.inputs.user_bytes
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return out

    def _per_layer(self, layer: dict) -> dict:
        tr = self.tracer
        t = self.target
        cap = workloads.CAPACITY
        n = self.inputs.n
        footer = read_footer(t.file)
        n_baskets = {b.name: len(b.baskets) for b in footer.branches}
        us = lambda name: [v / 1e3 for v in tr.self_ns(name)]  # noqa: E731

        def counters(names, key) -> float:
            return sum(c.get(key, 0) for p in names
                       for _, c in self.streams[p].results)

        def cpu_per_wall(names) -> float:
            return _div(sum(self.streams[p].cpu[True] for p in names),
                        sum(self.streams[p].wall[True] for p in names))

        out = dict(layer)
        out["reader.get_entry_ns_per_event"] = _median(tr.self_ns("reader.get_entry")) / cap
        bulk = us("reader.get_bulk_entries")
        out["reader.bulk_basket_us.p50"] = _pct(bulk, 0.50)
        out["reader.bulk_basket_us.p99"] = _pct(bulk, 0.99)
        ser = us("reader.get_entries_serialized")
        out["reader.serialized_basket_us.p50"] = _pct(ser, 0.50)
        out["reader.serialized_basket_us.p99"] = _pct(ser, 0.99)
        bulk_us = _div(cap * 1e6, self._rate("bulk"))
        out["reader.floor_ratio"] = _div(bulk_us, layer.get("floor.scan_us_per_basket", 0))
        out["reader.cpu_per_wall"] = cpu_per_wall(["get-entry", "bulk", "probe-serialized"])

        out["iterator.next_deref_ns_per_event"] = _median(tr.self_ns("iterator.next_deref")) / cap
        blocks = us("iterator.next_block")
        out["iterator.next_block_us.p50"] = _pct(blocks, 0.50)
        out["iterator.next_block_us.p99"] = _pct(blocks, 0.99)
        out["iterator.refills_per_basket"] = _div(
            counters(["fast-reader"], "refills"), counters(["fast-reader"], "baskets"))

        out["dataframe.rdf_standard_ns_per_event"] = _median(
            tr.self_ns("dataframe.sum", "path.rdf-standard")) / n
        out["dataframe.rdf_bulk_ns_per_event"] = _median(
            tr.self_ns("dataframe.sum", "path.rdf-bulk")) / n
        out["dataframe.direct_sum_us_per_basket"] = _median(
            us("dataframe.direct_sum")) / n_baskets[readpaths.rds_column(t)]
        out["dataframe.blocks_basket_us.p50"] = _pct(us("dataframe.blocks"), 0.50)
        frame = ["rdf-standard", "rdf-bulk", "rds-bulk"]
        out["dataframe.baskets_read_ratio"] = _div(
            counters(frame, "baskets_read"), counters(frame, "baskets_needed"))
        out["dataframe.cpu_per_wall"] = cpu_per_wall(frame)

        out["writer.fill_us_per_event"] = _median(us("writer.fill")) / workloads.PART
        out["writer.extend_ns_per_event"] = _median(
            tr.self_ns("writer.extend")) / self.wl.extend_chunk
        out["writer.close_ms"] = _median(tr.self_ns("writer.close")) / 1e6
        written = self.streams["write"].results
        if written:
            out["writer.bytes_written"] = written[-1][0]
        out["dataframe.direct_sum_array_error_share"] = _div(
            self.defect_errors, self.defect_calls)
        out["calibration.speed"] = self.speed()

        for name in PATH_NAMES:
            plain = self._rate(name)
            spanned = self._rate(name, traced=True)
            out[f"trace.overhead_share.{name.replace('-', '_')}"] = _div(
                plain - spanned, spanned)
        return out

    def report(self, out=sys.stderr) -> None:
        """Sample counts and failures, for a reader of the run's log."""
        wl = self.wl
        print(f"workload {wl.name}: {wl.description}; {self.inputs.n} events, "
              f"n_slots={wl.n_slots}, seed={self.seed}, {self.cycles} cycles",
              file=out)
        counts = ", ".join(
            f"{p}={min(map(len, self.streams[p].samples[False][p].values()), default=0)}"
            for p in PATH_NAMES)
        print(f"untraced samples per place, fewest of a path: {counts}; "
              f"setup reps: {len(self.setup_times)}", file=out)
        kernels = ", ".join(f"{k}={self._rate('calibration', kind=k):.6g}"
                            for k in calibration.REFERENCE)
        raw = ", ".join(f"{k}={v:.6g}" for k, v in self.raw_rates().items())
        print(f"calibration speed {self.speed():.4f} ({kernels}); raw rates: {raw}",
              file=out)
        if self.defect_errors:
            print(f"known defect: direct_sum on the array column raised "
                  f"{self.defect_errors} of {self.defect_calls} times "
                  f"({self.defect_error})", file=out)
        for failure in self.tally.failures[:20]:
            print(f"failed: {failure}", file=out)
        if len(self.tally.failures) > 20:
            print(f"... {len(self.tally.failures) - 20} more failures", file=out)
