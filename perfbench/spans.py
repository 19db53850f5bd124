"""In-memory span recorder for the traced run.

A span is ``(id, name, start_ns, end_ns, parent_id, run_id)``. Spans are
recorded by the benchmark around its calls into a bulkio layer, kept in a
list, and written out once when the run ends. The untraced run uses
:data:`NULL`, whose spans cost one no-op ``with`` each.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def new_run(self) -> int:
        """Start a new run id; spans of one path pass share it."""
        self.run_id += 1
        return self.run_id

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_ns(self, name: str, parent: str | None = None) -> list[int]:
        """Self time of each span called ``name`` (under a span called
        ``parent``): its duration minus the time its child spans cover."""
        names = {}
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for sid, n, start, end, pid, _ in self.spans:
            names[sid] = n
            if pid >= 0:
                children[pid].append((start, end))
        out = []
        for sid, n, start, end, pid, _ in self.spans:
            if n != name or (parent is not None and names.get(pid) != parent):
                continue
            covered = 0
            cur_start = cur_end = None
            for c_start, c_end in sorted(children.get(sid, ())):
                if cur_end is None or c_start > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = c_start, c_end
                else:
                    cur_end = max(cur_end, c_end)
            if cur_end is not None:
                covered += cur_end - cur_start
            out.append(end - start - covered)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fobj:
            for sid, name, start, end, pid, run in self.spans:
                fobj.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                       "end_ns": end, "parent": pid, "run": run}))
                fobj.write("\n")


class _Span:
    __slots__ = ("_tr", "_name", "_id", "_parent", "_start")

    def __init__(self, tracer: Tracer, name: str):
        self._tr = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        tr = self._tr
        self._id = tr._next_id
        tr._next_id += 1
        self._parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self._id)
        self._start = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = perf_counter_ns()
        tr = self._tr
        tr._stack.pop()
        tr.spans.append((self._id, self._name, self._start, end, self._parent,
                         tr.run_id))


class _NullTracer:
    """Stand-in for :class:`Tracer` when tracing is off."""

    _NULL_SPAN = contextlib.nullcontext()

    def new_run(self) -> int:
        return 0

    def span(self, name: str):
        return self._NULL_SPAN


NULL = _NullTracer()
