"""In-memory span tracer that wraps functions from outside the program.

Each wrapped call records one span: a name, a start, an end and the index
of the enclosing span.  Spans live in typed arrays so that a run with a
million calls costs tens of megabytes, not hundreds.  Aggregates are kept
while the run goes: calls, busy time (the union of a name's spans, so a
re-entrant call is not counted twice) and self time (a span minus the
spans it directly encloses).
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.calls: List[int] = []
        self.busy: List[float] = []
        self.self_time: List[float] = []
        self._active: List[int] = []
        self._stack: List[list] = []  # [span index, time of child spans]
        self.counters: Dict[str, float] = {}
        self.on_idle: List[Callable[[], None]] = []
        self._undo: List[tuple] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.busy.append(0.0)
            self.self_time.append(0.0)
            self._active.append(0)
        return nid

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A traced version of ``fn``.

        ``before(*args, **kwargs)`` runs ahead of the span and its return
        value is passed on as ``after(token, args, kwargs, result, seconds)``,
        which runs once the span has closed.
        """
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        active = self._active

        def traced(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = clock()
            self.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.span_end[idx] = t1
                stack.pop()
                dur = t1 - t0
                active[nid] -= 1
                self.calls[nid] += 1
                self.self_time[nid] += dur - frame[1]
                if not active[nid]:
                    self.busy[nid] += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    for hook in self.on_idle:
                        hook()
            if after is not None:
                after(token, args, kwargs, result, dur)
            return result

        return traced

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, orig, **hooks))
        self._undo.append((cls, attr, orig))

    def replace_method(self, cls, attr: str, replacement: Callable) -> None:
        """Install an untraced replacement, such as a counting hook."""
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def patch_function(self, modules: Iterable, fn: Callable, name: str, **hooks) -> None:
        """Wrap ``fn`` under every module name that binds it, because a
        caller that imported it by name looks it up in its own module."""
        traced = self.wrap(name, fn, **hooks)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def stat(self, name: str):
        """(calls, busy seconds, self seconds) for one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.busy[nid], self.self_time[nid]

    def layer_self_time(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            t for n, t in zip(self.names, self.self_time) if n.startswith(prefix)
        )

    def write(self, summary_path, spans_path) -> None:
        """Write per-name aggregates as JSON and every span as gzipped TSV."""
        summary = {
            "spans": len(self.span_start),
            "counters": self.counters,
            "per_name": {
                n: {"calls": c, "busy_s": b, "self_s": s}
                for n, c, b, s in zip(self.names, self.calls, self.busy, self.self_time)
            },
        }
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        with gzip.open(spans_path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            names = self.names
            for nid, s, e, p in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                fh.write("%s\t%.9f\t%.9f\t%d\n" % (names[nid], s, e, p))
