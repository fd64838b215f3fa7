"""Span tracer for the traced benchmark run.

The tracer wraps public relkit functions from outside the package: each
wrapper is rebound in every ``relkit*`` module that holds the original, and
classes are wrapped through their methods (never by rebinding the class
name, which the package uses for ``isinstance`` dispatch).

A wrapped call is a span: name, start, end, parent span and query id.  Self
time is computed online: a span's duration minus the durations of the spans
directly inside it.  Spans are kept in memory and written out at the end.
Hot leaves (``hot=True``) update the same per-name totals and still count
against their parent's self time, but store no span record, which bounds the
memory and time the trace costs on calls made hundreds of thousands of times.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (span id, name, start, end, parent span id, query id)
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.query = None
        self.paused = False
        self._stack = []  # open frames: [name, start, child time, span id]
        self._open = Counter()  # open frames per name
        self._next_id = 0
        self._seen = {}  # repeat-key family -> keys seen in the current query
        self.memo = {}  # scratch values that live for one query
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _enter(self, name, record):
        sid = None
        if record:
            sid = self._next_id
            self._next_id += 1
        self._open[name] += 1
        frame = [name, 0.0, 0.0, sid]
        self._stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, frame):
        end = self.clock()
        name, start, covered, sid = frame
        dur = end - start
        self._stack.pop()
        self._open[name] -= 1
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur
        if sid is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans.append((sid, name, start, end, parent, self.query))

    def inside(self, name) -> bool:
        """Whether a call recorded under this name is currently open."""
        return self._open[name] > 0

    def wrap(self, name, fn, hot=False, before=None, after=None):
        """Wrapper recording each call of fn as a span called name.

        before(args, kwargs) runs ahead of the span, after(args, kwargs,
        result) once it has closed; both are skipped while paused.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = tracer._enter(name, not hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- queries and repeat counting -----------------------------------------

    def begin_query(self, qid):
        self.query = qid
        self._seen = {}
        self.memo = {}

    def end_query(self):
        self.begin_query(None)

    def note_key(self, family, key) -> bool:
        """Count one call of a repeat family; True if key was already seen
        in the current query."""
        seen = self._seen.setdefault(family, set())
        repeat = key in seen
        seen.add(key)
        self.counters[family + ".calls"] += 1
        if repeat:
            self.counters[family + ".repeats"] += 1
        return repeat

    def repeat_frac(self, family) -> float:
        calls = self.counters[family + ".calls"]
        return self.counters[family + ".repeats"] / calls if calls else 0.0

    @contextmanager
    def pause(self):
        """Call through without recording (used for output checks)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    # -- installing wrappers -------------------------------------------------

    def patch_function(self, module, attr, name, **opts):
        """Rebind module.attr, and every relkit-module alias of the same
        function, to one traced wrapper."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **opts)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if modname != "relkit" and not modname.startswith("relkit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
        return wrapper

    def patch_method(self, cls, attr, name, **opts):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **opts))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write_spans(self, path):
        """JSON lines: the field names, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "query"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
