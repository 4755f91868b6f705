"""In-memory spans around calls into an already imported package.

A span records its name, start, end, parent span and thread.  Spans stay in
memory while the traced operation runs; ``self_times`` and ``dump`` read
them afterwards.  Nothing here touches the package's source: functions are
rebound in every module that holds them and methods are replaced on their
classes, and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time

# span fields
NAME, START, END, PARENT, THREAD, NOTE = range(6)


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, note=None):
        spans, stack_of, clock, ident = self.spans, self._stack, time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else None, ident(), None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def adopt(self, fn):
        """``fn`` wrapped so that, on a thread with no open span, its spans
        take the span open at this call as their parent (for thread pools)."""
        parent = self._stack()[-1]
        stack_of = self._stack

        def adopted(*args, **kwargs):
            stack = stack_of()
            if stack:
                return fn(*args, **kwargs)
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return adopted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def trace_method(self, cls, attr: str, name: str, note=None) -> None:
        self._patch(cls, attr, self._wrap(name, cls.__dict__[attr], note))

    def trace_function(self, module, attr: str, name: str, note=None, replace=None) -> None:
        """Trace ``module.attr`` and every binding of the same function in the
        package's modules, since ``from m import f`` copies the binding.
        ``replace(original)`` substitutes a body before wrapping."""
        original = getattr(module, attr)
        body = replace(original) if replace else original
        traced = self._wrap(name, body, note)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def self_times(self):
        """Yield (span, self time): its duration minus the union of the
        intervals its child spans cover (children on pool threads overlap)."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s[PARENT] is not None:
                children.setdefault(id(s[PARENT]), []).append((s[START], s[END]))
        for s in self.spans:
            covered = 0.0
            intervals = children.get(id(s))
            if intervals:
                intervals.sort()
                lo, hi = intervals[0]
                for a, b in intervals[1:]:
                    if a > hi:
                        covered += hi - lo
                        lo, hi = a, b
                    else:
                        hi = max(hi, b)
                covered += hi - lo
            yield s, (s[END] - s[START]) - covered

    def dump(self, path, origin: float) -> None:
        """Write every span, times in seconds from ``origin``, as gzipped JSON."""
        names: dict[str, int] = {}
        threads: dict[int, int] = {}
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [
                names.setdefault(s[NAME], len(names)),
                round(s[START] - origin, 7),
                round(s[END] - origin, 7),
                index[id(s[PARENT])] if s[PARENT] is not None else -1,
                threads.setdefault(s[THREAD], len(threads)),
            ]
            for s in self.spans
        ]
        doc = {"fields": ["name", "start_s", "end_s", "parent", "thread"],
               "names": list(names), "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            json.dump(doc, f, separators=(",", ":"))
