"""In-memory span tracer that wraps lobsim's public callables from outside.

A span is (name, start, end, parent).  Spans live in flat typed arrays so a
paper-scale episode (about 700k spans) costs tens of megabytes, not hundreds.
Nothing here changes what the wrapped code computes: a wrapper only reads
the clock, appends to the arrays and calls through.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

clock = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.stack: list[int] = []
        self._restore: list[tuple] = []

    def name_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def current(self) -> int:
        """Name id of the innermost open span, -1 outside any span."""
        return self.name_id[self.stack[-1]] if self.stack else -1

    def wrap(self, fn, name: str, before=None):
        """`fn` recorded as a span called `name`; `before(*args)` runs first,
        outside the span, when given."""
        nid = self.name_of(name)
        name_id, start, end, parent, stack = (self.name_id, self.start, self.end,
                                              self.parent, self.stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def span(self, name: str):
        """Context manager form, for the benchmark's own phases."""
        return _Span(self, self.name_of(name))

    # -- installing wrappers ---------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, before=None) -> None:
        """Wrap the plain instance method `cls.attr`."""
        raw = inspect.getattr_static(cls, attr)
        self._restore.append((cls, attr, cls.__dict__.get(attr), attr in cls.__dict__))
        setattr(cls, attr, self.wrap(raw, name, before))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Wrap a module-level function everywhere lobsim imported it by name."""
        original = getattr(module, attr)
        traced = self.wrap(original, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("lobsim") and \
                    getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original, True))
                setattr(mod, attr, traced)

    def patch_counter(self, cls, attr: str, count) -> None:
        """Call `count(*args)` before `cls.attr` without recording a span."""
        raw = inspect.getattr_static(cls, attr)

        @functools.wraps(raw)
        def counted(*args, **kwargs):
            count(*args, **kwargs)
            return raw(*args, **kwargs)

        self._restore.append((cls, attr, cls.__dict__.get(attr), attr in cls.__dict__))
        setattr(cls, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._restore):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------------

    def table(self) -> "SpanTable":
        return SpanTable(self.names, np.array(self.name_id, dtype=np.int32),
                         np.array(self.start, dtype=np.int64),
                         np.array(self.end, dtype=np.int64),
                         np.array(self.parent, dtype=np.int32))


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.index = len(t.start)
        t.name_id.append(self.nid)
        t.parent.append(t.stack[-1] if t.stack else -1)
        t.end.append(0)
        t.stack.append(self.index)
        t.start.append(clock())
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.index] = clock()
        t.stack.pop()
        return False


class SpanTable:
    """Read-only numpy view of recorded spans, with self time."""

    def __init__(self, names, name_id, start, end, parent):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.duration = (end - start).astype(np.float64) / 1e9
        covered = np.zeros(len(self.duration))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - covered

    def mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.duration), dtype=bool)
        selected = self.name_id == self.names.index(name)
        if parent is not None:
            if parent not in self.names:
                return np.zeros(len(self.duration), dtype=bool)
            has_parent = self.parent >= 0
            parent_ids = np.full(len(self.duration), -1, dtype=np.int32)
            parent_ids[has_parent] = self.name_id[self.parent[has_parent]]
            selected &= parent_ids == self.names.index(parent)
        return selected

    def within(self, root: str) -> np.ndarray:
        """Spans that have a `root` span among their ancestors, the root
        spans included."""
        inside = self.mask(root)
        has_parent = self.parent >= 0
        while True:  # one pass per nesting level
            grown = inside.copy()
            grown[has_parent] |= inside[self.parent[has_parent]]
            if (grown == inside).all():
                return inside
            inside = grown

    def count(self, selected: np.ndarray) -> int:
        return int(selected.sum())

    def total(self, selected: np.ndarray) -> float:
        return float(self.duration[selected].sum())

    def self_total(self, selected: np.ndarray) -> float:
        return float(self.self_time[selected].sum())

    def percentile_us(self, selected: np.ndarray, q: float) -> float:
        values = self.duration[selected]
        return float(np.percentile(values, q) * 1e6) if len(values) else 0.0
