"""In-memory span tracer that instruments a package from outside.

A span records a name, start and end (``perf_counter_ns``), the index of the
span that was open when it started, and optional counters. Spans stay in a
list until the caller writes them out. Functions are wrapped by replacing the
attribute at every site that bound them, so nothing in the traced package
changes, and :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: int, parent: int, attrs=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.attrs]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, bool, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, 0, parent)
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name, note=None):
        """``fn`` inside a span. ``name`` is a string or ``name(args, kwargs)``;
        ``note(span, args, kwargs, result)`` may attach counters afterwards."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                note(span, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`restore`; ``owner`` is a module or class."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, module, attr: str, make_replacement) -> int:
        """Replace ``module.attr`` in every loaded module of the same package
        that holds that exact object. ``make_replacement(original, site)``
        builds the wrapper, so span names may depend on the call site.
        Returns the number of sites patched."""
        original = getattr(module, attr)
        package = module.__name__.split(".")[0]
        sites = [
            mod
            for name, mod in list(sys.modules.items())
            if (name == package or name.startswith(package + ".")) and vars(mod).get(attr) is original
        ]
        for mod in sites:
            self.patch(mod, attr, make_replacement(original, mod.__name__))
        return len(sites)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: list[Span]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children, in ns.

    Children run inside their parent on one thread, so this is the part of
    the parent's interval that no child covers.
    """
    duration = np.array([s.end - s.start for s in spans], dtype=np.int64)
    parent = np.array([s.parent for s in spans], dtype=np.int64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(spans))
    return duration - covered.astype(np.int64)
