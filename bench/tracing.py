"""Spans around calls into the package's public functions, recorded from outside.

``Tracer.install`` replaces a function in every namespace that binds it (the
home module, the package ``__init__`` and any module that imported it by name)
with one wrapper, so each call is counted once whichever name it went
through.  Spans stay in memory until ``write``; a span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import namedtuple

Span = namedtuple("Span", "parent op name start end error origin")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op = -1
        self.absent: list[str] = []
        self.args: dict[int, tuple] = {}
        self._stack: list[int] = []
        self._escaped: BaseException | None = None
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, keep_args: bool = False):
        """The traced version of ``fn``; wrapping one function twice gives
        the same wrapper."""
        found = self._wrappers.get(id(fn))
        if found is not None:
            return found
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            if keep_args:
                tracer.args[index] = args
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                # An exception escaping several nested spans is counted at
                # the innermost one only.
                origin = exc is not tracer._escaped
                tracer._escaped = exc
                tracer.spans[index] = Span(
                    parent, tracer.op, name, start, end, type(exc).__name__, origin
                )
                raise
            else:
                end = clock()
                tracer._escaped = None
                tracer.spans[index] = Span(parent, tracer.op, name, start, end, None, False)
                return result
            finally:
                tracer._stack.pop()

        self._wrappers[id(fn)] = traced
        self._wrappers[id(traced)] = traced
        return traced

    def install(self, namespaces, targets, keep_args=()) -> None:
        """Wrap each ``(name, owner, attr)`` target and rebind the wrapper
        wherever ``namespaces`` (modules or classes) hold the original."""
        for name, owner, attr in targets:
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, keep_args=name in keep_args)
            for ns in (*namespaces, owner):
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._restore.append((ns, key, original))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()
        self._escaped = None

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                out.write(json.dumps([index, *span]) + "\n")


def self_times(spans) -> list[int]:
    """Per span, its duration minus the union of its children's intervals
    clipped to it."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def in_span(spans, index: int, name: str) -> bool:
    """Whether span ``index`` runs inside a span called ``name``."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
