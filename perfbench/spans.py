"""Layer spans recorded from outside the program.

A `Tracer` replaces the functions that `sah` modules look up at call time
with wrappers that open a span around each call, and puts the originals
back on `restore`.  A span's self time is its duration minus the
durations of the spans opened inside it, so the self times of all spans
under one root add up to the root's duration.

Wrappers are installed on the name the caller looks up, not on the name
the function was defined under: `sah.pipeline.covering` is what
`homology_algorithm` calls, and rebinding `sah.covering.covering` would
not reach it.  Modules are fetched with `importlib.import_module`, because
`sah/__init__.py` rebinds the attribute `sah.covering` to the function.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []      # open spans: [name, start, child time]
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, child = self._stack.pop()
        dt = time.perf_counter() - start
        self.total_s[name] += dt
        self.self_s[name] += dt - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dt
        return dt

    # -- wrappers ------------------------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, module: str, attr: str, span, after=None) -> None:
        """Time every call of `module.attr` in a span named `span`, or
        named by `span(*args, **kwargs)` when it is callable.  Then
        `after(result, *args, **kwargs)` may record counters; it runs in a
        span of its own, "trace.callback"."""
        owner = importlib.import_module(module)
        self._wrap_on(owner, attr, span, after)

    def wrap_method(self, module: str, cls: str, attr: str, span,
                    after=None) -> None:
        owner = getattr(importlib.import_module(module), cls)
        self._wrap_on(owner, attr, span, after)

    def _wrap_on(self, owner, attr: str, span, after) -> None:
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            self.enter(span(*args, **kwargs) if callable(span) else span)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                self._callback(after, result, *args, **kwargs)
            return result

        self._install(owner, attr, wrapper)

    def wrap_generator(self, module: str, attr: str, span: str,
                       after=None, start=None) -> None:
        """Time only the inside of each `next` of a generator function;
        the consumer's work between items stays in the caller's span.
        `start(*args, **kwargs)` runs when the generator is created and
        `after(item, *args, **kwargs)` after each item."""
        owner = importlib.import_module(module)
        orig = owner.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if start is not None:
                self._callback(start, *args, **kwargs)
            it = orig(*args, **kwargs)
            while True:
                self.enter(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                if after is not None:
                    self._callback(after, item, *args, **kwargs)
                yield item

        self._install(owner, attr, wrapper)

    def _callback(self, fn, *args, **kwargs) -> None:
        self.enter("trace.callback")
        try:
            fn(*args, **kwargs)
        finally:
            self.exit()

    def restore(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)
