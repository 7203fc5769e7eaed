"""Span and counter recorder for traced benchmark runs.

Spans are taken from the benchmark's side of the library boundary:
`Tracer.patch` swaps a public library function for a wrapper that
records one span around each call and restores the original on exit.
Spans and counts stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    parent: str | None  # name of the enclosing span, None at item level
    item: int  # index of the benchmark item that caused the call
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Hook:
    """One public function to wrap: `owner.attr`, recorded as `name`.

    `counts`, when given, maps the call's arguments to {counter: amount},
    so work is counted where it is done.
    """

    owner: object
    attr: str
    name: str
    counts: Callable[..., dict[str, int]] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.item = -1
        self._stack: list[str] = []

    def count(self, name: str, k: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _wrap(self, fn, hook: Hook):
        def traced(*args, **kwargs):
            if hook.counts is not None:
                for name, k in hook.counts(*args, **kwargs).items():
                    self.count(name, k)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(hook.name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(hook.name, parent, self.item, start, end))

        return traced

    @contextmanager
    def patch(self, hooks):
        """Record every call to the hooked functions inside the block.

        Raises AttributeError when the library no longer has a hooked
        function, so a renamed layer fails the traced run instead of
        reading 0.
        """
        saved = []
        try:
            for hook in hooks:
                if not hasattr(hook.owner, hook.attr):
                    raise AttributeError(f"cannot trace {hook.name}: "
                                         f"{hook.owner!r} has no {hook.attr!r}")
                original = getattr(hook.owner, hook.attr)
                saved.append((hook.owner, hook.attr, original))
                setattr(hook.owner, hook.attr, self._wrap(original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def select(self, name: str, parent: str | None = ...) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (parent is ... or s.parent == parent)
        ]

    def total_s(self, name: str, parent: str | None = ...) -> float:
        return sum(s.seconds for s in self.select(name, parent))

    def mean_s(self, name: str, parent: str | None = ...) -> float:
        """Mean seconds per call; 0.0 when the workload never made the call."""
        spans = self.select(name, parent)
        return sum(s.seconds for s in spans) / len(spans) if spans else 0.0
