"""In-memory span tracer that wraps the program's functions from outside.

A span records a name, its parent span, a scope tag (warm-up, set-up or
round number, shared by every span of that unit of work), and its start and
end times. The program is never edited: `Tracer.patch` swaps a module
attribute for a wrapper and `Tracer.unpatch` puts the original back, so the
calls one module makes into another are traced at the boundary.
"""

from __future__ import annotations

import statistics
import time
import types
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.scope = "untraced"
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.scope, name, start, end))

    def patch(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a wrapper that records a span per call."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unpatch(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[tuple[str, str], float]:
        """(scope, name) -> summed span time minus the time of direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for sid, _, scope, name, start, end in self.spans:
            totals[(scope, name)] += end - start - child_time[sid]
        return totals


def per_unit(values: dict[tuple[str, str], float], name: str,
             once_scopes: tuple[str, ...], round_scopes: list[str]) -> float:
    """The name's value summed over the once-only scopes, plus its median
    over the round scopes."""
    once = sum(values.get((s, name), 0.0) for s in once_scopes)
    return once + statistics.median(values.get((s, name), 0.0) for s in round_scopes)


def wrapped_call_seconds(calls: int = 20_000, repeats: int = 5) -> float:
    """Median time of one call to a no-op through a span wrapper."""
    tracer = Tracer()
    module = types.SimpleNamespace(noop=lambda: None)
    tracer.patch(module, "noop", "noop")
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            module.noop()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)
