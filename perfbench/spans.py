"""In-memory spans around the benchmark's calls into each layer."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span, if any
    input_id: str


class Tracer:
    """Records one span per call; nesting follows the call stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, input_id: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, input_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = self.spans[idx]._replace(end=time.perf_counter())


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[Span], scale: Optional[dict] = None) -> dict[str, float]:
    """Per span name, the summed duration not covered by child spans.

    ``scale`` maps an input id to a factor applied to its spans' self times.
    """
    scale = scale or {}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out: dict[str, float] = defaultdict(float)
    for i, sp in enumerate(spans):
        own = (sp.end - sp.start) - _covered(children[i], sp.start, sp.end)
        out[sp.name] += own * scale.get(sp.input_id, 1.0)
    return dict(out)
