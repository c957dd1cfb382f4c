"""Span recorder for traced benchmark runs.

Public functions of the program's modules are wrapped from outside, at
module level, for the duration of a traced run. Each call records a span
(name, start, end, parent span, run id) in memory; optional hooks add
work counts (points scored, bytes read, computed FLOPs) and the
tracemalloc peak inside the span. Spans are written out once, at exit.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

#: (args, kwargs, result) -> {counter name: increment}
CountHook = Callable[[tuple, dict, object], dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict[str, float] = field(default_factory=dict)
    peak_alloc: int | None = None  # bytes; only for spans that track allocation


@dataclass
class Target:
    """One function to trace: ``module.attr`` recorded under ``name``."""

    module: object
    attr: str
    name: str
    count: CountHook | None = None
    track_alloc: bool = False


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = "setup"
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(target.name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            # nested allocation tracking would reset the outer span's peak
            own_alloc = target.track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if own_alloc:
                    span.peak_alloc = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if target.count is not None:
                span.counts = target.count(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, targets: list[Target]) -> Iterator["Recorder"]:
        """Replace each target attribute by its traced wrapper; restore on exit."""
        saved = []
        try:
            for t in targets:
                fn = getattr(t.module, t.attr)
                saved.append((t.module, t.attr, fn))
                setattr(t.module, t.attr, self.wrap(t, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path: str | Path, metrics: dict) -> None:
        payload = {"metrics": metrics, "spans": [asdict(s) for s in self.spans]}
        Path(path).write_text(json.dumps(payload) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class LayerStats:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    peak_alloc: int = 0


def layer_stats(spans: list[Span], runs: dict[str, int]) -> dict[str, LayerStats]:
    """Per span name, totals divided by the number of runs of each phase.

    ``runs`` maps a span's run id to how many pipeline runs that id stands
    for, so a name's figures are per pipeline run (or per set-up).
    """
    # totals per (name, runs per id) first, so whole counts divide exactly
    totals: dict[tuple[str, int], LayerStats] = {}
    for s, self_s in zip(spans, self_times(spans)):
        st = totals.setdefault((s.name, runs[s.run]), LayerStats())
        st.self_s += self_s
        st.total_s += s.end - s.start
        st.calls += 1
        for k, v in s.counts.items():
            st.counts[k] = st.counts.get(k, 0.0) + v
        if s.peak_alloc is not None:
            st.peak_alloc = max(st.peak_alloc, s.peak_alloc)
    stats: dict[str, LayerStats] = {}
    for (name, n), t in totals.items():
        st = stats.setdefault(name, LayerStats())
        st.self_s += t.self_s / n
        st.total_s += t.total_s / n
        st.calls += t.calls / n
        for k, v in t.counts.items():
            st.counts[k] = st.counts.get(k, 0.0) + v / n
        st.peak_alloc = max(st.peak_alloc, t.peak_alloc)
    return stats


def top_level_time(spans: list[Span], run: str) -> float:
    """Summed duration of the parentless spans of one run id."""
    return sum(s.end - s.start for s in spans if s.run == run and s.parent is None)
