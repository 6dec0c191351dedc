"""In-memory span recording and the per-name summaries derived from spans.

A span is one call of a wrapped function: its name, start and end on the
``time.perf_counter`` clock, the index of the span that was open when it
started (-1 for none) and an optional work count (rows, queries).  Spans
stay in memory while the run lasts and are written out when it ends.
"""

from __future__ import annotations

import functools
import gzip
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span around every call of a function it has wrapped.

    Calls are assumed to come from one thread, so the innermost open span
    is the parent of the next one.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names: list[str] = []
        self._parents: list[int] = []
        self._rows: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._open = [-1]

    def __len__(self) -> int:
        return len(self._names)

    def wrap(self, name: str, fn, rows=None):
        """``fn`` with a span named ``name`` around each call; ``rows``, if
        given, maps the call's arguments to the span's work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self._names)
            self._names.append(name)
            self._parents.append(self._open[-1])
            self._rows.append(int(rows(*args, **kwargs)) if rows else 0)
            self._ends.append(0.0)
            self._open.append(index)
            self._starts.append(self._clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._ends[index] = self._clock()
                self._open.pop()

        return traced

    def spans(self) -> list[Span]:
        return [Span(*fields) for fields in zip(
            self._names, self._starts, self._ends, self._parents, self._rows)]


@contextmanager
def patched(sites):
    """Replace each ``(owner, attribute, make)`` site with ``make(original)``
    for the duration of the block, then restore the original."""
    originals = []
    try:
        for owner, attr, make in sites:
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


@dataclass
class NameStats:
    calls: int = 0
    busy_s: float = 0.0   # inclusive; nested calls of the same name count once
    self_s: float = 0.0
    rows: int = 0
    rows_max: int = 0


def summarize(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, inclusive and self time, and work counts per span name."""
    selfs = self_times(spans)
    out: dict[str, NameStats] = {}
    for index, span in enumerate(spans):
        stats = out.setdefault(span.name, NameStats())
        stats.calls += 1
        stats.self_s += selfs[index]
        stats.rows += span.rows
        stats.rows_max = max(stats.rows_max, span.rows)
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        if ancestor < 0:
            stats.busy_s += span.duration
    return out


def write_spans(spans: list[Span], path) -> None:
    """Gzipped tab-separated spans, one per line, with a header row."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("index\tparent\tname\tstart_s\tend_s\trows\n")
        for index, s in enumerate(spans):
            fh.write(f"{index}\t{s.parent}\t{s.name}\t{s.start!r}\t{s.end!r}"
                     f"\t{s.rows}\n")
