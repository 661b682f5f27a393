"""In-memory span recorder and the order statistics the harness reports.

A span is one call through a wrap point: its name, start and end on the
`time.perf_counter` clock, the index of the span that was open when it began
(-1 at the top level) and the id of the op it belongs to. Counts are added at
the same wrap points, keyed by op. Nothing is written while ops run; the run
writes the spans out once it has ended.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, end: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and counts for the op whose id is in `op`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op = -1
        self._open: list[int] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[self.op][key] += amount

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span called name.

        before(recorder, args, kwargs) runs ahead of the call; its value is handed to
        after(recorder, args, kwargs, result, state), which adds counts. Both
        run outside the span, so their cost is not charged to the layer.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(rec, args, kwargs) if before is not None else None
            parent = rec._open[-1] if rec._open else -1
            span = Span(name, rec.clock(), 0.0, parent, rec.op)
            rec._open.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = rec.clock()
                rec._open.pop()
            if after is not None:
                after(rec, args, kwargs, result, state)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def time_outside(spans: list[Span], i: int, kids: dict[int, list[int]], keep=lambda name: True) -> float:
    """Duration of span i minus the time covered by its children that keep() selects.

    With the default keep this is the span's self time.
    """
    s = spans[i]
    covered = covered_length(
        ((spans[k].start, spans[k].end) for k in kids.get(i, ()) if keep(spans[k].name)),
        s.start,
        s.end,
    )
    return s.duration - covered


def self_times(recorder: Recorder) -> dict[int, dict[str, float]]:
    """Self time of every span name, summed per op and keyed by op id."""
    spans = recorder.spans
    kids = children_of(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        out[s.op][s.name] += time_outside(spans, i, kids)
    return out


def tail_percentile(values, beyond: int = 10) -> tuple[int, float] | None:
    """Highest whole percentile with at least `beyond` samples above it.

    Uses the nearest-rank definition. Returns (percentile, value), or None
    when the samples are too few for that percentile to lie above the median.
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = (100 * (n - beyond)) // n if n > beyond else 0
    if pct <= 50:
        return None
    rank = -(-pct * n // 100)
    return pct, float(ordered[rank - 1])
