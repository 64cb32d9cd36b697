"""In-memory spans around the benchmark's calls into altmat, and their totals.

A span records (job id, name, start, end, parent index). Spans stay in a
list until the run ends. A layer's self time is its spans' durations minus
the part their child spans cover; the root span of each job is named "job",
so its self time is the job's wall time that no layer span covers.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "calls", "index", "start")

    def __init__(self, tracer: "Tracer", name: str, calls: int):
        self.tracer = tracer
        self.name = name
        self.calls = calls

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else None
        tr.spans[self.index] = (tr.job, self.name, self.start, end, parent)
        tr.calls[self.name] += self.calls
        if exc_type is not None:
            tr.failed[self.name] += 1
        return False


class Tracer:
    """Span, count and failure recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = -1
        self.spans: list = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()

    def span(self, name: str, calls: int = 1):
        """Context manager timing ``calls`` calls into one layer operation."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, calls)

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += n

    def fail(self, name: str) -> None:
        if self.enabled:
            self.failed[name] += 1

    def self_times(self) -> Counter:
        """Total self time per span name, over every recorded job."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: Counter = Counter()
        for (_, name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def export(self) -> list[dict]:
        return [
            {"job": job, "name": name, "start": start, "end": end, "parent": parent}
            for job, name, start, end, parent in self.spans
        ]
