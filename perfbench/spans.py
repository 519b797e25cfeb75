"""In-memory spans and counters for the traced benchmark run.

A span is one timed call the benchmark makes into a layer of the
program: its name (``tsdb.insert``, ``core.rank.L2`` ...), start and end
on the ``perf_counter`` clock, the span that was open on the same thread
when it started (its parent) and a request id shared by every span of
one request.  Spans stay in a list until the run ends and are then
written out as JSON.

With tracing off (``Tracer(enabled=False)``) every method returns at
once, so the untraced run pays one attribute test per call site.  A
traced run can also pause span recording on one thread with
:meth:`Tracer.paused`; the workloads use that to interleave traced and
untraced units of work and measure what tracing costs.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple


class Span(NamedTuple):
    """One closed span; ``parent`` is a span id or ``None`` at the root."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -------------------------------------------------------
    def _recording(self) -> bool:
        return self.enabled and not getattr(self._local, "paused", False)

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[None]:
        """Time the body as a span named ``name``.

        The request id defaults to the one of the enclosing span, so a
        request's spans share it without passing it down.
        """
        if not self._recording():
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[1]
        span_id = next(self._ids)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end,
                                       None if parent is None else parent[0],
                                       request))

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter (recorded even inside :meth:`paused`)."""
        if self.enabled:
            with self._lock:
                self.counts[name] += n

    @contextmanager
    def paused(self, pause: bool = True) -> Iterator[None]:
        """Stop recording spans on this thread for the body."""
        before = getattr(self._local, "paused", False)
        self._local.paused = pause or before
        try:
            yield
        finally:
            self._local.paused = before

    # -- reading -----------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def dump(self, path: Path) -> None:
        """Write every span, with its self time, and every counter as JSON."""
        own = self_times(self.spans)
        payload = {"spans": [{**s._asdict(), "self": own[s.id]}
                             for s in self.spans],
                   "counts": dict(self.counts)}
        path.write_text(json.dumps(payload))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Map span id -> self time.

    A span's self time is its duration minus the length of the union of
    its children's intervals clipped to its own interval, so children
    that overlap each other (or run past the parent) are not counted
    twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    result: dict[int, float] = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s.id] = s.duration - covered
    return result
