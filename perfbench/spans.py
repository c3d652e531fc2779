"""In-memory spans for the benchmark's traced runs.

A span records one call across a layer boundary: its name, start and
end on ``CLOCK_MONOTONIC`` (shared by every process on the host, so
client and daemon spans line up), the span that caused it, and the
request it serves.  Spans stay in memory and are written once, at exit,
as Chrome trace-event JSON (opens in Perfetto or chrome://tracing).

The parent of a new span is the calling thread's current span.  Work
handed to another thread keeps its parent by passing the span along
explicitly (see :meth:`Tracer.begin`), which is how the scheduler
wrapper links a batch on a worker thread to the ``ingest`` that
submitted it.  A span with no request of its own inherits its parent's.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: sentinel: "use the calling thread's current span as the parent"
CURRENT = object()


def now_ns() -> int:
    """Nanoseconds on CLOCK_MONOTONIC (comparable across processes)."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Span:
    """One timed call; ``end`` is None while the call is running."""

    __slots__ = ("id", "name", "start", "end", "parent", "request",
                 "thread", "args")

    def __init__(self, id: int, name: str, start: int,
                 parent: Optional[int], request: Optional[str],
                 thread: int, args: Optional[dict] = None) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.parent = parent
        self.request = request
        self.thread = thread
        self.args = args

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_event(self, pid: int) -> dict:
        """The span as one Chrome ``X`` (complete) trace event."""
        args = dict(self.args or {}, id=self.id, parent=self.parent,
                    request=self.request, start_ns=self.start,
                    end_ns=self.end)
        return {"name": self.name, "ph": "X", "pid": pid,
                "tid": self.thread, "ts": self.start / 1e3,
                "dur": (self.end - self.start) / 1e3, "args": args}

    @classmethod
    def from_event(cls, event: dict) -> "Span":
        args = dict(event["args"])
        span = cls(args.pop("id"), event["name"], args.pop("start_ns"),
                   args.pop("parent"), args.pop("request"), event["tid"])
        span.end = args.pop("end_ns")
        span.args = args or None
        return span


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self, id_base: int = 0) -> None:
        #: finished spans, in completion order (list.append is atomic)
        self.spans: List[Span] = []
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        return getattr(self._local, "span", None)

    def begin(self, name: str, *, request: Optional[str] = None,
              parent=CURRENT, args: Optional[dict] = None) -> Span:
        """Open a span and make it the calling thread's current span.

        ``parent`` defaults to the thread's current span; pass a span
        (or None) to link work that crossed from another thread.
        """
        if parent is CURRENT:
            parent = self.current()
        if request is None and parent is not None:
            request = parent.request
        return Span(next(self._ids), name, now_ns(),
                    parent.id if parent is not None else None, request,
                    threading.get_ident(), args)

    def enter(self, span: Span) -> Optional[Span]:
        """Make ``span`` current; returns the span it displaced."""
        outer = self.current()
        self._local.span = span
        return outer

    def finish(self, span: Span, outer: Optional[Span]) -> None:
        """Close ``span`` and restore ``outer`` as the current span."""
        span.end = now_ns()
        self._local.span = outer
        self.spans.append(span)

    def record(self, name: str, start: int, end: int,
               parent: Optional[Span]) -> Span:
        """Add an already-finished span (a wait measured between threads)."""
        span = self.begin(name, parent=parent)
        span.start, span.end = start, end
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable[[], object], parent=CURRENT):
        """Run ``fn()`` inside a span."""
        span = self.begin(name, parent=parent)
        outer = self.enter(span)
        try:
            return fn()
        finally:
            self.finish(span, outer)

    def wrap(self, owner, attr: str, name: str, *,
             request_of: Optional[Callable] = None,
             args_of: Optional[Callable] = None,
             after_of: Optional[Callable] = None) -> Callable[[], None]:
        """Replace ``owner.attr`` with a spanned version; returns an undo.

        ``request_of(*args, **kwargs)`` names the request a call
        serves; ``args_of(*args, **kwargs)`` adds span arguments at the
        start and ``after_of(result, *args, **kwargs)`` after the span
        closed, so what it costs stays outside the span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            request = request_of(*args, **kwargs) if request_of else None
            extra = args_of(*args, **kwargs) if args_of else None
            span = self.begin(name, request=request, args=extra)
            outer = self.enter(span)
            try:
                result = original(*args, **kwargs)
            finally:
                self.finish(span, outer)
            if after_of is not None:
                span.args = dict(span.args or {},
                                 **after_of(result, *args, **kwargs))
            return result

        setattr(owner, attr, traced)
        return lambda: setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write every finished span as Chrome trace-event JSON."""
        pid = os.getpid()
        document = {"traceEvents": [span.to_event(pid)
                                    for span in self.spans],
                    "displayTimeUnit": "ms"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def read_spans(path: str) -> List[Span]:
    """The spans of a trace file written by :meth:`Tracer.write`."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [Span.from_event(event) for event in document["traceEvents"]]


def covered(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Each span's duration minus the part of it its children cover.

    Children count wherever they ran: a child on another thread (a
    batch the scheduler ran for an ``ingest``) covers its parent's
    interval just the same.  Child intervals are clipped to the parent.
    """
    spans = list(spans)
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [(max(child.start, span.start), min(child.end, span.end))
                   for child in children.get(span.id, ())]
        result[span.id] = span.duration - covered(
            (start, end) for start, end in clipped if end > start)
    return result
