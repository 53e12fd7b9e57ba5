"""Spans recorded from outside the program, by wrapping public functions.

The traced run installs wrappers around the functions each layer exposes
(``ShreddingPipeline.compile``, ``normalise``, ``shred_query_package``,
``compile_shredded``, ``execute_package_batched``,
``Database.execute_sql_chunks``, ``stitch_grouped``, the wire client's
``execute_full`` and frame decoding, the shard router) and records one
span per call.  Each span has a name, a start, an end, a parent and the
request id of the operation it belongs to.  Spans stay in memory and are
written once, when the run ends.

Work that a wrapped call hands to worker threads (the parallel SQL engine,
the shard fan-out) is recorded under a per-thread ``lane`` span, so that
within any parent the children's self times never overlap in one thread.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "thread", "attrs")

    def __init__(self, id, name, start, parent, request, thread, attrs):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread
        self.attrs = attrs

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    def to_dict(self) -> dict:
        out = {
            "id": self.id, "name": self.name, "parent": self.parent,
            "request": self.request, "start_ms": round(self.start * 1000.0, 4),
            "end_ms": round(self.end * 1000.0, 4), "thread": self.thread,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Recorder:
    """Thread-aware span recorder for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._lanes: dict[int, Span] = {}
        self.request = None
        self._wrapped: list = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, now: float):
        stack = self._stack()
        if stack:
            return stack[-1]
        if threading.get_ident() == self._main or not self._main_stack:
            return None
        owner = self._main_stack[-1]
        thread = threading.get_ident()
        lane = self._lanes.get(thread)
        if lane is None or lane.parent != owner.id:
            lane = self._new("lane", now, owner, {})
            self._lanes[thread] = lane
        return lane

    def _new(self, name, now, parent, attrs) -> Span:
        with self._lock:
            span = Span(len(self.spans), name, now, None if parent is None else parent.id,
                        self.request, threading.get_ident(), attrs)
            self.spans.append(span)
        return span

    def open(self, name: str, **attrs) -> Span:
        now = time.perf_counter()
        span = self._new(name, now, self._parent(now), attrs)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.remove(span)
        if not stack and threading.get_ident() != self._main:
            lane = self._lanes.get(threading.get_ident())
            if lane is not None and lane.id == span.parent:
                lane.end = max(lane.end, span.end)

    @contextmanager
    def span(self, name: str, **attrs):
        span = self.open(name, **attrs)
        try:
            yield span
        finally:
            self.close(span)

    def add(self, name: str, parent: Span, start: float, end: float, **attrs) -> Span:
        """A span measured elsewhere (another process), placed in ``parent``."""
        span = self._new(name, start, parent, attrs)
        span.end = end
        return span

    # -- wrapping -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`unwrap` puts the original back."""
        self._wrapped.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span ``name``;
        ``after(span, args, result)`` may annotate the span."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, args, result)
            return result

        self.patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str, step: str) -> None:
        """Wrap a generator function: one ``name`` span from the first
        ``next`` to exhaustion, with one ``step`` child per ``next``; the
        consumer's work between items is the ``name`` span's self time."""
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            outer = recorder.open(name)
            try:
                items = original(*args, **kwargs)
                while True:
                    inner = recorder.open(step)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(inner)
                    yield item
            finally:
                recorder.close(outer)

        self.patch(owner, attr, wrapper)

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._wrapped):
            setattr(owner, attr, original)
        self._wrapped.clear()

    # -- analysis -------------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(span.parent, []).append(span)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


def covered_ms(spans) -> float:
    """Milliseconds of the union of the spans' intervals."""
    total, reach = 0.0, None
    for start, end in sorted((s.start, s.end) for s in spans):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total * 1000.0


def self_ms(span: Span, kids) -> float:
    """A span's duration minus the part of it its children cover."""
    return span.ms - covered_ms(kids)


def check_self_times(recorder: Recorder, slack_ms: float = 0.01) -> list[str]:
    """Every parent whose children's self times sum to more than its own
    duration (empty when the tree is consistent)."""
    kids = recorder.children()
    bad = []
    for span in recorder.spans:
        mine = kids.get(span.id)
        if not mine:
            continue
        total = sum(self_ms(child, kids.get(child.id, ())) for child in mine)
        if total > span.ms + slack_ms:
            bad.append(f"{span.name}#{span.id}: children self {total:.3f} ms > {span.ms:.3f} ms")
    return bad
