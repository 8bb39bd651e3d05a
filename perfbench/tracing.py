"""In-memory spans recorded by the benchmark around the program's public entry points.

The program itself is not instrumented: every span is opened and closed
here, around a call the benchmark makes or around a bound method of an
object the benchmark built (``PredictClient.predict``,
``MicroBatcher.submit``, ``ClusterService.submit``,
``InferenceEngine.forward_batch`` / ``predict_logits`` and
``ExecutionPlan.execute``).  A span is ``(id, name, start, end, parent,
request_id, attrs)``; spans opened on one thread nest through a
thread-local stack, and a request id crosses threads through
:meth:`Tracer.bind_key` (the HTTP handler thread finds the client's request
by the first pixel of the image it decoded).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: "float | None" = None
    parent: "int | None" = None
    request_id: "int | None" = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def image_key(image) -> float:
    """The value that names an image across threads and the JSON round trip."""
    return float(image.flat[0])


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end of a run."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._keys: "dict[float, tuple[int, int]]" = {}
        self._lock = threading.Lock()

    # -- span lifecycle ----------------------------------------------------------

    def open(self, name: str, request_id: "int | None" = None, parent: "int | None" = None,
             **attrs) -> Span:
        if parent is None:
            stack = self._stack()
            parent = stack[-1].id if stack else None
        span = Span(next(self._ids), name, time.perf_counter(), None, parent, request_id, attrs)
        self.spans.append(span)
        return span

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, attrs=None):
        """``fn`` timed as a synchronous span nested under this thread's open span."""

        def traced(*args, **kwargs):
            span = self.open(name, **(attrs(*args, **kwargs) if attrs else {}))
            stack = self._stack()
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span.end = time.perf_counter()

        return traced

    def wrap_async(self, fn, name: str):
        """``fn`` returning a future: the span ends when the future resolves.

        ``attrs["returned"]`` is when the call itself returned, so the
        synchronous part (admission, enqueue) is measurable on its own.
        """

        def traced(image, *args, **kwargs):
            rid, parent = self.lookup(image)
            span = self.open(name, request_id=rid, parent=parent, key=image_key(image))
            try:
                future = fn(image, *args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                span.end = time.perf_counter()
                raise
            span.attrs["returned"] = time.perf_counter()
            future.add_done_callback(lambda _f: setattr(span, "end", time.perf_counter()))
            return future

        return traced

    # -- request ids across threads ---------------------------------------------------

    def bind_key(self, image, request_id: int, span_id: int) -> None:
        with self._lock:
            self._keys[image_key(image)] = (request_id, span_id)

    def unbind_key(self, image) -> None:
        with self._lock:
            self._keys.pop(image_key(image), None)

    def set_request(self, request_id: "int | None") -> None:
        """Name the request the calling thread is about to submit."""
        self._local.request_id = request_id

    def lookup(self, image) -> "tuple[int | None, int | None]":
        rid = getattr(self._local, "request_id", None)
        if rid is not None:
            return rid, None
        with self._lock:
            return self._keys.get(image_key(image), (None, None))

    # -- reading ------------------------------------------------------------------

    def named(self, name: str) -> "list[Span]":
        return [s for s in self.spans if s.name == name and s.end is not None]

    def self_times(self) -> "dict[int, float]":
        """Span id -> duration minus the part of it covered by its children."""
        children: "dict[int, list[tuple[float, float]]]" = {}
        for s in self.spans:
            if s.parent is not None and s.end is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            if s.end is None:
                continue
            covered, cursor = 0.0, s.start
            for a, b in sorted(children.get(s.id, ())):
                a, b = max(a, cursor, s.start), min(b, s.end)
                if b > a:
                    covered += b - a
                    cursor = b
            out[s.id] = s.duration - covered
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request_id": s.request_id,
                    **{k: v for k, v in s.attrs.items() if k != "rows"},
                }) + "\n")
