"""Stdlib-only HTTP front end for the serving layer.

:class:`ModelServer` wraps a :class:`~repro.serve.registry.ModelRegistry`
in one event-loop thread (stdlib :mod:`selectors`, no third-party
dependencies) exposing:

* ``POST /v1/predict`` — one CHW image or a batch, in either of two body
  formats:

  - ``Content-Type: application/x-npy``: the body is one ``.npy`` file
    holding a CHW array (one image) or an NCHW array (a batch).
    ``model``, ``deadline_ms``, ``priority`` and ``tenant`` travel as query
    parameters (``/v1/predict?model=net4&deadline_ms=50``).  This is the
    format :class:`~repro.serve.client.PredictClient` sends.  The body is
    decoded as ``np.lib.format.read_array(..., allow_pickle=False)`` would
    decode it, so an object-dtype or pickled payload is rejected with 400
    and never unpickled; a header already seen is not parsed again.
  - any other Content-Type (none, ``application/json``, curl's default
    ``application/x-www-form-urlencoded``): a JSON object with one CHW
    ``"image"`` (or a list under ``"images"``), optional ``"model"``
    (required only when several models are registered), ``"deadline_ms"``,
    ``"priority"`` and ``"tenant"``.

  Either way the answer is JSON with logits and argmax predictions; float64
  logits survive the JSON round-trip exactly (``repr``-based float
  serialization), which the parity load test relies on.
* ``GET /healthz`` — liveness plus the registered model names.
* ``GET /metrics`` — JSON snapshot of every model's serving metrics, plus
  server counters: predict requests by body format, open connections and
  requests in flight among them.

Routing looks at the path alone: a query string never turns a known
endpoint into a 404.

How a request moves: the loop thread accepts each connection (with
``TCP_NODELAY``, so no answer waits on the client's delayed ACK), reads
its bytes and frames one request at a time — a head of at most 64 KiB,
then a body of ``Content-Length`` bytes.  ``/healthz``, ``/metrics`` and
``/`` are answered in place.  A predict is submitted to the model's
batcher and the loop goes back to its other sockets: when the last future
of the request resolves, a done-callback on the completing thread encodes
the JSON answer and writes it with one non-blocking ``send``.  Whatever the
socket does not take is left to the loop, so a client that reads slowly
never blocks a batcher worker.  A connection reads nothing while its
request is outstanding, so answers leave in request order, pipelined or
not.  Connections are keep-alive (HTTP/1.0 and ``Connection: close``
requests close after their answer), ``Expect: 100-continue`` gets its
interim answer, and a connection idle for 60 s is closed.

Error mapping is explicit: malformed requests → 400 (411 without a
Content-Length, 413 over 64 MiB, 431 for a head over 64 KiB; these also
close the connection, since an unread body would parse as the next
request), unknown model → 404, shed by backpressure → **503** (with
``Retry-After``), tenant quota → 429, deadline expired or no answer within
``request_timeout_s`` → 504, engine failure → 500.

Shutdown is drain-then-stop: the listener closes, queued and in-flight
requests complete through the batchers, their answers are written, and
only then does the loop close the remaining connections — no future is
ever dropped (``stop(drain=False)`` is the fast path that fails queued
requests with 503-style errors instead).
"""

from __future__ import annotations

import collections
import io
import json
import math
import selectors
import socket
import threading
import time
import urllib.parse
from http import HTTPStatus

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    QuotaExceededError,
    ServerClosedError,
    ShapeError,
    UnknownModelError,
)
from repro.serve.config import ServerConfig
from repro.serve.registry import ModelRegistry
from repro.train.metrics import Counter
from repro.utils.logging import get_logger
from repro.version import __version__

__all__ = ["ModelServer"]

logger = get_logger("serve.http")

_MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEAD_BYTES = 64 * 1024
#: Idle keep-alive connections are closed after this many seconds.
_IDLE_TIMEOUT_S = 60.0
#: A connection closed after an answer keeps discarding input this long, so
#: a client still sending an unread body reads its answer, not a reset.
_LINGER_S = 2.0
#: Distinct ``.npy`` headers whose parse is kept.
_NPY_HEADER_CACHE = 32
_RECV_BYTES = 256 * 1024
_NPY_CONTENT_TYPE = "application/x-npy"
#: Request fields a ``.npy`` predict carries as query parameters.
_QUERY_FIELDS = ("model", "deadline_ms", "priority", "tenant")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


class _RequestError(Exception):
    """Internal: carries an HTTP status + message to the response writer."""

    def __init__(self, status: int, message: str, **extra) -> None:
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


def _error_answer(exc: BaseException) -> "tuple[int, dict, dict | None]":
    """An exception from parsing, submitting or a future -> (status, payload, headers)."""
    if isinstance(exc, _RequestError):
        return exc.status, exc.payload, None
    if isinstance(exc, CircuitOpenError):
        retry_after = max(1, int(-(-getattr(exc, "retry_after_s", 1.0) // 1)))
        return 503, {"error": str(exc), "breaker_open": True}, {"Retry-After": str(retry_after)}
    if isinstance(exc, QuotaExceededError):
        return 429, {"error": str(exc), "quota": True}, {"Retry-After": "1"}
    if isinstance(exc, QueueFullError):
        return 503, {"error": str(exc), "shed": True}, {"Retry-After": "1"}
    if isinstance(exc, ServerClosedError):
        return 503, {"error": str(exc), "shed": True}, None
    if isinstance(exc, DeadlineExceededError):
        return 504, {"error": str(exc)}, None
    if isinstance(exc, UnknownModelError):
        return 404, {"error": str(exc)}, None
    if isinstance(exc, (ShapeError, ConfigurationError, ValueError, TypeError)):
        return 400, {"error": str(exc)}, None
    logger.error("predict failed", exc_info=exc)
    return 500, {"error": str(exc)}, None


# -- request parsing -----------------------------------------------------------------------


class _Request:
    """One parsed request head."""

    __slots__ = ("method", "path", "query", "headers", "keep_alive", "length", "npy")

    def __init__(self, method: str, target: str, headers: "dict[str, str]", keep_alive: bool):
        url = urllib.parse.urlsplit(target)
        self.method = method
        self.path = url.path
        self.query = url.query
        self.headers = headers
        self.keep_alive = keep_alive
        self.length = 0
        self.npy = False


def _parse_head(head: bytes) -> _Request:
    """A request head (request line and header fields, no blank line) -> :class:`_Request`."""
    lines = head.decode("latin-1").split("\r\n")
    words = lines[0].split()
    if len(words) != 3:
        raise _RequestError(400, f"bad request line {lines[0][:200]!r}")
    method, target, version = words
    if (
        len(version) != 8
        or not version.startswith("HTTP/")
        or version[6] != "."
        or version[5] not in "0123456789"
        or version[7] not in "0123456789"
    ):
        raise _RequestError(400, f"bad HTTP version {version[:20]!r}")
    if version[5] != "1":
        raise _RequestError(505, f"{version} is not supported")
    headers: "dict[str, str]" = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        # No space may precede the colon, and a line starting with one is
        # an obsolete fold: both are refused rather than guessed at.
        if not sep or not name or name[0] in " \t" or name[-1] in " \t":
            raise _RequestError(400, f"bad header line {line[:200]!r}")
        name = name.lower()
        value = value.lstrip(" \t")
        if name not in headers:
            headers[name] = value
        elif name == "content-length" and headers[name] != value:
            raise _RequestError(400, "conflicting Content-Length headers")
    tokens = {t.strip() for t in headers.get("connection", "").lower().split(",")}
    keep_alive = "keep-alive" in tokens if version == "HTTP/1.0" else "close" not in tokens
    return _Request(method, target, headers, keep_alive)


def _content_length(header: "str | None") -> int:
    if header is None:
        raise _RequestError(411, "Content-Length required")
    # RFC 9110 ``1*DIGIT``.  int() alone would also take "+12", " 12 ",
    # "1_000" and non-ASCII digits such as "١٢".
    if not (header.isascii() and header.isdigit()):
        raise _RequestError(400, f"bad Content-Length {header!r}")
    # Compare digit counts first: int() refuses strings of over 4300 digits.
    digits = header.lstrip("0") or "0"
    if len(digits) > len(str(_MAX_BODY_BYTES)) or not 0 < int(digits) <= _MAX_BODY_BYTES:
        raise _RequestError(413, f"body must be 1..{_MAX_BODY_BYTES} bytes, got {digits}")
    return int(digits)


def _parse_json(body: bytes) -> "tuple[dict, list[np.ndarray], bool]":
    """A JSON predict body -> (fields, images, single)."""
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _RequestError(400, f"body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise _RequestError(400, "body must be a JSON object")
    single = "image" in payload
    if single == ("images" in payload):
        raise _RequestError(400, 'body must carry exactly one of "image" or "images"')
    raw = [payload["image"]] if single else payload["images"]
    if not isinstance(raw, list) or (not single and not raw):
        raise _RequestError(400, '"images" must be a non-empty list of CHW arrays')
    try:
        images = [np.asarray(img, dtype=np.float64) for img in raw]
    except (ValueError, TypeError) as exc:
        raise _RequestError(400, f"could not parse image array: {exc}") from None
    return payload, images, single


def _npy_header_length(body: bytes) -> int:
    """Bytes before the array data of a ``.npy`` body, or 0 when the prefix is not one."""
    if body[:6] != b"\x93NUMPY" or len(body) < 12:
        return 0
    if body[6] == 1:
        return 10 + int.from_bytes(body[8:10], "little")
    if body[6] in (2, 3):
        return 12 + int.from_bytes(body[8:12], "little")
    return 0


def _parse_npy(body: bytes, headers: dict) -> "tuple[list[np.ndarray], bool]":
    """A ``.npy`` predict body (CHW or NCHW) -> (images, single).

    Accepts exactly what ``np.lib.format.read_array(allow_pickle=False)``
    accepts, and of that only numeric dtypes in a file that fills the body
    exactly: object arrays are refused, never unpickled.  ``headers`` maps
    the header bytes of bodies that passed those checks to their (dtype,
    shape, fortran order); a body whose header is there is decoded with
    one ``np.frombuffer`` after an exact-length check, and any other goes
    through ``read_array``.
    """
    start = _npy_header_length(body)
    known = headers.get(body[:start]) if start else None
    if known is not None:
        dtype, shape, fortran = known
        count = math.prod(shape)
        if len(body) - start == count * dtype.itemsize:
            flat = np.frombuffer(body, dtype=dtype, count=count, offset=start)
            array = flat.reshape(shape[::-1]).T if fortran else flat.reshape(shape)
            return _npy_images(array)
    buf = io.BytesIO(body)
    try:
        array = np.lib.format.read_array(buf, allow_pickle=False)
    except ValueError as exc:
        raise _RequestError(400, f"body is not a valid .npy array: {exc}") from None
    if buf.tell() != len(body):
        raise _RequestError(400, f"{len(body) - buf.tell()} trailing bytes after the .npy array")
    if array.dtype.kind not in "biuf":
        raise _RequestError(400, f".npy dtype must be numeric, got {array.dtype}")
    images = _npy_images(array)
    start = len(body) - array.nbytes
    if len(headers) < _NPY_HEADER_CACHE and start == _npy_header_length(body):
        # read_array hands a Fortran-order file back as a transposed view.
        headers[body[:start]] = (array.dtype, array.shape, not array.flags.c_contiguous)
    return images


def _npy_images(array: np.ndarray) -> "tuple[list[np.ndarray], bool]":
    if array.ndim == 3:
        return [array.astype(np.float64, copy=False)], True
    if array.ndim == 4 and len(array):
        return list(array.astype(np.float64, copy=False)), False
    raise _RequestError(
        400, f".npy body must be one CHW image or a non-empty NCHW batch, got shape {array.shape}"
    )


def _parse_query(query: str) -> dict:
    """Query parameters of a ``.npy`` predict -> the JSON-shaped request fields."""
    params = urllib.parse.parse_qs(query, keep_blank_values=True)
    fields: dict = {}
    for key in _QUERY_FIELDS:
        values = params.get(key)
        if values is None:
            continue
        if len(values) != 1:
            raise _RequestError(400, f"query parameter {key!r} given {len(values)} times")
        fields[key] = values[0]
    if "deadline_ms" in fields:
        try:
            fields["deadline_ms"] = float(fields["deadline_ms"])
        except ValueError:
            raise _RequestError(400, '"deadline_ms" must be a positive number') from None
    return fields


def _submit_args(fields: dict) -> "tuple[str | None, dict]":
    """Validated request fields -> (model name, keyword arguments for ``batcher.submit``)."""
    name = fields.get("model")
    if name is not None and not isinstance(name, str):
        raise _RequestError(400, '"model" must be a string')
    deadline_ms = fields.get("deadline_ms")
    # bool is an int subclass: JSON ``true`` must not read as 1 ms.
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or not 0 < deadline_ms < math.inf
    ):
        raise _RequestError(400, '"deadline_ms" must be a positive number')
    priority = fields.get("priority", "interactive")
    if not isinstance(priority, str):
        raise _RequestError(400, '"priority" must be a string')
    tenant = fields.get("tenant")
    if tenant is not None and not isinstance(tenant, str):
        raise _RequestError(400, '"tenant" must be a string')
    deadline_s = None if deadline_ms is None else deadline_ms / 1000.0
    return name, {"deadline_s": deadline_s, "priority": priority, "tenant": tenant}


# -- the event loop ------------------------------------------------------------------------


class _Conn:
    """One accepted connection.

    The loop thread owns the read side: ``rbuf``, ``req`` and the selector
    registration.  ``lock`` orders the hand-offs with the thread that
    writes an answer: ``busy`` (a request is outstanding) turns on in the
    loop and off in the writer, and ``paused`` (read interest dropped while
    busy) is how the writer learns the loop needs to resume the connection.
    """

    __slots__ = (
        "sock", "lock", "rbuf", "scanned", "req", "busy", "inflight", "keep_alive",
        "out", "paused", "lingering", "closed", "events", "last_active",
    )

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.lock = threading.Lock()
        self.rbuf = bytearray()
        self.scanned = 0  # rbuf bytes already searched for the end of a head
        self.req: "_Request | None" = None  # head parsed, body still arriving
        self.busy = False
        self.inflight = False
        self.keep_alive = True
        self.out: "memoryview | None" = None  # answer bytes the socket has not taken
        self.paused = False
        self.lingering = False
        self.closed = False
        self.events = 0
        self.last_active = time.monotonic()


class _Pending:
    """A predict waiting on its futures, answered once: by the last future or by the timeout."""

    __slots__ = ("server", "conn", "model", "futures", "single", "left", "done")

    def __init__(self, server: "_Server", conn: _Conn, model: str, futures: list, single: bool):
        self.server = server
        self.conn = conn
        self.model = model
        self.futures = futures
        self.single = single
        self.left = len(futures)
        self.done = False

    def on_done(self, _future) -> None:
        with self.conn.lock:
            self.left -= 1
            if self.left or self.done:
                return
            self.done = True
        try:
            status, payload, headers = self._answer()
        except Exception as exc:  # noqa: BLE001 - the client still gets an answer
            status, payload, headers = _error_answer(exc)
        self.futures = None
        self.server.answer(self.conn, status, payload, headers)

    def expire(self, timeout: float) -> None:
        with self.conn.lock:
            if self.done:
                return
            self.done = True
        self.futures = None
        self.server.answer(
            self.conn, 504, {"error": f"no result within the server's {timeout:g}s request timeout"}
        )

    def _answer(self) -> "tuple[int, dict, dict | None]":
        logits = []
        for future in self.futures:
            error = future.exception()
            if error is not None:
                return _error_answer(error)
            logits.append(future.result())
        out: dict = {"model": self.model}
        if self.single:
            out["logits"] = logits[0].tolist()
            out["prediction"] = int(np.argmax(logits[0]))
        else:
            out["logits"] = [row.tolist() for row in logits]
            out["predictions"] = [int(np.argmax(row)) for row in logits]
        return 200, out, None


class _Server:
    """The listener, its connections and the loop thread that serves them."""

    def __init__(self, registry: ModelRegistry, config: ServerConfig, drain_timed_out: Counter):
        self.registry = registry
        self.config = config
        self.drain_timed_out = drain_timed_out
        self.http_requests = Counter()
        #: Predict requests by body format (``json`` or ``npy``).
        self.predict_requests = {"json": Counter(), "npy": Counter()}
        self.started_at = time.monotonic()
        self._npy_headers: dict = {}
        # A deep accept backlog: load tests burst dozens of simultaneous connects.
        self._listener = socket.create_server((config.host, config.port), backlog=128)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "accept")
        self._selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        self._conns: "set[_Conn]" = set()
        self._calls: "collections.deque" = collections.deque()
        # Request deadlines in arrival order: every request gets the same
        # timeout, so the earliest deadline is always at the left.
        self._timers: "collections.deque[tuple[float, _Pending]]" = collections.deque()
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._date = (0, "")
        self._running = True
        self._thread = threading.Thread(target=self._run, name="repro-serve-loop", daemon=True)
        self._thread.start()

    # -- calls from other threads ----------------------------------------------------------

    def _post(self, fn, *args) -> None:
        """Run ``fn(*args)`` on the loop thread."""
        self._calls.append((fn, args))
        if threading.current_thread() is not self._thread:
            try:
                self._wake_w.send(b"\0")
            except OSError:  # the pipe is full (the loop is awake) or the loop has stopped
                pass

    def stop_accepting(self) -> None:
        self._post(self._close_listener)

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight (bounded)."""
        deadline = time.monotonic() + timeout
        with self._inflight_cond:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cond.wait(remaining)
        return True

    def close(self, timeout: float) -> None:
        """End the loop; it closes every socket on its way out."""
        self._post(self._halt)
        self._thread.join(timeout)

    def answer(
        self, conn: _Conn, status: int, payload: dict, headers: "dict | None" = None
    ) -> None:
        """Send the answer to ``conn``'s outstanding request, from any thread."""
        body = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\n"
            f"Server: repro-serve/{__version__}\r\nDate: {self._http_date()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        ]
        for key, value in (headers or {}).items():
            head.append(f"{key}: {value}\r\n")
        if not conn.keep_alive:
            head.append("Connection: close\r\n")
        head.append("\r\n")
        data = "".join(head).encode("latin-1") + body
        with conn.lock:
            if conn.closed:
                return
            try:
                sent = conn.sock.send(data)
            except BlockingIOError:
                sent = 0
            except OSError:  # the client went away
                self._post(self._close, conn)
                return
            conn.last_active = time.monotonic()
            if sent < len(data):
                conn.out = memoryview(data)[sent:]
                self._post(self._want_write, conn)
                return
            resume = self._answered(conn)
        if resume:
            self._post(self._resume, conn)

    def _answered(self, conn: _Conn) -> bool:
        """The answer is out (``conn.lock`` held); True when the loop must act on ``conn``."""
        conn.busy = False
        conn.out = None
        self._end_inflight(conn)
        return not conn.keep_alive or conn.paused or bool(conn.rbuf)

    def _end_inflight(self, conn: _Conn) -> None:
        if conn.inflight:
            conn.inflight = False
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def _http_date(self) -> str:
        now = int(time.time())
        second, text = self._date
        if second != now:
            text = time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(now))
            self._date = (now, text)
        return text

    # -- the loop --------------------------------------------------------------------------

    def _run(self) -> None:
        try:
            next_sweep = time.monotonic() + 1.0
            while self._running:
                now = time.monotonic()
                timeout = next_sweep - now
                if self._timers:
                    timeout = min(timeout, self._timers[0][0] - now)
                for key, mask in self._selector.select(max(0.0, timeout)):
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    elif mask & selectors.EVENT_WRITE:
                        self._guarded(self._on_writable, key.data)
                    else:
                        self._guarded(self._on_readable, key.data)
                while self._calls:
                    fn, args = self._calls.popleft()
                    self._guarded(fn, *args)
                now = time.monotonic()
                self._expire(now)
                if now >= next_sweep:
                    self._sweep(now)
                    next_sweep = now + 1.0
        finally:
            for conn in list(self._conns):
                self._close(conn)
            self._close_listener()
            self._selector.close()
            self._wake_r.close()
            self._wake_w.close()

    def _guarded(self, fn, *args) -> None:
        """``fn(*args)``; a failure drops the connection it concerns, not the loop."""
        try:
            fn(*args)
        except Exception:  # noqa: BLE001 - the loop serves every other connection
            logger.exception("serving loop: %s failed", fn.__name__)
            for arg in args:
                if isinstance(arg, _Conn):
                    self._close(arg)

    def _halt(self) -> None:
        self._running = False

    def _close_listener(self) -> None:
        if self._listener.fileno() >= 0:
            self._selector.unregister(self._listener)
            self._listener.close()

    def _drain_wake(self) -> None:
        try:
            while self._wake_r.recv(4096):
                pass
        except BlockingIOError:
            pass

    def _accept(self) -> None:
        for _ in range(64):
            try:
                sock, _addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:  # e.g. out of file descriptors: retry on the next event
                logger.warning("accept failed", exc_info=True)
                return
            try:
                sock.setblocking(False)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # reset before we got to it
                sock.close()
                continue
            conn = _Conn(sock)
            self._conns.add(conn)
            self._watch(conn, selectors.EVENT_READ)

    def _watch(self, conn: _Conn, events: int) -> None:
        if events == conn.events:
            return
        if not conn.events:
            self._selector.register(conn.sock, events, conn)
        elif not events:
            self._selector.unregister(conn.sock)
        else:
            self._selector.modify(conn.sock, events, conn)
        conn.events = events

    def _close(self, conn: _Conn) -> None:
        with conn.lock:
            if conn.closed:
                return
            conn.closed = True
            self._end_inflight(conn)
            self._watch(conn, 0)
            conn.sock.close()
        self._conns.discard(conn)

    def _on_readable(self, conn: _Conn) -> None:
        with conn.lock:
            if conn.busy:  # read nothing until the outstanding answer is out
                conn.paused = True
                self._watch(conn, 0)
                return
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
        elif not conn.lingering:  # a lingering connection drops what it reads
            conn.last_active = time.monotonic()
            conn.rbuf += data
            self._advance(conn)

    def _on_writable(self, conn: _Conn) -> None:
        with conn.lock:
            try:
                sent = conn.sock.send(conn.out)
            except BlockingIOError:
                return
            except OSError:
                sent = -1
            if sent >= 0:
                conn.last_active = time.monotonic()
                conn.out = conn.out[sent:]
                if len(conn.out):
                    return
                self._answered(conn)
        if sent < 0:
            self._close(conn)
        else:
            self._resume(conn)

    def _want_write(self, conn: _Conn) -> None:
        if not conn.closed:
            self._watch(conn, selectors.EVENT_WRITE)

    def _resume(self, conn: _Conn) -> None:
        """After an answer: close, or read and serve the next request."""
        if conn.closed:
            return
        if not conn.keep_alive:
            # Half-close, then discard input until the client closes too.
            conn.lingering = True
            conn.last_active = time.monotonic()
            try:
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:
                self._close(conn)
                return
            self._watch(conn, selectors.EVENT_READ)
            return
        conn.paused = False
        self._watch(conn, selectors.EVENT_READ)
        self._advance(conn)

    def _expire(self, now: float) -> None:
        timers = self._timers
        while timers and (timers[0][1].done or timers[0][0] <= now):
            _deadline, pending = timers.popleft()
            if not pending.done:
                pending.expire(self.config.request_timeout_s)

    def _sweep(self, now: float) -> None:
        for conn in list(self._conns):
            waiting = conn.busy and conn.out is None  # the request timeout covers it
            limit = _LINGER_S if conn.lingering else _IDLE_TIMEOUT_S
            if not waiting and now - conn.last_active > limit:
                self._close(conn)

    # -- requests --------------------------------------------------------------------------

    def _advance(self, conn: _Conn) -> None:
        """Frame the next request in ``conn.rbuf``; dispatch it once its body is in."""
        if conn.busy or conn.closed:
            return
        rbuf = conn.rbuf
        req = conn.req
        if req is None:
            end = rbuf.find(b"\r\n\r\n", max(0, conn.scanned - 3), _MAX_HEAD_BYTES)
            if end < 0:
                conn.scanned = len(rbuf)
                if len(rbuf) >= _MAX_HEAD_BYTES:
                    self._start(conn)
                    self._reject(conn, _RequestError(431, "request head over 64 KiB"))
                return
            head = bytes(rbuf[:end])
            del rbuf[: end + 4]
            conn.scanned = 0
            self._start(conn)
            try:
                req = _parse_head(head.lstrip(b"\r\n"))
                req.length = self._frame(req)
                conn.keep_alive = req.keep_alive
            except _RequestError as exc:
                self._reject(conn, exc)
                return
            conn.req = req
            if req.length and req.headers.get("expect", "").lower() == "100-continue":
                try:
                    sent = conn.sock.send(_CONTINUE)
                except OSError:
                    sent = 0
                # Nothing else is queued on the socket: a short send means it is dead.
                if sent < len(_CONTINUE):
                    self._close(conn)
                    return
        if len(rbuf) < req.length:
            return
        body = bytes(rbuf[: req.length])
        del rbuf[: req.length]
        conn.req = None
        conn.busy = True
        self._dispatch(conn, req, body)

    def _start(self, conn: _Conn) -> None:
        """A request head has arrived: it is in flight until its answer is out."""
        conn.inflight = True
        with self._inflight_cond:
            self._inflight += 1

    def _reject(self, conn: _Conn, exc: _RequestError) -> None:
        """Answer a request whose body is not read, then close the connection."""
        conn.keep_alive = False
        conn.busy = True
        self.answer(conn, exc.status, exc.payload)

    def _frame(self, req: _Request) -> int:
        """Route a request head -> its body length; a :class:`_RequestError` closes."""
        self.http_requests.increment()
        if "transfer-encoding" in req.headers:
            raise _RequestError(501, "Transfer-Encoding is not supported; send Content-Length")
        if req.method == "GET":
            if req.headers.get("content-length", "0") != "0":
                req.keep_alive = False  # the body is never read
            return 0
        if req.method != "POST":
            raise _RequestError(501, f"unsupported method {req.method!r}")
        if req.path != "/v1/predict":
            raise _RequestError(404, f"unknown path {req.path!r}")
        content_type = req.headers.get("content-type", "").partition(";")[0].strip().lower()
        req.npy = content_type == _NPY_CONTENT_TYPE
        self.predict_requests["npy" if req.npy else "json"].increment()
        return _content_length(req.headers.get("content-length"))

    def _dispatch(self, conn: _Conn, req: _Request, body: bytes) -> None:
        if req.method == "GET":
            status, payload = self._get(req.path)
            self.answer(conn, status, payload)
            return
        try:
            if req.npy:
                fields = _parse_query(req.query)
                images, single = _parse_npy(body, self._npy_headers)
            else:
                fields, images, single = _parse_json(body)
            name, kwargs = _submit_args(fields)
            entry = self.registry.get(name)
            # Submit every image before any completes an answer, so one HTTP
            # batch can be coalesced into one engine batch.  Priority and
            # tenant flow to the cluster router's admission control; the
            # in-process micro-batcher accepts and ignores them.
            futures = [entry.batcher.submit(img, **kwargs) for img in images]
        except Exception as exc:  # noqa: BLE001 - every failure maps to a status
            self.answer(conn, *_error_answer(exc))
            return
        pending = _Pending(self, conn, entry.name, futures, single)
        self._timers.append((time.monotonic() + self.config.request_timeout_s, pending))
        for future in futures:
            future.add_done_callback(pending.on_done)

    def _get(self, path: str) -> "tuple[int, dict]":
        if path == "/healthz":
            return 200, {"status": "ok", "models": self.registry.names()}
        if path == "/metrics":
            return 200, {
                "server": {
                    "uptime_s": time.monotonic() - self.started_at,
                    "http_requests": self.http_requests.value,
                    "predict_requests": {
                        fmt: counter.value for fmt, counter in self.predict_requests.items()
                    },
                    "connections_open": len(self._conns),
                    "requests_inflight": self._inflight,
                    "drain_timed_out": self.drain_timed_out.value,
                    "version": __version__,
                },
                "models": self.registry.metrics_snapshot(),
            }
        if path == "/":
            return 200, {
                "service": "repro-serve",
                "endpoints": ["POST /v1/predict", "GET /healthz", "GET /metrics"],
            }
        return 404, {"error": f"unknown path {path!r}"}


class ModelServer:
    """The serving front end: HTTP listener + registry lifecycle.

    Usage::

        registry = ModelRegistry()
        registry.register("net4", model)
        with ModelServer(registry, ServerConfig(port=0)) as server:
            print(server.url)     # e.g. http://127.0.0.1:40913
            ...
        # exiting the context drains and stops

    ``start``/``stop`` may also be called explicitly; ``stop(drain=True)``
    is the graceful path (see module docstring).
    """

    def __init__(self, registry: ModelRegistry, config: "ServerConfig | None" = None) -> None:
        self.registry = registry
        self.config = config or ServerConfig()
        self._server: "_Server | None" = None
        #: Times a graceful stop hit its drain deadline with requests still
        #: unanswered (surfaced in ``/metrics`` under ``server``).
        self.drain_timed_out = Counter()

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "ModelServer":
        if self._server is not None:
            return self
        self.registry.start()
        self._server = _Server(self.registry, self.config, self.drain_timed_out)
        logger.info("serving %d model(s) on %s", len(self.registry), self.url)
        return self

    def stop(self, drain: bool = True) -> None:
        """Drain-then-stop by default; idempotent.

        The whole graceful sequence shares **one** ``drain_timeout_s``
        deadline — a request that never completes cannot stretch shutdown
        to the sum of per-stage timeouts.  Hitting the deadline with
        requests still unanswered (one whose body never arrives, say)
        increments :attr:`drain_timed_out` (surfaced in ``/metrics``) and
        shutdown proceeds anyway.
        """
        server, self._server = self._server, None
        if server is None:
            return
        deadline = time.monotonic() + self.config.drain_timeout_s
        server.stop_accepting()  # 1. stop accepting new connections
        # 2. drain queued/in-flight work through the batchers (bounded by
        # what is left of the shared deadline).
        self.registry.stop(drain=drain, timeout=max(0.0, deadline - time.monotonic()))
        timed_out = False
        if drain:
            # 3. let every answer the drain just resolved reach its socket
            # (idle keep-alive connections don't count).
            timed_out = not server.wait_idle(max(0.0, deadline - time.monotonic()))
        server.close(max(0.05, deadline - time.monotonic()))  # 4. close every socket
        if timed_out:
            self.drain_timed_out.increment()
            logger.warning(
                "drain deadline (%gs) hit with requests still unanswered",
                self.config.drain_timeout_s,
            )
        logger.info("server stopped (drain=%s)", drain)

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int:
        """The actually bound port (meaningful with ``port=0`` configs)."""
        if self._server is None:
            raise ServerClosedError("server is not running")
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"
