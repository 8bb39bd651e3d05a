"""Minimal stdlib HTTP client for the serving front end.

Used by the serving tests, benchmark and example so they all speak the wire
protocol the same way; applications are equally well served by ``curl`` or
any HTTP library.  :class:`PredictClient` is thread-safe — each thread gets
its own persistent keep-alive connection, so concurrent load generators can
share one instance without paying TCP setup per request; :meth:`close`
closes them all.

Transport failures — a connect refused, an idle-closed keep-alive, and
equally a :class:`ConnectionResetError`/:class:`BrokenPipeError` that
strikes *mid-response* (headers in, body torn off by a worker crash or a
server restart) — are retried with exponential backoff plus jitter, bounded
by ``max_retries`` and by the request's deadline when one is given.  Every
endpoint is a pure function of its request, so retrying is always safe even
after a partial response.  Exhausted retries surface as
:class:`~repro.errors.RetriesExhaustedError` and a deadline that cannot
accommodate another attempt as
:class:`~repro.errors.DeadlineExceededError` — typed errors, never raw
socket exceptions.

Predict calls send the image as a binary ``.npy`` body
(``Content-Type: application/x-npy``) with ``model`` and ``deadline_ms`` as
query parameters; the server also accepts JSON, which :meth:`_request` still
sends for dict bodies.  The transport is a plain socket per thread, with
``TCP_NODELAY`` set: each request goes out in one ``sendall``, the answer is
read by its ``Content-Length``, and a server's ``Connection: close`` ends
the connection, so the next call opens a fresh one.

Tail-latency hedging is available via ``hedge_after_s``: when an attempt
has not answered within that budget, a duplicate request races it on a
second connection and the first response wins — the classic p99 defence
for a server that may be mid-restart behind one of its workers.
"""

from __future__ import annotations

import io
import json
import queue
import random
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import DeadlineExceededError, RetriesExhaustedError

__all__ = ["PredictClient", "PredictResult", "ServeHTTPError"]

#: Transport-level failures that are safe to retry: a refused connect, a
#: timeout, and a ``ConnectionError`` — reset, broken pipe, an EOF where an
#: answer was due (a reused keep-alive socket the server has since closed),
#: or a malformed answer from a dying server — before or mid-response.
_RETRYABLE = (OSError,)
#: Distinct (dtype, shape, order) whose ``.npy`` header is kept.
_NPY_HEADER_CACHE = 32


class ServeHTTPError(Exception):
    """Non-2xx response, with the parsed JSON error payload attached."""

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload

    @property
    def shed(self) -> bool:
        """True when the server explicitly load-shed this request (503)."""
        return self.status == 503 and bool(self.payload.get("shed"))


@dataclass(slots=True)
class PredictResult:
    model: str
    logits: np.ndarray  # (C,) single / (N, C) batch
    predictions: "int | list[int]"


def _parse_status(head: bytes) -> "tuple[int, int, bool]":
    """A response head -> (status, Content-Length, whether the server closes)."""
    lines = head.decode("latin-1").split("\r\n")
    version, _, rest = lines[0].partition(" ")
    if not version.startswith("HTTP/1.") or not rest[:3].isdigit():
        raise ConnectionError(f"malformed status line {lines[0][:100]!r}")
    length, close = None, version == "HTTP/1.0"
    for line in lines[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length" and value.strip().isdigit():
            length = int(value)
        elif name == "connection":
            tokens = {t.strip() for t in value.lower().split(",")}
            close = "close" in tokens or (close and "keep-alive" not in tokens)
    if length is None:
        raise ConnectionError("response without a valid Content-Length")
    return int(rest[:3]), length, close


class PredictClient:
    """Talk to a :class:`~repro.serve.http.ModelServer` at ``base_url``.

    Connections are keep-alive and thread-local: the first call from each
    thread opens one, later calls reuse it, and a connection the server has
    since closed is transparently reopened on the next retry.

    Args:
        base_url: ``http://host:port`` of the server.
        timeout_s: Socket timeout per attempt.
        max_retries: Transport-failure retries after the first attempt.
        backoff_base_s: First retry delay; doubles per retry.
        backoff_max_s: Delay ceiling.
        backoff_jitter: Each delay is scaled by ``1 + jitter * U[0, 1)`` so
            synchronized clients don't retry in lockstep.
        retry_seed: Seed for the jitter stream (deterministic tests).
        hedge_after_s: Tail-latency hedge budget: when a request has not
            answered within this many seconds, a duplicate is raced on a
            second connection and the first response wins (``None``
            disables; :attr:`hedges_fired` counts firings).  Hedge attempts
            run on short-lived threads with their own connections, so
            enabling hedging trades some keep-alive reuse for p99.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        max_retries: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        backoff_jitter: float = 0.25,
        retry_seed: "int | None" = None,
        hedge_after_s: "float | None" = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        if backoff_base_s < 0 or backoff_max_s < 0 or backoff_jitter < 0:
            raise ValueError("backoff parameters must be non-negative")
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.backoff_jitter = backoff_jitter
        parsed = urllib.parse.urlsplit(self.base_url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ValueError(f"base_url must look like http://host:port, got {base_url!r}")
        self._host = parsed.hostname
        self._port = parsed.port if parsed.port is not None else 80
        self._host_header = f"Host: {parsed.netloc}\r\n"
        if hedge_after_s is not None and hedge_after_s <= 0:
            raise ValueError(f"hedge_after_s must be positive, got {hedge_after_s}")
        self.hedge_after_s = hedge_after_s
        self._local = threading.local()
        #: Every socket this client holds open, whichever thread opened it.
        self._socks: "set[socket.socket]" = set()
        self._npy_headers: "dict[tuple, bytes]" = {}
        self._jitter_rng = random.Random(retry_seed)
        self._lock = threading.Lock()
        #: Hedge requests actually fired (attempt outlived ``hedge_after_s``).
        self.hedges_fired = 0
        #: Test seam: called before every connection attempt; raising one of
        #: the retryable transport errors simulates a dropped connection
        #: (see :class:`repro.testing.faults.ConnectionDropFault`).
        self.pre_request_hook: "Callable[[], None] | None" = None
        #: Test seam: called after response headers arrive, before the body
        #: is read; raising ``ConnectionResetError``/``BrokenPipeError``
        #: simulates a connection torn down mid-response.
        self.mid_response_hook: "Callable[[], None] | None" = None

    # -- connection management -------------------------------------------------

    def _socket(self) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if sock is None or sock.fileno() < 0:  # none yet, or closed by close()
            sock = socket.create_connection((self._host, self._port), timeout=self.timeout_s)
            # Requests go out in one send, but an answer must never wait
            # on Nagle's algorithm either way.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.sock = sock
            with self._lock:
                self._socks.add(sock)
        return sock

    def _disconnect(self) -> None:
        """Close the calling thread's connection (if any)."""
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            self._local.sock = None
            with self._lock:
                self._socks.discard(sock)
            sock.close()

    def close(self) -> None:
        """Close every connection this client holds, opened by any thread.

        A request still in flight on another thread then fails its attempt
        and retries on a fresh connection.
        """
        with self._lock:
            socks, self._socks = self._socks, set()
        for sock in socks:
            sock.close()
        self._local.sock = None

    def __enter__(self) -> "PredictClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _encode_npy(self, array: np.ndarray) -> bytes:
        """``np.save``'s bytes for ``array``, the header built once per dtype, shape and order."""
        fortran = not array.flags.c_contiguous and array.flags.f_contiguous
        key = (array.dtype, array.shape, fortran)
        header = self._npy_headers.get(key)
        if header is None:
            buf = io.BytesIO()
            np.save(buf, array, allow_pickle=False)
            raw = buf.getvalue()
            if len(self._npy_headers) < _NPY_HEADER_CACHE:
                self._npy_headers[key] = raw[: len(raw) - array.nbytes]
            return raw
        return header + array.tobytes("F" if fortran else "C")

    def _exchange(
        self, method: str, path: str, data: "bytes | None", content_type: "str | None"
    ) -> "tuple[int, bytes]":
        """One request on this thread's connection -> (status, body)."""
        sock = self._socket()
        head = f"{method} {path} HTTP/1.1\r\n{self._host_header}"
        if data is not None:
            head += f"Content-Type: {content_type}\r\nContent-Length: {len(data)}\r\n"
        sock.sendall((head + "\r\n").encode("latin-1") + (data or b""))
        buf = bytearray()
        while (end := buf.find(b"\r\n\r\n")) < 0:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionResetError("server closed the connection before answering")
            buf += chunk
        status, length, close = _parse_status(bytes(buf[:end]))
        if self.mid_response_hook is not None:
            self.mid_response_hook()
        need = end + 4 + length
        while len(buf) < need:
            chunk = sock.recv(max(65536, need - len(buf)))
            if not chunk:
                raise ConnectionResetError("server closed the connection mid-response")
            buf += chunk
        if close or len(buf) > need:  # bytes past the answer: the stream is unusable
            self._disconnect()
        return status, bytes(buf[end + 4 : need])

    # -- raw calls -------------------------------------------------------------

    def _backoff_delay(self, attempt: int) -> float:
        delay = min(self.backoff_max_s, self.backoff_base_s * (2.0 ** attempt))
        return delay * (1.0 + self.backoff_jitter * self._jitter_rng.random())

    def _request(
        self,
        path: str,
        body: "dict | np.ndarray | None" = None,
        deadline_s: "float | None" = None,
    ) -> dict:
        """GET ``path`` (no body) or POST ``body``: a dict as JSON, an array as ``.npy``."""
        if body is None:
            data, content_type = None, None
        elif isinstance(body, np.ndarray):
            data, content_type = self._encode_npy(body), "application/x-npy"
        else:
            data, content_type = json.dumps(body).encode("utf-8"), "application/json"
        if self.hedge_after_s is None:
            return self._attempt_loop(path, data, content_type, deadline_s)
        return self._hedged_request(path, data, content_type, deadline_s)

    def _attempt_loop(
        self,
        path: str,
        data: "bytes | None",
        content_type: "str | None",
        deadline_s: "float | None",
        close_after: bool = False,
    ) -> dict:
        method = "GET" if data is None else "POST"
        deadline = None if deadline_s is None else time.monotonic() + deadline_s
        try:
            for attempt in range(self.max_retries + 1):
                try:
                    if self.pre_request_hook is not None:
                        self.pre_request_hook()
                    status, raw = self._exchange(method, path, data, content_type)
                    break
                except _RETRYABLE as exc:
                    # The connection is in an unknown state — whether the drop
                    # struck before the request or mid-response — so close it
                    # and let the next attempt start from a fresh handshake.
                    self._disconnect()
                    if attempt >= self.max_retries:
                        raise RetriesExhaustedError(
                            f"{method} {path} failed after {attempt + 1} attempt(s): {exc}"
                        ) from exc
                    delay = self._backoff_delay(attempt)
                    if deadline is not None and time.monotonic() + delay >= deadline:
                        raise DeadlineExceededError(
                            f"{method} {path}: deadline leaves no room for retry "
                            f"{attempt + 2} (backoff {delay:.3f}s); last error: {exc}"
                        ) from exc
                    time.sleep(delay)
        finally:
            if close_after:  # hedge threads are short-lived: no conn to keep warm
                self._disconnect()
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            payload = {"error": raw.decode("utf-8", "replace") or f"HTTP {status}"}
        if status >= 400:
            raise ServeHTTPError(status, payload)
        return payload

    def _hedged_request(
        self,
        path: str,
        data: "bytes | None",
        content_type: "str | None",
        deadline_s: "float | None",
    ) -> dict:
        """Race a duplicate request once the first exceeds ``hedge_after_s``.

        Both attempts run their full retry loops on their own connections;
        the first to finish wins.  A finisher that *failed* only surfaces
        if no other attempt is still outstanding to save the request.
        """
        results: "queue.SimpleQueue[tuple[str, BaseException | None, dict | None]]" = (
            queue.SimpleQueue()
        )

        def run(tag: str) -> None:
            try:
                answer = self._attempt_loop(path, data, content_type, deadline_s, close_after=True)
                results.put((tag, None, answer))
            except BaseException as exc:  # delivered to the caller below
                results.put((tag, exc, None))

        threading.Thread(target=run, args=("primary",), daemon=True, name="predict-primary").start()
        outstanding = 1
        first_error: "BaseException | None" = None
        try:
            tag, error, payload = results.get(timeout=self.hedge_after_s)
            outstanding -= 1
        except queue.Empty:
            with self._lock:
                self.hedges_fired += 1
            threading.Thread(target=run, args=("hedge",), daemon=True, name="predict-hedge").start()
            outstanding += 1
            tag, error, payload = results.get()
            outstanding -= 1
        while error is not None and outstanding > 0:
            first_error = first_error or error
            tag, error, payload = results.get()
            outstanding -= 1
        if error is None:
            return payload
        raise first_error or error

    def healthz(self) -> dict:
        return self._request("/healthz")

    def metrics(self) -> dict:
        return self._request("/metrics")

    # -- prediction ------------------------------------------------------------

    def _predict(
        self, array: np.ndarray, model: "str | None", deadline_ms: "float | None"
    ) -> dict:
        params = {"model": model, "deadline_ms": deadline_ms}
        query = urllib.parse.urlencode({k: v for k, v in params.items() if v is not None})
        return self._request(
            f"/v1/predict?{query}" if query else "/v1/predict", array,
            deadline_s=None if deadline_ms is None else deadline_ms / 1000.0,
        )

    def predict(
        self,
        image,
        model: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> PredictResult:
        """Predict one CHW image; raises :class:`ServeHTTPError` on non-2xx.

        ``deadline_ms`` is enforced on both sides: the server sheds the
        request once it expires, and the client stops retrying when the next
        backoff would overrun it.
        """
        image = np.asarray(image)
        if image.ndim == 4:  # the server would read an NCHW body as a batch
            raise ValueError(
                f"predict takes one CHW image, got shape {image.shape}; use predict_batch"
            )
        out = self._predict(image, model, deadline_ms)
        return PredictResult(
            model=out["model"],
            logits=np.asarray(out["logits"], dtype=np.float64),
            predictions=out["prediction"],
        )

    def predict_batch(
        self,
        images,
        model: "str | None" = None,
        deadline_ms: "float | None" = None,
    ) -> PredictResult:
        """Predict a list/array of CHW images in one HTTP request."""
        out = self._predict(np.stack(list(images)), model, deadline_ms)
        return PredictResult(
            model=out["model"],
            logits=np.asarray(out["logits"], dtype=np.float64),
            predictions=out["predictions"],
        )
