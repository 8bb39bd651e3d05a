"""HTTP front end: endpoints, error mapping, graceful drain-then-stop, wire formats, transport."""

from __future__ import annotations

import http.client
import io
import json
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.errors import ServerClosedError
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ModelServer,
    PredictClient,
    ServeHTTPError,
    ServerConfig,
)
from repro.serve.http import _content_length, _RequestError

from tests.serve.conftest import build_small_network, sample_images


@pytest.fixture()
def server():
    registry = ModelRegistry(BatcherConfig(max_batch_size=8, max_wait_s=0.002))
    registry.register("net4", build_small_network(4))
    srv = ModelServer(registry, ServerConfig(port=0, request_timeout_s=15.0))
    srv.start()
    yield srv
    srv.stop()


@pytest.fixture()
def client(server):
    with PredictClient(server.url) as c:
        yield c


def _post_raw(url: str, body: bytes, content_type: str = "application/json"):
    req = urllib.request.Request(
        f"{url}/v1/predict", data=body, headers={"Content-Type": content_type}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server, client):
        health = client.healthz()
        assert health == {"status": "ok", "models": ["net4"]}

    def test_index_lists_endpoints(self, server):
        with urllib.request.urlopen(f"{server.url}/", timeout=15) as resp:
            payload = json.loads(resp.read())
        assert "POST /v1/predict" in payload["endpoints"]

    def test_predict_single_exact(self, server, client):
        images = sample_images(3, seed=30)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = client.predict(images[1], model="net4")
        np.testing.assert_array_equal(result.logits, serial[1])
        assert result.predictions == int(np.argmax(serial[1]))

    def test_predict_without_model_name_single_registration(self, server, client):
        images = sample_images(1, seed=31)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = client.predict(images[0])
        np.testing.assert_array_equal(result.logits, serial[0])

    def test_predict_batch(self, server, client):
        images = sample_images(5, seed=32)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = client.predict_batch(images)
        np.testing.assert_array_equal(result.logits, serial)
        assert result.predictions == [int(v) for v in np.argmax(serial, axis=1)]

    def test_metrics_endpoint(self, client):
        client.predict(sample_images(1)[0])
        snap = client.metrics()
        assert snap["server"]["http_requests"] >= 1
        assert snap["models"]["net4"]["requests"]["completed"] >= 1


class TestErrorMapping:
    def test_unknown_path_404(self, server, client):
        with pytest.raises(ServeHTTPError) as err:
            client._request("/v1/nope", {"x": 1})
        assert err.value.status == 404

    def test_unknown_model_404(self, server, client):
        with pytest.raises(ServeHTTPError) as err:
            client.predict(sample_images(1)[0], model="resnet999")
        assert err.value.status == 404
        assert "resnet999" in str(err.value)

    def test_invalid_json_400(self, server):
        status, payload = _post_raw(server.url, b"{not json")
        assert status == 400 and "JSON" in payload["error"]

    def test_non_object_body_400(self, server):
        status, payload = _post_raw(server.url, b"[1, 2, 3]")
        assert status == 400

    def test_missing_image_key_400(self, server):
        status, payload = _post_raw(server.url, b'{"model": "net4"}')
        assert status == 400 and "image" in payload["error"]

    def test_both_image_keys_400(self, server):
        status, _ = _post_raw(server.url, b'{"image": [], "images": []}')
        assert status == 400

    def test_bad_image_shape_400(self, server, client):
        with pytest.raises(ServeHTTPError) as err:
            client.predict(np.zeros((16, 16)))  # 2-D, not CHW
        assert err.value.status == 400

    def test_ragged_image_400(self, server):
        status, _ = _post_raw(server.url, b'{"image": [[1, 2], [3]]}')
        assert status == 400

    def test_bad_deadline_400(self, server):
        for deadline_ms in (-5, True):  # a bool is an int, but not a deadline
            status, _ = _post_raw(
                server.url,
                json.dumps({"image": sample_images(1)[0].tolist(), "deadline_ms": deadline_ms}).encode(),
            )
            assert status == 400, deadline_ms

    def test_queue_full_maps_to_503_with_shed_flag(self):
        registry = ModelRegistry(BatcherConfig(queue_depth=1, full_policy="reject"))
        entry = registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0)) as srv:
            entry.batcher.pause()  # wedge the queue deterministically
            client = PredictClient(srv.url)
            image = sample_images(1)[0]
            ok_future_started = threading.Event()
            errors: "list[ServeHTTPError]" = []

            def first():
                ok_future_started.set()
                client.predict(image)  # occupies the single queue slot

            t = threading.Thread(target=first)
            t.start()
            ok_future_started.wait(5)
            # Wait until the first request actually occupies the queue.
            for _ in range(200):
                if entry.batcher.queue_depth >= 1:
                    break
                time.sleep(0.005)
            try:
                client.predict(image)
            except ServeHTTPError as exc:
                errors.append(exc)
            entry.batcher.resume()
            t.join(10)
            client.close()
            assert errors and errors[0].status == 503 and errors[0].shed
        assert entry.metrics.shed.value == 1


class TestGracefulShutdown:
    def test_stop_drains_inflight_http_requests(self):
        """stop() lets queued work finish and handlers answer — the HTTP
        half of the no-dropped-futures acceptance criterion."""
        registry = ModelRegistry(BatcherConfig(max_batch_size=4))
        entry = registry.register("net4", build_small_network(4))
        srv = ModelServer(registry, ServerConfig(port=0, request_timeout_s=15.0)).start()
        client = PredictClient(srv.url)
        images = sample_images(6, seed=33)
        serial = entry.engine.predict_logits(images)
        entry.batcher.pause()  # requests queue up; handlers block on futures
        results: "dict[int, np.ndarray]" = {}
        failures: "list[Exception]" = []

        def call(i: int):
            try:
                results[i] = client.predict(images[i]).logits
            except Exception as exc:  # pragma: no cover - failure diagnostics
                failures.append(exc)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(images))]
        for t in threads:
            t.start()
        # Wait until every request is queued behind the paused batcher.
        for _ in range(600):
            if entry.batcher.queue_depth == len(images):
                break
            time.sleep(0.005)
        srv.stop(drain=True)  # drain overrides pause; all six must answer
        for t in threads:
            t.join(15)
        client.close()
        assert not failures, failures
        assert sorted(results) == list(range(len(images)))
        for i, logits in results.items():
            np.testing.assert_array_equal(logits, serial[i])
        assert entry.metrics.completed.value == len(images)
        assert entry.metrics.cancelled.value == 0

    def test_port_after_stop_raises(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        srv = ModelServer(registry, ServerConfig(port=0)).start()
        srv.stop()
        with pytest.raises(ServerClosedError):
            srv.port

    def test_stop_idempotent_and_context_manager(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0)) as srv:
            assert srv.running
        srv.stop()  # second stop is a no-op
        assert not srv.running


class TestDrainDeadline:
    """``stop(drain=True)`` is bounded by ONE ``drain_timeout_s`` deadline
    shared across every shutdown stage — a wedged handler thread cannot
    stretch it to the sum of per-stage timeouts — and hitting it is
    surfaced as the ``drain_timed_out`` counter in ``/metrics``."""

    def _wedge_handler(self, srv) -> "socket.socket":
        """Open a raw connection whose handler blocks forever: the request
        advertises a body that never arrives, so the handler thread sits in
        ``rfile.read`` until the socket dies — a faithful wedged handler."""
        sock = socket.create_connection(("127.0.0.1", srv.port), timeout=30)
        sock.sendall(
            b"POST /v1/predict HTTP/1.1\r\n"
            b"Host: localhost\r\nContent-Type: application/json\r\n"
            b"Content-Length: 1000\r\n\r\n{"
        )
        time.sleep(0.2)  # let the handler thread pick the request up
        return sock

    def test_wedged_handler_cannot_stretch_stop_and_is_counted(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        srv = ModelServer(
            registry, ServerConfig(port=0, drain_timeout_s=1.0)
        ).start()
        assert srv.drain_timed_out.value == 0
        sock = self._wedge_handler(srv)
        try:
            start = time.monotonic()
            srv.stop(drain=True)
            elapsed = time.monotonic() - start
            # one shared deadline: registry drain + handler wait + thread
            # join together stay near drain_timeout_s, not a multiple of it
            assert elapsed < 1.9, f"stop took {elapsed:.2f}s against a 1.0s drain budget"
            assert srv.drain_timed_out.value == 1
        finally:
            sock.close()

    def test_clean_drain_does_not_count_a_timeout(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        srv = ModelServer(registry, ServerConfig(port=0, drain_timeout_s=5.0)).start()
        client = PredictClient(srv.url)
        client.predict(sample_images(1, seed=34)[0])
        client.close()
        start = time.monotonic()
        srv.stop(drain=True)
        assert time.monotonic() - start < 2.0  # idle server: no budget burned
        assert srv.drain_timed_out.value == 0

    def test_drain_timed_out_is_surfaced_in_metrics(self):
        registry = ModelRegistry()
        registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0)) as srv:
            client = PredictClient(srv.url)
            assert client.metrics()["server"]["drain_timed_out"] == 0
            client.close()


# -- transport: TCP_NODELAY on both ends -----------------------------------------


def _nodelay(sock: socket.socket) -> bool:
    return bool(sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))


class TestTransport:
    def test_server_accepted_socket_has_nodelay(self, server, monkeypatch):
        from repro.serve import http as serve_http

        seen: "list[bool]" = []
        original = serve_http._Conn.__init__

        def init(conn, sock):
            original(conn, sock)
            seen.append(_nodelay(conn.sock))

        monkeypatch.setattr(serve_http._Conn, "__init__", init)
        client = PredictClient(server.url)
        client.healthz()
        client.close()
        assert seen == [True]

    def test_client_socket_has_nodelay(self, server):
        client = PredictClient(server.url)
        client.predict(sample_images(1, seed=50)[0])
        assert _nodelay(client._local.sock)
        client.close()

    def test_client_nodelay_survives_reconnect(self, server):
        client = PredictClient(server.url, backoff_base_s=0.0, backoff_jitter=0.0)
        image = sample_images(1, seed=51)[0]
        client.predict(image)
        first = client._local.sock
        drops = [ConnectionResetError("injected drop")]

        def drop_once():
            if drops:
                raise drops.pop()

        client.pre_request_hook = drop_once
        client.predict(image)
        assert not drops  # the hook fired and forced a reconnect
        assert client._local.sock is not first
        assert _nodelay(client._local.sock)
        client.close()

    def test_keepalive_predict_is_off_the_delayed_ack_floor(self, server):
        """With Nagle on, each response waited ~40 ms for the client's
        delayed ACK; with TCP_NODELAY a sequential call is a few ms."""
        client = PredictClient(server.url)
        image = sample_images(1, seed=52)[0]
        client.predict(image)  # connect and warm up
        times = []
        for _ in range(20):
            start = time.perf_counter()
            client.predict(image)
            times.append(time.perf_counter() - start)
        client.close()
        assert float(np.median(times)) < 0.020, f"median {np.median(times) * 1e3:.1f} ms"


# -- binary .npy request body ----------------------------------------------------


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.asarray(array), allow_pickle=True)
    return buf.getvalue()


def _post(url: str, body: bytes, headers: dict, path: str = "/v1/predict"):
    """POST with exactly ``headers`` (http.client adds no Content-Type of its own)."""
    conn = http.client.HTTPConnection(urllib.parse.urlsplit(url).netloc, timeout=15)
    try:
        conn.request("POST", path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _post_npy(url: str, body, query: str = ""):
    raw = body if isinstance(body, bytes) else _npy(body)
    path = f"/v1/predict?{query}" if query else "/v1/predict"
    return _post(url, raw, {"Content-Type": "application/x-npy"}, path)


_UNPICKLED: "list[str]" = []


def _record_unpickle(tag: str) -> str:
    _UNPICKLED.append(tag)
    return tag


class _Tripwire:
    """Unpickling one of these appends to ``_UNPICKLED``."""

    def __reduce__(self):
        return (_record_unpickle, ("unpickled",))


class TestNpyBody:
    def test_single_image_matches_json_path_bytewise(self, server):
        images = sample_images(3, seed=60)
        for image in images:
            body = json.dumps({"image": image.tolist()}).encode()
            status_j, via_json = _post_raw(server.url, body)
            status_n, via_npy = _post_npy(server.url, image)
            assert status_j == status_n == 200
            assert via_npy == via_json
            assert (
                np.asarray(via_npy["logits"]).tobytes() == np.asarray(via_json["logits"]).tobytes()
            )

    def test_batch_matches_json_path_bytewise(self, server):
        images = sample_images(4, seed=61)
        status_j, via_json = _post_raw(
            server.url, json.dumps({"images": [img.tolist() for img in images]}).encode()
        )
        status_n, via_npy = _post_npy(server.url, images)
        assert status_j == status_n == 200
        assert via_npy == via_json
        serial = server.registry.get("net4").engine.predict_logits(images)
        np.testing.assert_array_equal(np.asarray(via_npy["logits"]), serial)

    def test_float32_and_integer_bodies_are_accepted(self, server):
        image = sample_images(1, seed=62)[0]
        for array in (image.astype(np.float32), (image * 10).astype(np.int16)):
            status, payload = _post_npy(server.url, array)
            expected = server.registry.get("net4").engine.predict_logits(
                array.astype(np.float64)[None]
            )[0]
            assert status == 200
            np.testing.assert_array_equal(np.asarray(payload["logits"]), expected)

    def test_query_parameters_carry_model_and_deadline(self, server):
        image = sample_images(1, seed=63)[0]
        status, payload = _post_npy(server.url, image, "model=net4&deadline_ms=5000&tenant=a")
        assert status == 200 and payload["model"] == "net4"

    def test_unknown_model_query_404(self, server):
        status, payload = _post_npy(server.url, sample_images(1)[0], "model=resnet999")
        assert status == 404 and "resnet999" in payload["error"]

    @pytest.mark.parametrize(
        "query",
        ["deadline_ms=abc", "deadline_ms=-5", "deadline_ms=0", "deadline_ms=nan",
         "deadline_ms=inf", "deadline_ms=1&deadline_ms=2",
         "priority=interactive&priority=batch", "model=net4&model=net4"],
    )
    def test_bad_query_parameter_400(self, server, query):
        status, _ = _post_npy(server.url, sample_images(1)[0], query)
        assert status == 400

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(_npy(np.array([_Tripwire()], dtype=object)), id="object-dtype"),
            pytest.param(pickle.dumps(_Tripwire()), id="raw-pickle"),
            pytest.param(_npy(np.zeros((3, 16, 16)))[:-10], id="truncated-data"),
            pytest.param(_npy(np.zeros((3, 16, 16)))[:20], id="truncated-header"),
            pytest.param(_npy(np.zeros((3, 16, 16))) + b"xx", id="trailing-bytes"),
            pytest.param(_npy(np.zeros((16, 16))), id="rank-2"),
            pytest.param(_npy(np.zeros((1, 1, 3, 16, 16))), id="rank-5"),
            pytest.param(_npy(np.zeros((0, 3, 16, 16))), id="empty-batch"),
            pytest.param(_npy(np.zeros((3, 16, 16), dtype=complex)), id="complex"),
        ],
    )
    def test_bad_npy_body_400_and_never_unpickled(self, server, body):
        _UNPICKLED.clear()
        status, payload = _post_npy(server.url, body)
        assert status == 400, payload
        assert _UNPICKLED == []

    def test_tripwire_does_fire_when_unpickled(self):
        # Guards the test above: the payload really would run code if loaded.
        pickle.loads(pickle.dumps(_Tripwire()))
        assert _UNPICKLED.pop() == "unpickled"

    @pytest.mark.parametrize("content_type", ["application/x-npy", "application/json"])
    def test_missing_length_411_and_oversize_413(self, server, content_type):
        host, port = "127.0.0.1", server.port
        for length, expected in ((None, 411), (64 * 1024 * 1024 + 1, 413), ("9" * 5000, 413)):
            conn = http.client.HTTPConnection(host, port, timeout=15)
            try:
                conn.putrequest("POST", "/v1/predict")
                conn.putheader("Content-Type", content_type)
                if length is not None:
                    conn.putheader("Content-Length", str(length))
                conn.endheaders()
                resp = conn.getresponse()
                assert resp.status == expected
                resp.read()
                assert resp.will_close  # the unread body ends the connection
            finally:
                conn.close()

    # RFC 9110 Content-Length is 1*DIGIT: int() would also accept all of these.
    @pytest.mark.parametrize("length", ["1_000", "+12", " 12 ", "١٢", "-1", "0x10", ""])
    def test_non_digit_length_400(self, server, length):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=15)
        try:
            conn.putrequest("POST", "/v1/predict")
            conn.putheader("Content-Type", "application/x-npy")
            conn.putheader("Content-Length", length.encode("utf-8"))
            conn.endheaders()
            resp = conn.getresponse()
            assert resp.status == 400
            assert "Content-Length" in json.loads(resp.read())["error"]
            assert resp.will_close  # the unread body ends the connection
        finally:
            conn.close()

    @pytest.mark.parametrize("length", ["١٢", "１２"])
    def test_content_length_accepts_ascii_digits_only(self, length):
        # Over the wire non-ASCII digits arrive latin-1 decoded; check the
        # parser itself against the str int() would have taken.
        with pytest.raises(_RequestError) as err:
            _content_length(length)
        assert err.value.status == 400
        assert _content_length("0012") == 12

    @pytest.mark.parametrize(
        "headers",
        [{}, {"Content-Type": "application/x-www-form-urlencoded"}],
        ids=["no-content-type", "curl-default"],
    )
    def test_non_npy_content_type_parses_as_json(self, server, headers):
        image = sample_images(1, seed=64)[0]
        status, payload = _post(server.url, json.dumps({"image": image.tolist()}).encode(), headers)
        assert status == 200
        expected = server.registry.get("net4").engine.predict_logits(image[None])[0]
        np.testing.assert_array_equal(np.asarray(payload["logits"]), expected)

    def test_client_sends_npy_and_rejects_a_batch_to_predict(self, server):
        client = PredictClient(server.url)
        with pytest.raises(ValueError, match="predict_batch"):
            client.predict(sample_images(2))
        client.close()


class TestQueryStringRouting:
    @pytest.mark.parametrize("path", ["/healthz?x=1", "/metrics?verbose=1&x", "/?x=1"])
    def test_get_endpoints_ignore_query(self, server, path):
        with urllib.request.urlopen(f"{server.url}{path}", timeout=15) as resp:
            assert resp.status == 200

    def test_json_predict_ignores_query(self, server):
        image = sample_images(1, seed=65)[0]
        status, _ = _post(
            server.url, json.dumps({"image": image.tolist()}).encode(),
            {"Content-Type": "application/json"}, "/v1/predict?trace=1",
        )
        assert status == 200

    def test_unknown_path_with_query_still_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{server.url}/nope?x=1", timeout=15)
        err.value.close()
        assert err.value.code == 404

    def test_unknown_post_path_closes_the_connection(self, server):
        # Its body is never read, so the stream cannot carry another request.
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=15)
        try:
            conn.request("POST", "/v1/nope?x=1", body=b'{"image": []}')
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404 and resp.will_close
        finally:
            conn.close()


class TestPredictFormatMetrics:
    def test_predict_requests_counted_by_body_format(self, server):
        client = PredictClient(server.url)
        image = sample_images(2, seed=66)
        assert client.metrics()["server"]["predict_requests"] == {"json": 0, "npy": 0}
        client.predict(image[0])
        client.predict_batch(image)
        _post_raw(server.url, json.dumps({"image": image[0].tolist()}).encode())
        _post_npy(server.url, np.zeros((16, 16)))  # malformed requests count too
        assert client.metrics()["server"]["predict_requests"] == {"json": 1, "npy": 3}
        client.close()


# -- the event loop: framing, ordering, slow peers, limits ------------------------


def _read_answer(reader) -> "tuple[int, dict[str, str], bytes]":
    """One response from a socket's ``makefile("rb")``: (status, headers, body)."""
    status = int(reader.readline().split()[1])
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def _npy_request(image, path: str = "/v1/predict", extra: bytes = b"") -> bytes:
    body = _npy(image)
    return (
        f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Type: application/x-npy\r\n"
        f"Content-Length: {len(body)}\r\n".encode() + extra + b"\r\n" + body
    )


def _connect(server) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=15)


class TestEventLoop:
    def test_pipelined_requests_in_one_send_answer_in_order(self, server):
        images = sample_images(2, seed=70)
        serial = server.registry.get("net4").engine.predict_logits(images)
        with _connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_npy_request(images[0]) + _npy_request(images[1]))
            for i in range(2):
                status, _, body = _read_answer(reader)
                assert status == 200
                np.testing.assert_array_equal(json.loads(body)["logits"], serial[i])

    def test_request_sent_one_byte_at_a_time(self, server):
        image = sample_images(1, seed=71)[0]
        serial = server.registry.get("net4").engine.predict_logits(image[None])[0]
        request = _npy_request(image)
        with _connect(server) as sock, sock.makefile("rb") as reader:
            for i in range(len(request)):
                sock.send(request[i : i + 1])
            status, _, body = _read_answer(reader)
        assert status == 200
        np.testing.assert_array_equal(json.loads(body)["logits"], serial)

    def test_expect_100_continue_gets_an_interim_answer(self, server):
        image = sample_images(1, seed=72)[0]
        serial = server.registry.get("net4").engine.predict_logits(image[None])[0]
        request = _npy_request(image, extra=b"Expect: 100-continue\r\n")
        head, body = request.split(b"\r\n\r\n", 1)
        with _connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head + b"\r\n\r\n")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, _, answer = _read_answer(reader)
        assert status == 200
        np.testing.assert_array_equal(json.loads(answer)["logits"], serial)

    def test_head_over_64_kib_gets_431_and_close(self, server):
        with _connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (64 * 1024) + b"\r\n\r\n")
            status, headers, _ = _read_answer(reader)
            assert status == 431 and headers["connection"] == "close"
            assert reader.read() == b""  # the server closed the connection

    def test_rejected_body_still_streaming_reads_the_answer_not_a_reset(self, server):
        # 413 for a body that is still arriving: the server answers, then
        # discards input until the client is done, instead of resetting.
        with _connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(
                b"POST /v1/predict HTTP/1.1\r\nContent-Type: application/x-npy\r\n"
                b"Content-Length: 99999999999\r\n\r\n"
            )
            sock.sendall(b"\0" * (4 * 1024 * 1024))
            status, headers, _ = _read_answer(reader)
            assert status == 413 and headers["connection"] == "close"
            assert reader.read() == b""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",  # the body is never read
        ],
        ids=["http-1.0", "connection-close", "get-with-body"],
    )
    def test_request_that_ends_the_connection_is_answered_then_closed(self, server, request_bytes):
        with _connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request_bytes)
            status, headers, body = _read_answer(reader)
            assert status == 200 and json.loads(body)["models"] == ["net4"]
            assert headers["connection"] == "close"
            assert reader.read() == b""

    def test_a_client_that_never_reads_does_not_stall_others(self, server):
        # Enough pipelined /metrics answers to fill both socket buffers, so
        # the server is left holding unsent bytes for this connection.
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(("127.0.0.1", server.port))
        try:
            stalled.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" * 4000)
            loop = server._server
            for _ in range(500):
                if any(conn.out is not None for conn in list(loop._conns)):
                    break
                time.sleep(0.01)
            assert any(conn.out is not None for conn in list(loop._conns))
            images = sample_images(4, seed=73)
            serial = server.registry.get("net4").engine.predict_logits(images)
            client = PredictClient(server.url, timeout_s=10)
            got: "dict[int, list[np.ndarray]]" = {}

            def call(i: int) -> None:
                got[i] = [client.predict(images[i]).logits for _ in range(5)]

            threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            client.close()
            assert not any(t.is_alive() for t in threads)
            for i in range(4):
                for logits in got[i]:
                    np.testing.assert_array_equal(logits, serial[i])
        finally:
            stalled.close()

    def test_64_concurrent_keepalive_connections_exact(self, server):
        n = 64
        images = sample_images(n, seed=74)
        serial = server.registry.get("net4").engine.predict_logits(images)
        client = PredictClient(server.url, timeout_s=30)
        connected = threading.Barrier(n + 1, timeout=30)
        results: "dict[int, list[np.ndarray]]" = {}
        failures: "list[Exception]" = []

        def call(i: int) -> None:
            try:
                results[i] = [client.predict(images[i]).logits]
                connected.wait()  # every connection is open at once
                connected.wait()
                results[i] += [client.predict(images[i]).logits for _ in range(2)]
            except Exception as exc:  # pragma: no cover - failure diagnostics
                failures.append(exc)

        threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        connected.wait()
        with PredictClient(server.url) as probe:
            assert probe.metrics()["server"]["connections_open"] == n + 1
        connected.wait()
        for t in threads:
            t.join(60)
        client.close()
        assert not failures, failures[:3]
        for i in range(n):
            assert len(results[i]) == 3
            for logits in results[i]:
                np.testing.assert_array_equal(logits, serial[i])

    def test_request_timeout_still_gives_504(self):
        registry = ModelRegistry(BatcherConfig(max_batch_size=4))
        entry = registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0, request_timeout_s=0.3)) as srv:
            entry.batcher.pause()
            with PredictClient(srv.url) as client:
                start = time.monotonic()
                with pytest.raises(ServeHTTPError) as err:
                    client.predict(sample_images(1, seed=75)[0])
                elapsed = time.monotonic() - start
                assert err.value.status == 504 and "request timeout" in str(err.value)
                assert 0.25 < elapsed < 5.0
            entry.batcher.resume()

    def test_metrics_count_open_connections_and_inflight_requests(self):
        registry = ModelRegistry(BatcherConfig(max_batch_size=4))
        entry = registry.register("net4", build_small_network(4))
        with ModelServer(registry, ServerConfig(port=0, request_timeout_s=15.0)) as srv:
            with PredictClient(srv.url) as probe:
                # The /metrics request itself is open and in flight.
                server = probe.metrics()["server"]
                assert (server["connections_open"], server["requests_inflight"]) == (1, 1)
                entry.batcher.pause()
                with PredictClient(srv.url) as client:
                    waiter = threading.Thread(
                        target=client.predict, args=(sample_images(1, seed=76)[0],)
                    )
                    waiter.start()
                    for _ in range(500):
                        if entry.batcher.queue_depth == 1:
                            break
                        time.sleep(0.01)
                    server = probe.metrics()["server"]
                    assert (server["connections_open"], server["requests_inflight"]) == (2, 2)
                    entry.batcher.resume()
                    waiter.join(15)
                    assert not waiter.is_alive()
                server = probe.metrics()["server"]
                assert server["requests_inflight"] == 1


def test_import_loads_no_stdlib_http_machinery():
    code = (
        "import sys, repro.serve; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('email', 'socketserver') "
        "or m in ('http.server', 'http.client')))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


# -- .npy codec parity with numpy's reader and writer -----------------------------


def _npy_file(array: np.ndarray, version) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=version, allow_pickle=False)
    return buf.getvalue()


_DTYPES = ["<f8", "<f4", ">f8", "<i4", "u1", "bool"]


@pytest.mark.parametrize("dtype", _DTYPES)
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("version", [(1, 0), (2, 0)])
@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5)])
def test_npy_decode_matches_read_array(monkeypatch, dtype, order, version, shape):
    from repro.serve import http as serve_http

    values = np.random.default_rng(0).normal(0, 50, shape)
    array = np.asarray(values.astype(dtype), order=order)
    body = _npy_file(array, version)
    expected = np.lib.format.read_array(io.BytesIO(body), allow_pickle=False)
    cache: dict = {}
    first, single = serve_http._parse_npy(body, cache)  # parsed, then cached
    assert len(cache) == 1 and single == (len(shape) == 3)

    def no_reader(*args, **kwargs):
        raise AssertionError("a cached header was parsed again")

    monkeypatch.setattr(serve_http.np.lib.format, "read_array", no_reader)
    second, _ = serve_http._parse_npy(body, cache)
    monkeypatch.undo()
    want = [expected] if single else list(expected)
    for got in (first, second):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.float64
            np.testing.assert_array_equal(g, w.astype(np.float64))
    for bad in (body[:-1], body + b"\0"):  # a cached header does not relax the length check
        with pytest.raises(serve_http._RequestError) as err:
            serve_http._parse_npy(bad, cache)
        assert err.value.status == 400


@pytest.mark.parametrize("dtype", _DTYPES)
@pytest.mark.parametrize("order", ["C", "F"])
def test_client_npy_encoding_matches_np_save(dtype, order):
    client = PredictClient("http://127.0.0.1:9")
    for seed in range(2):  # header built, then reused
        values = np.random.default_rng(seed).normal(0, 50, (2, 3, 4, 5))
        array = np.asarray(values.astype(dtype), order=order)
        assert client._encode_npy(array) == _npy(array)
        assert client._encode_npy(array[0]) == _npy(array[0])
