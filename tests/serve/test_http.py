"""HTTP front end: endpoints, error mapping, graceful drain-then-stop, wire formats, transport."""

from __future__ import annotations

import http.client
import io
import json
import pickle
import socket
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


def _post_raw(url: str, body: bytes, content_type: str = "application/json"):
    req = urllib.request.Request(
        f"{url}/v1/predict", data=body, headers={"Content-Type": content_type}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=15) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_healthz(self, server):
        health = PredictClient(server.url).healthz()
        assert health == {"status": "ok", "models": ["net4"]}

    def test_index_lists_endpoints(self, server):
        with urllib.request.urlopen(f"{server.url}/", timeout=15) as resp:
            payload = json.loads(resp.read())
        assert "POST /v1/predict" in payload["endpoints"]

    def test_predict_single_exact(self, server):
        images = sample_images(3, seed=30)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = PredictClient(server.url).predict(images[1], model="net4")
        np.testing.assert_array_equal(result.logits, serial[1])
        assert result.predictions == int(np.argmax(serial[1]))

    def test_predict_without_model_name_single_registration(self, server):
        images = sample_images(1, seed=31)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = PredictClient(server.url).predict(images[0])
        np.testing.assert_array_equal(result.logits, serial[0])

    def test_predict_batch(self, server):
        images = sample_images(5, seed=32)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = PredictClient(server.url).predict_batch(images)
        np.testing.assert_array_equal(result.logits, serial)
        assert result.predictions == [int(v) for v in np.argmax(serial, axis=1)]

    def test_metrics_endpoint(self, server):
        client = PredictClient(server.url)
        client.predict(sample_images(1)[0])
        snap = client.metrics()
        assert snap["server"]["http_requests"] >= 1
        assert snap["models"]["net4"]["requests"]["completed"] >= 1


class TestErrorMapping:
    def test_unknown_path_404(self, server):
        with pytest.raises(ServeHTTPError) as err:
            PredictClient(server.url)._request("/v1/nope", {"x": 1})
        assert err.value.status == 404

    def test_unknown_model_404(self, server):
        with pytest.raises(ServeHTTPError) as err:
            PredictClient(server.url).predict(sample_images(1)[0], model="resnet999")
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

    def test_bad_image_shape_400(self, server):
        with pytest.raises(ServeHTTPError) as err:
            PredictClient(server.url).predict(np.zeros((16, 16)))  # 2-D, not CHW
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
        original = serve_http._Handler.setup

        def setup(handler):
            original(handler)
            seen.append(_nodelay(handler.connection))

        monkeypatch.setattr(serve_http._Handler, "setup", setup)
        client = PredictClient(server.url)
        client.healthz()
        client.close()
        assert seen == [True]

    def test_client_socket_has_nodelay(self, server):
        client = PredictClient(server.url)
        client.predict(sample_images(1, seed=50)[0])
        assert _nodelay(client._local.conn.sock)
        client.close()

    def test_client_nodelay_survives_reconnect(self, server):
        client = PredictClient(server.url, backoff_base_s=0.0, backoff_jitter=0.0)
        image = sample_images(1, seed=51)[0]
        client.predict(image)
        first = client._local.conn
        drops = [ConnectionResetError("injected drop")]

        def drop_once():
            if drops:
                raise drops.pop()

        client.pre_request_hook = drop_once
        client.predict(image)
        assert not drops  # the hook fired and forced a reconnect
        assert client._local.conn is not first
        assert _nodelay(client._local.conn.sock)
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
