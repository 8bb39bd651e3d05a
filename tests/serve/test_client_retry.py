"""Client transport retries: backoff, typed exhaustion, deadline awareness.

Connection failures are injected deterministically with
:class:`~repro.testing.faults.ConnectionDropFault` on the client's
``pre_request_hook`` seam, so no real network flakiness is involved.
"""

from __future__ import annotations

import select
import time

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, RetriesExhaustedError, ServeError
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ModelServer,
    PredictClient,
    ServeHTTPError,
    ServerConfig,
)
from repro.testing import ConnectionDropFault

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
def fast_client():
    """Build clients with fast, seeded backoff; every one is closed after the test."""
    made: "list[PredictClient]" = []

    def make(url: str, **kwargs) -> PredictClient:
        kwargs.setdefault("backoff_base_s", 0.001)
        kwargs.setdefault("retry_seed", 0)
        made.append(PredictClient(url, **kwargs))
        return made[-1]

    yield make
    for client in made:
        client.close()


class TestRetries:
    def test_recovers_from_transient_drops_with_exact_result(self, server, fast_client):
        client = fast_client(server.url, max_retries=3)
        fault = ConnectionDropFault(drops=2)
        client.pre_request_hook = fault
        images = sample_images(2, seed=40)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = client.predict(images[0], model="net4")
        np.testing.assert_array_equal(result.logits, serial[0])
        assert fault.calls == 3  # two drops + the attempt that got through

    def test_batch_and_health_endpoints_retry_too(self, server, fast_client):
        client = fast_client(server.url, max_retries=2)
        client.pre_request_hook = ConnectionDropFault(drops=1)
        assert client.healthz()["status"] == "ok"
        images = sample_images(3, seed=41)
        serial = server.registry.get("net4").engine.predict_logits(images)
        client.pre_request_hook = ConnectionDropFault(drops=2)
        result = client.predict_batch(images)
        np.testing.assert_array_equal(result.logits, serial)

    def test_exhausted_retries_raise_typed_error(self, fast_client):
        # No server needed: the hook fails every attempt before any socket I/O.
        client = fast_client("http://127.0.0.1:9", max_retries=2)
        fault = ConnectionDropFault(drops=100)
        client.pre_request_hook = fault
        with pytest.raises(RetriesExhaustedError) as excinfo:
            client.healthz()
        assert isinstance(excinfo.value, ServeError)
        assert fault.calls == 3  # initial attempt + 2 retries, then give up
        assert isinstance(excinfo.value.__cause__, ConnectionError)

    def test_zero_retries_fails_on_first_drop(self, fast_client):
        client = fast_client("http://127.0.0.1:9", max_retries=0)
        fault = ConnectionDropFault(drops=1)
        client.pre_request_hook = fault
        with pytest.raises(RetriesExhaustedError):
            client.healthz()
        assert fault.calls == 1

    def test_deadline_cuts_backoff_short(self, server):
        # Backoff would wait 5s; a 50 ms deadline must abort immediately with
        # the deadline error instead of sleeping through it.
        client = PredictClient(
            server.url, max_retries=5, backoff_base_s=5.0, retry_seed=0
        )
        client.pre_request_hook = ConnectionDropFault(drops=100)
        start = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            client.predict(sample_images(1)[0], deadline_ms=50.0)
        assert time.monotonic() - start < 1.0

    def test_retry_reopens_connection_after_server_restart_style_drop(self, server, fast_client):
        # A drop mid-session closes the keep-alive connection; the retry must
        # succeed on a fresh one rather than reusing the poisoned socket.
        client = fast_client(server.url, max_retries=2)
        images = sample_images(1, seed=42)
        serial = server.registry.get("net4").engine.predict_logits(images)
        np.testing.assert_array_equal(
            client.predict(images[0]).logits, serial[0]
        )
        client.pre_request_hook = ConnectionDropFault(drops=1)
        np.testing.assert_array_equal(
            client.predict(images[0]).logits, serial[0]
        )

    def test_backoff_delay_growth_and_cap(self):
        client = PredictClient(
            "http://127.0.0.1:9", backoff_base_s=0.1, backoff_max_s=0.5,
            backoff_jitter=0.0, retry_seed=0,
        )
        assert client._backoff_delay(0) == pytest.approx(0.1)
        assert client._backoff_delay(1) == pytest.approx(0.2)
        assert client._backoff_delay(10) == pytest.approx(0.5)  # capped

    def test_jitter_stays_within_configured_band(self):
        client = PredictClient(
            "http://127.0.0.1:9", backoff_base_s=0.1, backoff_jitter=0.25,
            retry_seed=7,
        )
        for attempt in range(5):
            delay = client._backoff_delay(attempt)
            base = min(client.backoff_max_s, 0.1 * 2.0 ** attempt)
            assert base <= delay <= base * 1.25

    def test_invalid_retry_config_rejected(self):
        with pytest.raises(ValueError):
            PredictClient("http://127.0.0.1:9", max_retries=-1)
        with pytest.raises(ValueError):
            PredictClient("http://127.0.0.1:9", backoff_base_s=-0.1)


class TestMidResponseRetry:
    """A connection torn down *after* headers but *before* the body is read
    (worker crash / server restart mid-response) must be retried like any
    other transport failure — every endpoint is a pure function of its
    request, so replaying is always safe."""

    def test_mid_response_reset_is_retried_with_exact_result(self, server, fast_client):
        client = fast_client(server.url, max_retries=2)
        fault = ConnectionDropFault(drops=1, exc_type=ConnectionResetError)
        client.mid_response_hook = fault
        images = sample_images(1, seed=60)
        serial = server.registry.get("net4").engine.predict_logits(images)
        result = client.predict(images[0], model="net4")
        np.testing.assert_array_equal(result.logits, serial[0])
        assert fault.dropped == 1  # headers arrived, body was torn off once

    def test_mid_response_broken_pipe_is_retried(self, server, fast_client):
        client = fast_client(server.url, max_retries=1)
        fault = ConnectionDropFault(drops=1, exc_type=BrokenPipeError)
        client.mid_response_hook = fault
        assert client.healthz()["status"] == "ok"
        assert fault.dropped == 1

    def test_mid_response_drops_exhaust_retries_with_typed_error(self, server, fast_client):
        client = fast_client(server.url, max_retries=1)
        fault = ConnectionDropFault(drops=100, exc_type=ConnectionResetError)
        client.mid_response_hook = fault
        with pytest.raises(RetriesExhaustedError):
            client.healthz()
        assert fault.dropped == 2  # initial attempt + 1 retry


class TestHedging:
    def test_slow_primary_is_hedged_and_first_response_wins(self, server, fast_client):
        client = fast_client(server.url, max_retries=0, hedge_after_s=0.05)
        slow_once = ConnectionDropFault(drops=0)  # counts calls, never raises

        def stall_first_attempt():
            slow_once.calls += 1
            if slow_once.calls == 1:
                time.sleep(1.0)  # primary outlives the hedge budget

        client.pre_request_hook = stall_first_attempt
        images = sample_images(1, seed=61)
        serial = server.registry.get("net4").engine.predict_logits(images)
        start = time.monotonic()
        result = client.predict(images[0], model="net4")
        elapsed = time.monotonic() - start
        np.testing.assert_array_equal(result.logits, serial[0])
        assert client.hedges_fired == 1
        assert elapsed < 1.0  # the hedge answered; nobody waited for the stall

    def test_fast_primary_never_fires_a_hedge(self, server, fast_client):
        client = fast_client(server.url, max_retries=0, hedge_after_s=5.0)
        assert client.healthz()["status"] == "ok"
        assert client.hedges_fired == 0

    def test_hedged_request_surfaces_first_error_when_all_fail(self, fast_client):
        client = fast_client("http://127.0.0.1:9", max_retries=0, hedge_after_s=10.0)
        client.pre_request_hook = ConnectionDropFault(drops=100)
        with pytest.raises(RetriesExhaustedError):
            client.healthz()

    def test_invalid_hedge_budget_rejected(self):
        with pytest.raises(ValueError):
            PredictClient("http://127.0.0.1:9", hedge_after_s=0.0)


class TestTransport:
    """The client's own socket: server-side closes, reuse, and the two seams."""

    def test_connection_close_answer_reconnects_for_the_next_call(self, server, fast_client):
        client = fast_client(server.url, max_retries=0)
        with pytest.raises(ServeHTTPError) as err:  # unread body: the server closes
            client._request("/v1/nope", {"x": 1})
        assert err.value.status == 404
        assert client._local.sock is None
        images = sample_images(1, seed=80)
        serial = server.registry.get("net4").engine.predict_logits(images)
        # max_retries=0: the call succeeds on a fresh connection, not a retry.
        np.testing.assert_array_equal(client.predict(images[0]).logits, serial[0])

    def test_idle_drop_by_the_server_is_retried_not_hung(self, server, monkeypatch, fast_client):
        from repro.serve import http as serve_http

        client = fast_client(server.url, max_retries=1, timeout_s=10)
        images = sample_images(1, seed=81)
        serial = server.registry.get("net4").engine.predict_logits(images)
        client.predict(images[0])
        sock = client._local.sock
        monkeypatch.setattr(serve_http, "_IDLE_TIMEOUT_S", 0.1)
        readable, _, _ = select.select([sock], [], [], 5.0)
        assert readable and sock.recv(1) == b""  # the server closed the idle socket
        attempts = ConnectionDropFault(drops=0)
        client.pre_request_hook = attempts
        start = time.monotonic()
        np.testing.assert_array_equal(client.predict(images[0]).logits, serial[0])
        assert time.monotonic() - start < 5.0
        assert attempts.calls == 2  # the reused socket failed, the retry reconnected
        assert client._local.sock is not sock

    def test_both_hooks_fire_once_per_attempt(self, server, fast_client):
        client = fast_client(server.url, max_retries=2)
        pre, mid = ConnectionDropFault(drops=0), ConnectionDropFault(drops=0)
        client.pre_request_hook, client.mid_response_hook = pre, mid
        image = sample_images(1, seed=82)[0]
        for _ in range(3):
            client.predict(image)
        assert (pre.calls, mid.calls) == (3, 3)
        client.pre_request_hook = pre = ConnectionDropFault(drops=1)
        client.mid_response_hook = mid = ConnectionDropFault(drops=0)
        client.predict(image)
        assert (pre.calls, mid.calls) == (2, 1)  # the dropped attempt got no response
        client.pre_request_hook = pre = ConnectionDropFault(drops=0)
        client.mid_response_hook = mid = ConnectionDropFault(drops=1, exc_type=ConnectionResetError)
        client.predict(image)
        assert (pre.calls, mid.calls) == (2, 2)
