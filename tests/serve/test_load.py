"""The serving acceptance load test (tier-1 sized, no marker).

Drives 512 concurrent single-image HTTP requests against a Table-1 config
and verifies, per the acceptance criteria:

* every per-request logits vector **exactly** matches
  ``InferenceEngine.predict_logits`` run serially (float64 survives the
  JSON round-trip bit-for-bit);
* zero requests are lost or mis-ordered — each response is checked against
  the serial row for *its own* image index;
* when the queue bound is exceeded, shed requests receive explicit 503s;
* the ``/metrics`` counters reconcile: ``accepted + shed == offered``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ModelServer,
    PredictClient,
    ServeHTTPError,
    ServerConfig,
)

from tests.serve.conftest import build_small_network, sample_images

TOTAL_REQUESTS = 512
CLIENT_THREADS = 16


def test_load_512_concurrent_requests_parity_and_reconciliation():
    model = build_small_network(4)  # Table-1 config 4, test-scaled width
    registry = ModelRegistry(
        BatcherConfig(max_batch_size=32, max_wait_s=0.002, queue_depth=1024)
    )
    entry = registry.register("net4", model)
    images = sample_images(TOTAL_REQUESTS, seed=40)
    serial = entry.engine.predict_logits(images)

    results: "dict[int, np.ndarray]" = {}
    failures: "list[tuple[int, Exception]]" = []
    lock = threading.Lock()
    next_index = iter(range(TOTAL_REQUESTS))

    with ModelServer(registry, ServerConfig(port=0, request_timeout_s=60.0)) as server, \
            PredictClient(server.url, timeout_s=60.0) as client:

        def worker():
            while True:
                with lock:
                    i = next(next_index, None)
                if i is None:
                    return
                try:
                    logits = client.predict(images[i], model="net4").logits
                    with lock:
                        results[i] = logits
                except Exception as exc:
                    with lock:
                        failures.append((i, exc))

        threads = [threading.Thread(target=worker) for _ in range(CLIENT_THREADS)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(300)
        elapsed = time.perf_counter() - start
        metrics = client.metrics()["models"]["net4"]

    # -- zero lost, zero failed, none mis-ordered --------------------------
    assert not failures, f"{len(failures)} requests failed, first: {failures[0]}"
    assert sorted(results) == list(range(TOTAL_REQUESTS))
    for i in range(TOTAL_REQUESTS):
        np.testing.assert_array_equal(
            results[i], serial[i],
            err_msg=f"request {i}: served logits differ from serial engine",
        )

    # -- counters reconcile -------------------------------------------------
    req = metrics["requests"]
    assert req["offered"] == TOTAL_REQUESTS
    assert req["accepted"] + req["shed"] == req["offered"]
    assert req["shed"] == 0  # queue_depth=1024 never overflows here
    assert req["completed"] == TOTAL_REQUESTS
    assert req["expired"] == 0 and req["failed"] == 0 and req["cancelled"] == 0

    # -- micro-batching actually engaged under concurrent load -------------
    batches = metrics["batches"]
    assert batches["count"] < TOTAL_REQUESTS, "no request coalescing ever happened"
    assert batches["mean_size"] > 1.0
    assert metrics["latency_s"]["p99"] > 0.0
    assert elapsed < 240.0  # sanity: the load test must stay tier-1 sized


def test_load_shedding_gives_explicit_503s_and_reconciles():
    """Overflowing the high-water mark sheds with 503 + shed flag, and the
    offered/accepted/shed accounting stays exact."""
    queue_depth = 8
    overflow = 24
    registry = ModelRegistry(
        BatcherConfig(max_batch_size=8, max_wait_s=0.001, queue_depth=queue_depth)
    )
    entry = registry.register("net4", build_small_network(4))
    images = sample_images(queue_depth + overflow, seed=41)
    serial = entry.engine.predict_logits(images)

    with ModelServer(registry, ServerConfig(port=0, request_timeout_s=30.0)) as server, \
            PredictClient(server.url, timeout_s=30.0) as client:
        # Wedge the batcher so exactly queue_depth requests can be admitted.
        entry.batcher.pause()
        statuses: "dict[int, str]" = {}
        results: "dict[int, np.ndarray]" = {}
        lock = threading.Lock()

        def call(i: int):
            try:
                logits = client.predict(images[i]).logits
                with lock:
                    statuses[i] = "ok"
                    results[i] = logits
            except ServeHTTPError as exc:
                with lock:
                    statuses[i] = "shed" if exc.shed else f"error:{exc.status}"

        # Admit exactly queue_depth requests first, so shedding is
        # deterministic rather than racing the dequeue loop.
        admitted = list(range(queue_depth))
        threads = [threading.Thread(target=call, args=(i,)) for i in admitted]
        for t in threads:
            t.start()
        for _ in range(1000):
            if entry.batcher.queue_depth == queue_depth:
                break
            time.sleep(0.005)
        assert entry.batcher.queue_depth == queue_depth

        # Every further request must be shed with an explicit 503.
        rest = list(range(queue_depth, queue_depth + overflow))
        more = [threading.Thread(target=call, args=(i,)) for i in rest]
        for t in more:
            t.start()
        for t in more:
            t.join(60)

        entry.batcher.resume()
        for t in threads:
            t.join(60)
        metrics = client.metrics()["models"]["net4"]

    assert [statuses[i] for i in rest] == ["shed"] * overflow
    assert [statuses[i] for i in admitted] == ["ok"] * queue_depth
    for i in admitted:  # the admitted requests still answer exactly
        np.testing.assert_array_equal(results[i], serial[i])

    req = metrics["requests"]
    assert req["offered"] == queue_depth + overflow
    assert req["accepted"] == queue_depth
    assert req["shed"] == overflow
    assert req["accepted"] + req["shed"] == req["offered"]
    assert req["completed"] == queue_depth
