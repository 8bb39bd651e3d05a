"""Micro-batcher: coalescing, dispatch rule, ordering, deadlines, backpressure, shutdown."""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import wait
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    QueueFullError,
    ServerClosedError,
    ShapeError,
)
from repro.serve import BatcherConfig, MicroBatcher

from tests.serve.conftest import sample_images


class TestBatcherConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait_s": -0.1},
            {"queue_depth": 0},
            {"full_policy": "drop-newest"},
            {"default_deadline_s": 0.0},
            {"workers": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatcherConfig(**kwargs)


class TestResultsAndCoalescing:
    def test_parity_and_order_against_serial_engine(self, served_engine):
        """Every future resolves to exactly its image's serial logits row."""
        images = sample_images(40, seed=1)
        serial = served_engine.predict_logits(images)
        with MicroBatcher(served_engine, BatcherConfig(max_batch_size=8, max_wait_s=0.005)) as b:
            futures = [b.submit(img) for img in images]
            for i, fut in enumerate(futures):
                np.testing.assert_array_equal(fut.result(timeout=10), serial[i])

    def test_requests_coalesce_into_batches(self, served_engine):
        """Queued-up requests must execute as multi-image batches."""
        batcher = MicroBatcher(served_engine, BatcherConfig(max_batch_size=16, max_wait_s=0.05))
        images = sample_images(32, seed=2)
        futures = [batcher.submit(img) for img in images]  # queued before start
        batcher.start()
        wait(futures, timeout=10)
        batcher.stop()
        hist = batcher.metrics.batch_size_histogram()
        assert sum(size * n for size, n in hist.items()) == 32
        assert max(hist) > 1, f"no coalescing happened: {hist}"

    def test_batch_size_one_disables_batching(self, served_engine):
        batcher = MicroBatcher(served_engine, BatcherConfig(max_batch_size=1))
        images = sample_images(6, seed=3)
        futures = [batcher.submit(img) for img in images]
        batcher.start()
        wait(futures, timeout=10)
        batcher.stop()
        assert batcher.metrics.batch_size_histogram() == {1: 6}

    def test_result_is_detached_copy(self, served_engine):
        """Futures stay valid after the worker moves on to later batches."""
        images = sample_images(10, seed=4)
        serial = served_engine.predict_logits(images)
        with MicroBatcher(served_engine, BatcherConfig(max_batch_size=1)) as b:
            futures = [b.submit(img) for img in images]
            wait(futures, timeout=10)
        for i, fut in enumerate(futures):  # read *after* all batches ran
            np.testing.assert_array_equal(fut.result(), serial[i])


class _GatedEngine:
    """Engine stub whose first ``forward_batch`` blocks until ``release`` is set.

    Logits are the flattened images, so each row shows which request it
    answers; ``batches`` records every batch size in call order.
    """

    def __init__(self) -> None:
        self.plan = SimpleNamespace(dtype=np.float64)
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches: "list[int]" = []
        self._lock = threading.Lock()

    def make_context(self):
        return None

    def forward_batch(self, images, ctx=None):
        with self._lock:
            first = not self.batches
            self.batches.append(len(images))
        if first:
            self.entered.set()
            assert self.release.wait(30), "test never released the first batch"
        return images.reshape(len(images), -1)


def _tiny(i: int) -> np.ndarray:
    return np.full((1, 1, 2), float(i))


class TestDispatchRule:
    """Work-conserving dispatch: a forming batch is held open only while
    another batch executes (Nagle's rule applied to batches)."""

    def test_isolated_request_does_not_wait_for_the_window(self, served_engine):
        cfg = BatcherConfig(max_batch_size=32, max_wait_s=5.0)
        with MicroBatcher(served_engine, cfg) as b:
            b.submit(sample_images(1, seed=30)[0]).result(timeout=10)  # warm
            t0 = time.monotonic()
            b.submit(sample_images(1, seed=31)[0]).result(timeout=10)
            elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"isolated request held {elapsed:.2f}s on an idle engine"
        assert b.metrics.snapshot()["batches"]["close_reasons"]["idle"] == 2

    def _start_blocked(self, max_wait_s: float):
        """A 2-worker batcher whose first batch (request 0) is executing."""
        engine = _GatedEngine()
        b = MicroBatcher(engine, BatcherConfig(max_batch_size=8, max_wait_s=max_wait_s, workers=2))
        b.start()
        first = b.submit(_tiny(0))
        assert engine.entered.wait(10)
        return engine, b, first

    def test_held_batch_dispatches_when_the_executing_batch_completes(self):
        engine, b, first = self._start_blocked(max_wait_s=5.0)
        try:
            futures = [b.submit(_tiny(i)) for i in (1, 2, 3)]
            time.sleep(0.2)
            # The second worker holds them open while batch 1 executes.
            assert not any(f.done() for f in futures)
            assert engine.batches == [1]
            t0 = time.monotonic()
            engine.release.set()  # the "ACK"
            for i, fut in enumerate(futures, start=1):
                np.testing.assert_array_equal(fut.result(timeout=10), _tiny(i).ravel())
            assert time.monotonic() - t0 < 1.0  # well inside the 5 s window
            assert first.result(timeout=10)[0] == 0.0
        finally:
            engine.release.set()
            b.stop()
        assert engine.batches == [1, 3]
        closes = b.metrics.snapshot()["batches"]["close_reasons"]
        assert closes == {"full": 0, "idle": 2, "window": 0, "stop": 0}

    def test_held_batch_dispatches_after_max_wait(self):
        engine, b, first = self._start_blocked(max_wait_s=0.2)
        try:
            futures = [b.submit(_tiny(i)) for i in (1, 2)]
            # Batch 1 is still executing; the window alone closes batch 2.
            for i, fut in enumerate(futures, start=1):
                np.testing.assert_array_equal(fut.result(timeout=10), _tiny(i).ravel())
            assert not first.done()
            assert engine.batches == [1, 2]
        finally:
            engine.release.set()
            b.stop()
        assert first.result(timeout=10)[0] == 0.0
        closes = b.metrics.snapshot()["batches"]["close_reasons"]
        assert closes == {"full": 0, "idle": 1, "window": 1, "stop": 0}

    def test_full_batch_and_pause_close_a_held_batch(self):
        engine, b, first = self._start_blocked(max_wait_s=5.0)
        try:
            full = [b.submit(_tiny(i)) for i in range(1, 9)]  # max_batch_size=8
            wait(full, timeout=10)
            assert all(f.done() for f in full) and not first.done()
            held = b.submit(_tiny(9))
            time.sleep(0.1)
            assert not held.done()
            b.pause()  # closes the forming batch: serve what we have
            assert held.result(timeout=10)[0] == 9.0
        finally:
            engine.release.set()
            b.resume()
            b.stop()
        assert engine.batches == [1, 8, 1]
        closes = b.metrics.snapshot()["batches"]["close_reasons"]
        assert closes == {"full": 1, "idle": 1, "window": 0, "stop": 1}

    def test_stress_many_workers_short_switch_interval(self):
        """More workers than cores and a tiny GIL switch interval: every
        request gets its own row, and each batch is counted once."""
        engine = _GatedEngine()
        engine.release.set()  # no blocking: pure dispatch contention
        cfg = BatcherConfig(max_batch_size=4, max_wait_s=0.001, workers=4, queue_depth=4096)
        clients, per_client = 8, 50
        wrong: "list[int]" = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MicroBatcher(engine, cfg) as b:

                def client(c: int) -> None:
                    for i in range(c * per_client, (c + 1) * per_client):
                        if b.submit(_tiny(i)).result(timeout=30)[0] != i:
                            wrong.append(i)

                threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert wrong == []
        snap = b.metrics.snapshot()
        assert snap["requests"]["completed"] == sum(engine.batches) == clients * per_client
        assert sum(snap["batches"]["close_reasons"].values()) == snap["batches"]["count"]
        assert snap["batches"]["count"] == len(engine.batches)


class TestValidation:
    def test_non_chw_rejected(self, served_engine):
        b = MicroBatcher(served_engine)
        with pytest.raises(ShapeError):
            b.submit(np.zeros((4, 3, 16, 16)))  # a batch, not one image

    def test_mismatched_shape_rejected_without_poisoning(self, served_engine):
        """A wrong-shaped image errors alone; queued work is untouched."""
        b = MicroBatcher(served_engine, BatcherConfig(max_batch_size=8, max_wait_s=0.05))
        good = b.submit(sample_images(1, seed=5)[0])
        with pytest.raises(ShapeError):
            b.submit(np.zeros((3, 8, 8)))
        b.start()
        assert good.result(timeout=10).shape == (10,)
        b.stop()
        assert b.metrics.offered.value == 1  # malformed request never counted


class TestDeadlines:
    def test_expired_request_dropped_before_compute(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.pause()
        fut = b.submit(sample_images(1)[0], deadline_s=0.01)
        time.sleep(0.05)
        b.resume()
        with pytest.raises(DeadlineExceededError):
            fut.result(timeout=10)
        b.stop()
        snap = b.metrics.snapshot()["requests"]
        assert snap["expired"] == 1 and snap["completed"] == 0

    def test_default_deadline_from_config(self, served_engine):
        b = MicroBatcher(served_engine, BatcherConfig(default_deadline_s=0.01)).start()
        b.pause()
        fut = b.submit(sample_images(1)[0])
        time.sleep(0.05)
        b.resume()
        with pytest.raises(DeadlineExceededError):
            fut.result(timeout=10)
        b.stop()

    def test_generous_deadline_completes(self, served_engine):
        with MicroBatcher(served_engine) as b:
            fut = b.submit(sample_images(1)[0], deadline_s=30.0)
            assert fut.result(timeout=10).shape == (10,)


class TestBackpressure:
    def test_reject_policy_sheds_beyond_high_water(self, served_engine):
        b = MicroBatcher(
            served_engine, BatcherConfig(queue_depth=2, full_policy="reject")
        ).start()
        b.pause()  # hold the queue at depth deterministically
        futs = [b.submit(img) for img in sample_images(2, seed=6)]
        with pytest.raises(QueueFullError):
            b.submit(sample_images(1, seed=7)[0])
        b.resume()
        wait(futs, timeout=10)
        b.stop()
        snap = b.metrics.snapshot()["requests"]
        assert snap == {
            "offered": 3, "accepted": 2, "shed": 1, "completed": 2,
            "expired": 0, "failed": 0, "cancelled": 0,
        }

    def test_block_policy_applies_backpressure(self, served_engine):
        b = MicroBatcher(
            served_engine, BatcherConfig(queue_depth=1, full_policy="block")
        ).start()
        b.pause()
        first = b.submit(sample_images(1, seed=8)[0])
        results = {}

        def blocked_submit():
            results["future"] = b.submit(sample_images(1, seed=9)[0])

        t = threading.Thread(target=blocked_submit)
        t.start()
        time.sleep(0.1)
        assert t.is_alive(), "submit should block while the queue is full"
        b.resume()  # batcher drains → space frees → blocked submit proceeds
        t.join(timeout=10)
        assert not t.is_alive()
        assert first.result(timeout=10).shape == (10,)
        assert results["future"].result(timeout=10).shape == (10,)
        b.stop()
        assert b.metrics.shed.value == 0


class TestShutdown:
    def test_graceful_drain_resolves_every_future(self, served_engine):
        """The acceptance-criteria shutdown test: stop(drain=True) completes
        all queued work — zero dropped or cancelled futures."""
        images = sample_images(24, seed=10)
        serial = served_engine.predict_logits(images)
        b = MicroBatcher(served_engine, BatcherConfig(max_batch_size=4)).start()
        b.pause()  # pile everything up so stop() really has work to drain
        futures = [b.submit(img) for img in images]
        b.stop(drain=True)  # drain overrides pause
        for i, fut in enumerate(futures):
            assert fut.done()
            np.testing.assert_array_equal(fut.result(), serial[i])
        snap = b.metrics.snapshot()["requests"]
        assert snap["completed"] == len(images)
        assert snap["cancelled"] == 0

    def test_fast_stop_fails_queued_futures_explicitly(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.pause()
        futures = [b.submit(img) for img in sample_images(5, seed=11)]
        b.stop(drain=False)
        for fut in futures:
            assert fut.done()
            with pytest.raises(ServerClosedError):
                fut.result()
        assert b.metrics.cancelled.value == 5

    def test_submit_after_stop_rejected(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.stop()
        with pytest.raises(ServerClosedError):
            b.submit(sample_images(1)[0])

    def test_stop_idempotent(self, served_engine):
        b = MicroBatcher(served_engine).start()
        b.stop()
        b.stop()

    def test_multi_worker_batcher_parity(self, served_engine):
        """workers>1: each worker owns a context; results stay exact."""
        images = sample_images(30, seed=12)
        serial = served_engine.predict_logits(images)
        cfg = BatcherConfig(max_batch_size=4, max_wait_s=0.001, workers=3)
        with MicroBatcher(served_engine, cfg) as b:
            futures = [b.submit(img) for img in images]
            for i, fut in enumerate(futures):
                np.testing.assert_array_equal(fut.result(timeout=10), serial[i])
