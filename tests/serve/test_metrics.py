"""Serving metrics core + thread-safety of the shared train.metrics accumulators."""

from __future__ import annotations

import threading

import pytest

from repro.serve.metrics import LatencyReservoir, ServerMetrics, percentile
from repro.train.metrics import Counter, RunningAverage


def _hammer(fn, threads: int = 8, iterations: int = 500) -> None:
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait()
        for _ in range(iterations):
            fn()

    workers = [threading.Thread(target=run) for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()


class TestThreadSafeAccumulators:
    def test_running_average_under_contention(self):
        """Concurrent update() calls must never lose increments."""
        avg = RunningAverage()
        _hammer(lambda: avg.update(2.0, weight=3))
        assert avg.count == 8 * 500 * 3
        assert avg.value == pytest.approx(2.0)

    def test_counter_under_contention(self):
        counter = Counter()
        _hammer(counter.increment)
        assert counter.value == 8 * 500

    def test_counter_increment_amount(self):
        counter = Counter()
        assert counter.increment(5) == 5
        assert counter.increment() == 6

    def test_running_average_empty(self):
        assert RunningAverage().value == 0.0


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50) == 0.0

    def test_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]  # 1..100
        assert percentile(samples, 50) == 50.0
        assert percentile(samples, 95) == 95.0
        assert percentile(samples, 99) == 99.0
        assert percentile(samples, 100) == 100.0
        assert percentile(samples, 0) == 1.0

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0


class TestLatencyReservoir:
    def test_exact_below_capacity(self):
        res = LatencyReservoir(capacity=100)
        for v in range(10):
            res.record(float(v))
        assert res.seen == 10
        assert res.percentiles()["p50"] == 4.0

    def test_bounded_above_capacity(self):
        res = LatencyReservoir(capacity=64)
        for v in range(10_000):
            res.record(float(v))
        assert res.seen == 10_000
        assert len(res._samples) == 64
        # A uniform sample of 0..9999 should have a p50 nowhere near the tails.
        assert 1000.0 < res.percentiles()["p50"] < 9000.0

    def test_concurrent_record(self):
        res = LatencyReservoir(capacity=32)
        _hammer(lambda: res.record(1.0))
        assert res.seen == 8 * 500
        assert res.percentiles()["p99"] == 1.0


class TestServerMetrics:
    def test_snapshot_shape_and_counts(self):
        m = ServerMetrics()
        m.record_offered(), m.record_offered(), m.record_offered()
        m.record_accepted(), m.record_accepted()
        m.record_shed()
        m.record_batch(2, "idle")
        m.record_batch(3, "window")
        m.record_batch(3, "idle")
        m.record_completed(0.010)
        m.record_completed(0.020)
        snap = m.snapshot()
        assert snap["requests"] == {
            "offered": 3, "accepted": 2, "shed": 1, "completed": 2,
            "expired": 0, "failed": 0, "cancelled": 0,
        }
        assert snap["batches"]["count"] == 3
        assert snap["batches"]["mean_size"] == pytest.approx(8 / 3)
        assert snap["batches"]["histogram"] == {"2": 1, "3": 2}
        assert snap["batches"]["close_reasons"] == {"full": 0, "idle": 2, "window": 1, "stop": 0}
        assert snap["latency_s"]["mean"] == pytest.approx(0.015)
        assert snap["latency_s"]["samples"] == 2
        assert set(snap["latency_s"]) >= {"p50", "p95", "p99", "mean"}

    def test_depth_gauge_binding(self):
        m = ServerMetrics()
        assert m.queue_depth == 0
        m.bind_depth_gauge(lambda: 17)
        assert m.snapshot()["queue_depth"] == 17

    def test_snapshot_is_json_ready(self):
        import json

        m = ServerMetrics()
        m.record_batch(4, "full")
        m.record_completed(0.001)
        assert json.loads(json.dumps(m.snapshot()))
