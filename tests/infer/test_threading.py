"""Thread-count invariance of the engine's batch-sharding thread pool.

Kernels run serially; the only threads left are the ``"thread"`` backend
of :func:`~repro.infer.pool.run_sharded`, which runs whole batches
concurrently.  Its contract: ``predict_logits(..., workers=N)`` is
**bitwise identical** to the single-threaded call for every worker count
in {1, 2, 4} — across all 8 Table-1 configs and both compute dtypes
(float64 / int8) — and at any batch size.  With a C toolchain the shards run the native kernels from several
threads at once; without one they run the numpy codegen.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig

from tests.infer.conftest import KERNELS, build_small_network, sample_images

ALL_CONFIGS = tuple(range(1, 9))
THREAD_COUNTS = (1, 2, 4)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-level equality (``==`` would let ``-0.0 == 0.0`` hide a drift)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestThreadCountInvariance:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_float64(self, network_id, kernel):
        """workers=1/2/4 and the serial call agree byte-for-byte."""
        model = build_small_network(network_id)
        images = sample_images(5, seed=network_id)
        engine = InferenceEngine(model)
        assert set(engine.plan_summary()["kernels"]) == {kernel}
        serial = engine.predict_logits(images, batch_size=2)
        for t in THREAD_COUNTS:
            out = engine.predict_logits(images, batch_size=2, workers=t)
            assert _bitwise_equal(out, serial), f"workers={t} drifted from serial"

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("network_id", ALL_CONFIGS)
    def test_int8(self, network_id, kernel):
        """The integer program under the thread pool is exact: same bits."""
        model = build_small_network(network_id)
        images = sample_images(4, seed=network_id)
        engine = InferenceEngine(model, config=PlanConfig(dtype="int8"))
        assert set(engine.plan_summary()["kernels"]) == {kernel}
        serial = engine.predict_logits(images, batch_size=1)
        for t in THREAD_COUNTS:
            out = engine.predict_logits(images, batch_size=1, workers=t)
            assert _bitwise_equal(out, serial), f"workers={t} drifted from serial"

    def test_batch_size_does_not_change_threaded_bits(self):
        """Sharding at any batch size keeps the serial bytes."""
        model = build_small_network(4)
        images = sample_images(16, seed=2)
        engine = InferenceEngine(model)
        ref = engine.predict_logits(images, batch_size=16)
        for bs in (1, 3, 16):
            assert _bitwise_equal(engine.predict_logits(images, batch_size=bs, workers=2), ref)
