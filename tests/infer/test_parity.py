"""Engine vs eager logit parity (the ISSUE's ≤1e-5 bar, met with ~1e-13).

The compiled plan quantizes weights once, folds BN away and runs raw-ndarray
kernels; these tests pin its logits to the eager eval-mode forward across
every Table-1 structure and every quantization scheme.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig, compile_network, plan_dtype
from repro.infer.plan import AffineOp
from repro.models.registry import build_network
from repro.quant.schemes import paper_schemes

from tests.infer.conftest import (
    NUM_CLASSES,
    WIDTH_SCALE,
    build_small_network,
    eager_logits,
    randomize_bn_stats,
    sample_images,
)

PARITY_ATOL = 1e-5

ALL_CONFIGS = list(range(1, 9))
ALL_SCHEMES = sorted(paper_schemes())


@pytest.mark.parametrize("network_id", ALL_CONFIGS)
def test_parity_all_table1_configs(network_id):
    """FLightNN engine logits match eager forward on every Table-1 config."""
    model = build_small_network(network_id)
    images = sample_images(9, seed=network_id)
    engine = InferenceEngine(model)
    got = engine.predict_logits(images)
    want = eager_logits(model, images)
    assert np.max(np.abs(got - want)) <= PARITY_ATOL


@pytest.mark.parametrize("scheme_key", ALL_SCHEMES)
@pytest.mark.parametrize("network_id", [2, 5])
def test_parity_all_schemes(network_id, scheme_key):
    """Every quantization scheme, on a VGG and a ResNet structure."""
    model = build_small_network(network_id, scheme_key=scheme_key)
    images = sample_images(6, seed=17)
    engine = InferenceEngine(model)
    got = engine.predict_logits(images)
    want = eager_logits(model, images)
    assert np.max(np.abs(got - want)) <= PARITY_ATOL


@pytest.mark.parametrize("network_id", [1, 2])
def test_bn_layers_are_folded(network_id):
    """Parity holds *and* no standalone BN affine survives compilation.

    The conftest randomizes BN affines and running statistics, so an
    incorrect fold cannot hide behind identity-BN defaults.
    """
    model = build_small_network(network_id)
    plan = compile_network(model)
    assert not any(isinstance(op, AffineOp) for op in plan.ops)
    images = sample_images(5, seed=3)
    engine = InferenceEngine(model)
    assert np.max(np.abs(engine.predict_logits(images) - eager_logits(model, images))) <= PARITY_ATOL


def test_parity_is_batch_size_invariant():
    """Internal batch granularity never changes the numbers."""
    model = build_small_network(5)
    images = sample_images(23, seed=5)
    engine = InferenceEngine(model)
    ref = engine.predict_logits(images, batch_size=23)
    for bs in (1, 4, 16, 64):
        np.testing.assert_array_equal(engine.predict_logits(images, batch_size=bs), ref)


def _full_scheme_net(network_id: int, px: int):
    model = build_network(
        network_id,
        paper_schemes()["Full"],
        num_classes=NUM_CLASSES,
        image_size=px,
        width_scale=WIDTH_SCALE[network_id],
        rng=network_id,
    )
    randomize_bn_stats(model, np.random.default_rng(px))
    model.eval()
    return model


@pytest.mark.parametrize("trace", [True, False], ids=["trace", "interp"])
@pytest.mark.parametrize("backend", ["numpy", "auto"])
@pytest.mark.parametrize("network_id, px", [(1, 8), (2, 9), (4, 16), (5, 16)])
def test_full_scheme_logits_are_engine_batch_invariant(network_id, px, backend, trace):
    """A served answer must not depend on which requests share its batch.

    Full-scheme (float-weight) nets leave nothing on a quantization grid,
    so any batch-dependent GEMM kernel choice would show in the logits'
    last bits — as the classifier ``linear`` once did through OpenBLAS's
    M-dependent kernels.
    """
    model = _full_scheme_net(network_id, px)
    images = np.random.default_rng(network_id).normal(0.0, 1.0, (17, 3, px, px))
    engine = InferenceEngine(model, config=PlanConfig(backend=backend, trace=trace))
    want = engine.predict_logits(images, batch_size=17)
    for bs in (1, 3, 8):
        got = engine.predict_logits(images, batch_size=bs)
        assert got.tobytes() == want.tobytes(), (
            f"batch {bs} vs 17: max diff {np.max(np.abs(got - want)):.3e}"
        )


def test_float32_deployment_mode():
    """plan_dtype picks float32 only for act-quantized nets; logits stay
    within one activation LSB of the float64 reference."""
    quantized = build_small_network(5, scheme_key="FL_a")
    full = build_small_network(5, scheme_key="Full")
    assert plan_dtype(quantized) == np.float32
    assert plan_dtype(full) == np.float64

    engine32 = InferenceEngine(quantized, dtype=plan_dtype(quantized))
    assert engine32.plan.dtype == np.float32
    images = sample_images(8, seed=11)
    got = engine32.predict_logits(images)
    assert got.dtype == np.float32
    # Rounding-tie flips bound the error at ~one activation LSB, not 1e-5.
    step = paper_schemes()["FL_a"].activation.step
    assert np.max(np.abs(got - eager_logits(quantized, images))) <= 4 * step
