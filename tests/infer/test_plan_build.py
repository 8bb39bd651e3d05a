"""Plan builds are timing-free: the same model always compiles to the same plan.

Each conv/linear has one kernel, and its backend is decided by whether the
native kernel binds (and passes its first-call self-check), never by a
timing race.  Two builds of one model must therefore report identical
per-layer records — on the sparsified ResNet where a kernel race used to
flip, and on the int8 program whose backend race used to flip.  The plan
summary keys the repo benchmark (``perfbench``) reads stay present.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.infer import InferenceEngine, PlanConfig
from repro.infer.native import binding
from repro.quant.sparsify import sparsify_model

from tests.infer.conftest import build_small_network, sample_images


def _records(engine: InferenceEngine) -> tuple[list, list]:
    summary = engine.plan_summary()
    return summary["layers"], summary["intq"].get("layers", [])


class TestTimingFreeBuilds:
    def test_sparsified_resnet_builds_identically(self):
        model = build_small_network(8)
        sparsify_model(model, 0.5)
        first, second = (_records(InferenceEngine(model)) for _ in range(2))
        assert first == second
        layers = first[0]
        assert any(layer["dead_remaining"] > 0 for layer in layers)  # rows the prune kept
        for layer in layers:
            assert layer["kernel"] == "dense"
            assert "autotune" not in layer

    def test_int8_builds_identically_with_bind_decided_backends(self):
        model = build_small_network(4)
        first, second = (
            _records(InferenceEngine(model, config=PlanConfig(dtype="int8"))) for _ in range(2)
        )
        assert first == second
        int_layers = first[1]
        assert int_layers
        want = "native" if binding.available() else "numpy"
        for layer in int_layers:
            assert layer["impl"] == "intq_gemm"
            assert layer["backend"] == want
            assert "autotune" not in layer and "autotune_backend" not in layer


class TestPlanConfig:
    def test_six_fields(self):
        names = [f.name for f in dataclasses.fields(PlanConfig)]
        assert names == ["prune", "all_dead", "trace", "fuse", "dtype", "backend"]

    @pytest.mark.parametrize("backend", ["native", ""])
    def test_backend_is_auto_or_numpy(self, backend):
        with pytest.raises(ConfigurationError):
            PlanConfig(backend=backend)


class TestSummaryKeysPerfbenchReads:
    """Every key ``perfbench/child.py::_plan_metrics`` and
    ``perfbench/workloads.py::_engine_choices`` read from a plan summary."""

    @pytest.mark.parametrize("dtype", ["float", "int8"])
    def test_keys_present(self, dtype):
        engine = InferenceEngine(build_small_network(4), config=PlanConfig(dtype=dtype))
        engine.predict_logits(sample_images(3))
        summary = engine.plan_summary()
        assert {"bound", "declined", "check_failures"} <= set(summary["native"])
        kernels = summary["trace"]["cache"]["kernels"]
        assert {"misses", "compiled_sources"} <= set(kernels)
        assert summary["trace"]["peak_intermediate_bytes"] >= 0
        assert all(layer["kernel"] == "dense" for layer in summary["layers"])
        intq = summary["intq"]
        assert intq["enabled"] is (dtype == "int8")
        for layer in intq.get("layers", ()):
            assert {"impl", "backend"} <= set(layer)
        for program in summary["trace"]["programs"]:
            assert {"input_shape", "backends"} <= set(program)
        if dtype == "float":
            assert summary["trace"]["programs"][0]["backends"]

    def test_profiled_engine_reports_timing_totals(self):
        engine = InferenceEngine(build_small_network(4), profile=True)
        engine.predict_logits(sample_images(2))
        assert engine.plan_summary()["timings"]["totals"]
