"""Seconds-scale smoke run of the inference benchmark (marker: infer_bench).

Excluded from the default suite by ``pytest.ini``'s ``-m "not infer_bench"``
so tier-1 stays quick; run it with::

    PYTHONPATH=src python -m pytest tests/infer/test_bench_smoke.py -m infer_bench
"""

from __future__ import annotations

import json

import pytest

bench_infer = pytest.importorskip(
    "benchmarks.bench_infer", reason="benchmarks package requires repo root on sys.path"
)


@pytest.mark.infer_bench
def test_benchmark_smoke(tmp_path):
    result = bench_infer.run_benchmark(smoke=True)

    assert result["metadata"]["smoke"] is True
    assert {row["network_id"] for row in result["parity_float64"]} == set(range(1, 9))
    # The engine must agree with eager logits on every config (the full
    # benchmark's acceptance bar), even at smoke scale.
    assert result["summary"]["max_parity_abs_diff"] <= 1e-5
    # The engine should never be slower than eager, even on a tiny workload
    # where fixed costs dominate (the full run shows the real >=3x margin).
    assert result["summary"]["min_single_worker_speedup"] > 1.0

    # Every timed row records its plan's kernel/sparsity metadata.
    for row in result["configs"]:
        plan = row["plan"]
        assert plan["kernels"] and plan["layers"]
        assert plan["pruned_filters"] == 0  # stock nets carry no dead filters

    # Sparsity sweep: the sparsity-aware engine must beat the dense baseline
    # on a ~40%-dead net with exact float64 parity, and record the pruning.
    sweep = result["sparsity_sweep"]
    assert sweep
    for row in sweep:
        assert row["dead_fraction_actual"] >= 0.3
        assert row["plan"]["pruned_filters"] > 0
        assert row["max_abs_diff"] <= 1e-5
    assert result["summary"]["min_sparsity_speedup"] > 1.0
    assert result["summary"]["max_sparsity_parity_abs_diff"] <= 1e-5

    # Fusion sweep: the traced executor must be bitwise-equal to the
    # interpreter and its liveness allocator must beat naive buffering; the
    # speedup itself is asserted only by the full (non-smoke) run, where
    # timing noise is controlled.
    fusion = result["fusion_sweep"]
    assert {row["network_id"] for row in fusion} == {1, 4}
    for row in fusion:
        assert row["bitwise_equal"] is True
        for spec in row["batches"].values():
            prog = spec["program"]
            assert prog["fused_elementwise"] > 0
            assert 0 < prog["peak_intermediate_bytes"] < prog["naive_intermediate_bytes"]
            assert spec["fused_s"] > 0 and spec["untraced_s"] > 0
    assert result["summary"]["fusion"]["all_bitwise_equal"] is True

    out = tmp_path / "BENCH_infer.json"
    out.write_text(json.dumps(result))  # round-trips: everything is plain JSON
    assert json.loads(out.read_text())["configs"]


@pytest.mark.infer_bench
def test_native_sweep_smoke(tmp_path):
    """The --native-sweep section: native C vs numpy codegen timings, bitwise
    parity in both dtypes, and per-layer backend records, at smoke scale
    (net 4).  Passes with or without a host toolchain — without one, every
    layer records numpy and the speedups hover near 1x."""
    sweep = bench_infer.run_native_sweep(reps=1, smoke=True)

    rows = sweep["native_sweep"]
    assert {row["network_id"] for row in rows} == {4}
    for row in rows:
        # Bitwise equality is the acceptance bar regardless of backend.
        assert row["bitwise_equal"]["float64"] is True
        assert row["bitwise_equal"]["int8"] is True
        for spec in row["batches"].values():
            assert spec["numpy_s"] > 0 and spec["native_s"] > 0
            assert spec["int8_numpy_s"] > 0 and spec["int8_native_s"] > 0
            # Per-kind self times name the layer that moved between backends.
            for kinds in spec["per_kind_ms"].values():
                assert {"conv", "linear"} <= set(kinds)
                assert all(ms >= 0 for ms in kinds.values())
        assert row["float64_layers"]  # per-node backend outcome records
        backends = {l.get("backend") for l in row["float64_layers"]}
        assert backends <= {"native", "numpy"}
    summary = sweep["native_summary"]
    assert summary["all_bitwise_equal"] is True
    assert "available" in summary["toolchain"]
    if summary["toolchain"]["available"]:
        assert any(
            l.get("backend") == "native" for r in rows for l in r["float64_layers"]
        )

    out = tmp_path / "BENCH_native.json"
    out.write_text(json.dumps(sweep))  # round-trips: everything is plain JSON
    assert json.loads(out.read_text())["native_sweep"]


@pytest.mark.infer_bench
def test_int_sweep_smoke(tmp_path):
    """The --int-sweep section: int8 parity, determinism and measured op
    counts, at smoke scale (nets 1 and 4)."""
    sweep = bench_infer.run_int_sweep(reps=1, smoke=True)

    rows = sweep["int_sweep"]
    assert {row["network_id"] for row in rows} == {1, 4}
    for row in rows:
        assert row["argmax_agreement"] >= 0.99
        assert row["deterministic"] is True
        assert set(row["accum_dtypes"]) <= {"int32", "int64"}
        totals = row["totals_per_image"]
        assert totals["shift_ops"] > 0 and totals["requant_mult_ops"] > 0
    summary = sweep["int_summary"]
    assert summary["min_argmax_agreement"] >= 0.99
    assert summary["all_deterministic"] is True

    out = tmp_path / "BENCH_int.json"
    out.write_text(json.dumps(sweep))  # round-trips: everything is plain JSON
    assert json.loads(out.read_text())["int_sweep"]
