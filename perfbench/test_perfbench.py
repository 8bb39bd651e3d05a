"""Tests of the benchmark itself: metric names and units, the answer check, a held-out seed.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the repository
root.  Each case starts ``run.py`` in its own process, with one-second passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 90210


def bench(workload: str, seed: int, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,listed", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_appears_with_its_unit(trace, listed):
    code, out = bench("batcher_open", 3, trace)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    units = {m["name"]: m["unit"] for m in SPEC[listed]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["http_closed", "cluster_int8_open"])
def test_injected_wrong_answer_counts_as_failed(workload):
    code, out = bench(workload, 3, 0, "--inject-wrong", "2")
    assert code == 1
    assert out["correct"] is False
    assert out["failed"] >= 2
    assert out["metrics"]["success_frac"]["value"] < 1.0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_held_out_seed_runs_clean(workload):
    code, out = bench(workload, HELD_OUT_SEED, 0)
    assert code == 0
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert out["metrics"]["success_frac"]["value"] == 1.0


def test_self_time_subtracts_covered_child_time():
    tracer = Tracer()
    root = tracer.open("root")
    root.start, root.end = 0.0, 10.0
    for start, end in ((1.0, 3.0), (2.0, 4.0), (9.0, 12.0)):
        child = tracer.open("child", parent=root.id)
        child.start, child.end = start, end
    assert tracer.self_times()[root.id] == pytest.approx(10.0 - 3.0 - 1.0)


def test_no_program_sources_means_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline_b64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
