"""The repository benchmark: end-to-end serving and offline inference, checked, seeded.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``http_closed``: 2 keep-alive ``PredictClient`` threads in a closed loop,
  JSON over HTTP to ``ModelServer`` -> ``ModelRegistry`` -> ``MicroBatcher``
  (batch <= 32, 2 ms window) -> float64 engine; net 4, FL_a, 16 px, width 0.5.
* ``batcher_open``: Poisson arrivals at 1500/s from one thread into
  ``ModelRegistry.submit``, same model.
* ``cluster_int8_open``: Poisson arrivals at 300/s into ``ClusterService``
  (2 worker processes, no service delay) serving the int8 plan.
* ``offline_b64``: ``predict_logits`` on 512 images of 32 px at batch 64,
  nets 1, 4 and 5 in turn, width 1.0.

Each run starts fresh processes, each with an empty ``REPRO_CACHE_DIR``
under ``.perfbench/`` in the checkout.  ``setup_s`` is the median, over
``SETUP_SAMPLES`` such processes, of the time from process start to the
first correct answer.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of an untraced pass; with ``--trace 1`` it carries the
per-layer metrics of a traced pass of the same seed, the host ceilings, and
``trace.overhead_frac`` (traced over untraced p50 latency, minus one).
Layers a workload does not reach report 0.  Spans go to
``.perfbench/spans-<workload>-seed<n>.jsonl``.

Latency percentiles (``e2e.latency_p50_ms``, ``e2e.latency_p99_ms``) are
per-layer diagnostics, not gated: on a shared two-CPU host the cluster p50
moved between 1.3 and 4 ms from run to run of the same seed, so latency is
gated through ``goodput_per_s`` (answers within a fixed limit) instead.

Every answer is checked after its timed pass; any wrong answer makes the
run print ``"correct": false`` and exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("http_closed", "batcher_open", "cluster_int8_open", "offline_b64")
#: Fresh processes whose set-up time is sampled per run, the measured one included.
SETUP_SAMPLES = 3
#: Every run ends within this many seconds.
BUDGET_S = 170.0

E2E_UNITS = {
    "throughput_per_s": "1/s", "goodput_per_s": "1/s", "success_frac": "frac",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_ms_p50", "_ms_p99")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "host.parallel_scaling_2p":
        return "frac"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("gbps"):
        return "GB/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("batch_size_mean"):
        return "images"
    return "count"


def code_fingerprint() -> str:
    """Hash of the program and benchmark sources: runs of the same code share it."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def choice_flips(workload: str, seed: int, choices: "list") -> int:
    """How many of ``choices`` differ from the first recorded for this code,
    workload and seed; the first call records them."""
    path = STATE / "plan_choices.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{code_fingerprint()}:{workload}:{seed}"
    first = seen.setdefault(key, choices[0])
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    flips = sum(1 for c in choices if c != first)
    for n, c in enumerate(choices):
        if c != first:
            print(f"perfbench: process {n} made other plan choices than the first run of "
                  f"this code: {json.dumps(c)}", file=sys.stderr)
    return flips


def run_child(args, mode: str, deadline: float, extra=()) -> "tuple[float, list, dict | None]":
    """Start ``child.py`` in a fresh process with an empty cache directory.

    Returns (seconds from process start to first correct answer, plan
    choices, result or None in setup mode).
    """
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=STATE / "tmp"))
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache), TMPDIR=str(cache))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        t_spawn = time.monotonic()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.splitlines()
    ready = next((json.loads(x[6:]) for x in lines if x.startswith("READY ")), None)
    result = next((json.loads(x[7:]) for x in lines if x.startswith("RESULT ")), None)
    if proc.returncode != 0 or ready is None or (mode == "run" and result is None):
        raise SystemExit(f"perfbench: {mode} process for {args.workload} failed "
                         f"(exit {proc.returncode})")
    return ready["t_first"] - t_spawn, ready["choices"], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject-wrong", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)

    ceilings = host.measure()
    print("perfbench: host " + json.dumps(ceilings), file=sys.stderr)
    setups, choices = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, chosen, _ = run_child(args, "setup", deadline)
            setups.append(setup_s)
            choices.append(chosen)
    spans = STATE / f"spans-{args.workload}-seed{args.seed}.jsonl"
    setup_s, chosen, result = run_child(
        args, "run", deadline,
        ["--inject-wrong", str(args.inject_wrong), "--spans", str(spans)])
    setups.append(setup_s)
    choices.append(chosen)
    flips = choice_flips(args.workload, args.seed, choices)

    if args.trace:
        values = dict(result["per_layer"])
        values.update({f"host.{k}": v for k, v in ceilings.items()})
        values["infer.autotune.choice_flips"] = flips
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
    correct = result["wrong"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
