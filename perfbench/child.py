"""One benchmark process: set up a workload from scratch, then (``--mode run``) measure it.

Started by ``run.py`` in a fresh process with an empty ``REPRO_CACHE_DIR``.
Prints ``READY <json>`` once the first answer is in and checked (its
``t_first`` is ``time.monotonic()`` at that answer, a clock shared by every
process on the host), then in run mode ``RESULT <json>`` after the timed
passes.  With ``--trace 1`` it makes an untraced and a traced pass of the
same seed; the traced one yields the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, Workload, percentile_ms  # noqa: E402

OP_KINDS = ("conv", "linear", "maxpool", "avgpool", "gap", "add", "aq")
_OP_CLASS = {"ConvOp": "conv", "LinearOp": "linear", "MaxPoolOp": "maxpool",
             "AvgPoolOp": "avgpool", "GAPOp": "gap", "AddOp": "add", "ActQuantOp": "aq"}


def end_to_end(w: Workload, p: Pass) -> dict:
    latencies = np.asarray(p.latencies)
    good = np.count_nonzero(latencies <= w.limit_ms / 1e3)
    return {
        "throughput_per_s": len(latencies) * w.unit_per_answer / p.wall_s,
        "goodput_per_s": good * w.unit_per_answer / p.scheduled_s,
        "success_frac": (p.attempted - p.errors - p.wrong) / p.attempted,
        "peak_rss_mb": p.peak_rss_mb,
    }


def _op_kind(phase: str) -> "str | None":
    """``ir1:conv[dense]+lrelu+aq`` -> conv; ``op3:ConvOp`` -> conv."""
    name = phase.split(":", 1)[-1]
    return _OP_CLASS.get(name) or re.split(r"[\[+]", name)[0]


def _macs_per_image(model) -> "tuple[int, int]":
    """Conv and linear multiply-accumulates per image, from layer shapes."""
    model.probe()
    conv = 0
    for layer in model.conv_layers():
        oh, ow = layer.output_spatial(*layer.last_input_hw)
        conv += oh * ow * layer.out_channels * layer.in_channels * layer.kernel_size**2
    linear = sum(layer.in_features * layer.out_features for layer in model.linear_layers())
    return conv, linear


def _delta(after: dict, before: dict, *path) -> int:
    def get(d):
        for key in path:
            d = d.get(key, {}) if isinstance(d, dict) else {}
        return d if isinstance(d, (int, float)) else 0
    return get(after) - get(before)


def _queue_waits(tracer: Tracer) -> "list[float]":
    """Per request: start of the engine batch that served it minus its submit.

    Batch rows are matched to requests by image key, oldest submit first,
    which is the batcher's FIFO order.
    """
    pending: "dict[float, list]" = {}
    for s in sorted(tracer.named("serve.batcher"), key=lambda s: s.start):
        pending.setdefault(s.attrs["key"], []).append(s)
    waits = []
    for batch in sorted(tracer.named("infer.engine"), key=lambda s: s.start):
        for key in batch.attrs.get("rows", ()):
            queue = pending.get(key)
            if queue and queue[0].start <= batch.start:
                waits.append(batch.start - queue.pop(0).start)
    return waits


def per_layer(w: Workload, p: Pass, tracer: Tracer, untraced: Pass) -> dict:
    m: dict = {}
    late = p.lateness
    m["loadgen.late_ms_p50"] = percentile_ms(late, 50)
    m["loadgen.late_ms_p99"] = percentile_ms(late, 99)
    m["loadgen.offered"] = p.attempted

    clients = tracer.named("serve.http")
    self_times = tracer.self_times()
    selfs = [self_times[c.id] for c in clients]
    m["serve.http.self_ms_p50"] = percentile_ms(selfs, 50)
    m["serve.http.self_ms_p99"] = percentile_ms(selfs, 99)
    m["serve.http.requests"] = len(clients)
    m["serve.http.errors"] = sum(1 for c in clients if c.attrs.get("error"))

    snap, before = p.layers.get("snapshot", {}), p.layers.get("before", {})
    batched = bool(tracer.named("serve.batcher"))
    waits = _queue_waits(tracer)
    batches = [s.attrs["n"] for s in tracer.named("infer.engine")] if batched else []
    m["serve.batcher.queue_wait_ms_p50"] = percentile_ms(waits, 50)
    m["serve.batcher.queue_wait_ms_p99"] = percentile_ms(waits, 99)
    m["serve.batcher.batch_size_mean"] = float(np.mean(batches)) if batches else 0.0
    m["serve.batcher.batches"] = len(batches)
    m["serve.batcher.shed"] = _delta(snap, before, "requests", "shed") if batched else 0
    m["serve.batcher.expired"] = _delta(snap, before, "requests", "expired") if batched else 0

    cluster = tracer.named("serve.cluster")
    admitted = [s for s in cluster if "returned" in s.attrs]
    submit_s = [s.attrs["returned"] - s.start for s in admitted]
    m["serve.cluster.submit_ms_p50"] = percentile_ms(submit_s, 50)
    m["serve.cluster.submit_ms_p99"] = percentile_ms(submit_s, 99)
    m["serve.cluster.roundtrip_ms_p50"] = percentile_ms([s.duration for s in admitted], 50)
    m["serve.cluster.redispatched"] = _delta(snap, before, "workers_lifecycle", "redispatched")
    m["serve.cluster.worker_deaths"] = _delta(snap, before, "workers_lifecycle", "deaths")
    m["serve.cluster.shed"] = _delta(snap, before, "requests", "shed") if cluster else 0
    m["serve.cluster.admission_level_max"] = p.layers.get("admission_level_max", 0)

    engine_spans = tracer.named("infer.engine")
    m["infer.engine.busy_ms_p50"] = percentile_ms([s.duration for s in engine_spans], 50)
    m["infer.engine.busy_frac"] = sum(s.duration for s in engine_spans) / p.wall_s
    m["infer.engine.calls"] = len(engine_spans)
    m["infer.engine.images"] = sum(s.attrs["n"] for s in engine_spans)

    m.update(_plan_metrics(w))
    m.update(_op_metrics(w, tracer))
    m["trace.overhead_frac"] = (
        percentile_ms(p.latencies, 50) / percentile_ms(untraced.latencies, 50) - 1.0)
    m["e2e.latency_samples"] = len(untraced.latencies)
    m["e2e.latency_p50_ms"] = percentile_ms(untraced.latencies, 50)
    m["e2e.latency_p99_ms"] = percentile_ms(untraced.latencies, 99)
    return m


def _plan_metrics(w: Workload) -> dict:
    setup = w.setup_tracer
    summaries = [e.plan_summary() for e in w.engines]
    native = summaries[0]["native"]
    kernels = summaries[0]["trace"]["cache"]["kernels"]
    layers = [layer for s in summaries for layer in s["layers"]]
    intq = [layer for s in summaries for layer in s["intq"].get("layers", ())]
    float_native = sum(
        s["trace"]["programs"][0]["backends"].get("native", 0)
        for s in summaries if s["trace"]["programs"] and not s["intq"]["enabled"]
    )
    return {
        "infer.plan.compile_s": sum(s.duration for s in setup.named("infer.plan.compile")),
        "infer.trace.first_call_s": sum(s.duration for s in setup.named("infer.trace.first_call")),
        "infer.native.bound": native.get("bound", 0),
        "infer.native.declined": native.get("declined", 0),
        "infer.native.check_failures": native.get("check_failures", 0),
        "infer.cache.kernel_misses": kernels["misses"],
        "infer.cache.compiled_sources": kernels["compiled_sources"],
        "infer.trace.peak_intermediate_bytes": max(
            s["trace"]["peak_intermediate_bytes"] for s in summaries),
        "infer.autotune.shift_chosen": sum(1 for x in layers if x["kernel"] == "shift_plane"),
        "infer.autotune.native_chosen": float_native + sum(
            1 for x in intq if x.get("backend") == "native"),
        "infer.autotune.intq_shift_chosen": sum(1 for x in intq if x.get("impl") == "intq_shift"),
    }


def _op_metrics(w: Workload, tracer: Tracer) -> dict:
    """Per op kind: self ms per plan execution, and conv/linear GFLOP/s."""
    executions = len(tracer.named("infer.plan"))
    totals = dict.fromkeys(OP_KINDS, 0.0)
    for phases in w.op_totals:
        for phase, seconds in phases.items():
            kind = _op_kind(phase)
            if kind in totals:
                totals[kind] += seconds
    m = {f"infer.op.{k}.self_ms": (totals[k] * 1e3 / executions if executions else 0.0)
         for k in OP_KINDS}
    images = [0] * len(w.engines)
    for s in tracer.named("infer.engine"):
        images[s.attrs["engine"]] += s.attrs["n"]
    conv_flops = linear_flops = 0
    for model, n in zip(w.models, images):
        conv, linear = _macs_per_image(model)
        conv_flops += 2 * conv * n
        linear_flops += 2 * linear * n
    m["infer.op.conv.gflops"] = conv_flops / totals["conv"] / 1e9 if totals["conv"] else 0.0
    m["infer.op.linear.gflops"] = (
        linear_flops / totals["linear"] / 1e9 if totals["linear"] else 0.0)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    parser.add_argument("--inject-wrong", type=int, default=0,
                        help="corrupt this many answers before checking (tests the check)")
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload](args.seed, inject_wrong=args.inject_wrong)
    t_first = w.setup()
    try:
        print("READY " + json.dumps({"t_first": t_first, "choices": w.plan_choices()}),
              flush=True)
        if args.mode == "setup":
            return 0
        untraced = w.run(args.seconds, None)
        passes = [untraced]
        result = {"end_to_end": end_to_end(w, untraced)}
        if args.trace:
            tracer = Tracer()
            traced = w.run(args.seconds, tracer)
            passes.append(traced)
            result["per_layer"] = per_layer(w, traced, tracer, untraced)
            if args.spans is not None:
                tracer.dump(args.spans)
        result["attempted"] = sum(p.attempted for p in passes)
        result["failed"] = sum(p.errors + p.wrong for p in passes)
        result["wrong"] = sum(p.wrong for p in passes)
    finally:
        w.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
