"""Compiled inference engine (plan / trace / fuse / shard / sparsity).

Turns a trained :class:`~repro.models.network.QuantizedNetwork` into a flat
grad-free execution plan with quantized-weight caching, conv+BN folding,
scratch-buffer reuse and multicore batch sharding.  Dead-filter
elimination runs at plan time under :class:`~repro.infer.plan.PlanConfig`;
every conv/linear then runs one kernel, the im2col GEMM.  Execution goes
through shape-specialized traced programs — fused, codegen'd kernels with
liveness-reused buffers (:mod:`repro.infer.trace`, :mod:`repro.infer.fuse`,
:mod:`repro.infer.kernels`) — bitwise-identical to the op-by-op
interpreter.  See
:class:`~repro.infer.engine.InferenceEngine` for the entry point.
"""

from repro.infer.engine import InferenceEngine
from repro.infer.fold import bn_eval_affine, dead_filter_rows
from repro.infer.intq import IntQProgram, PackedWeights, build_intq_program, pack_weights
from repro.infer.intq.pack import supports_shift_planes
from repro.infer.kernels import cache_info, clear_caches
from repro.infer.plan import (
    ExecutionContext,
    ExecutionPlan,
    PlanConfig,
    compile_network,
    plan_dtype,
)
from repro.infer.pool import run_sharded, shard_slices
from repro.infer.trace import build_traced_program, trace_plan

__all__ = [
    "InferenceEngine",
    "ExecutionContext",
    "ExecutionPlan",
    "PlanConfig",
    "compile_network",
    "plan_dtype",
    "bn_eval_affine",
    "dead_filter_rows",
    "supports_shift_planes",
    "build_traced_program",
    "trace_plan",
    "run_sharded",
    "shard_slices",
    "IntQProgram",
    "PackedWeights",
    "build_intq_program",
    "pack_weights",
    "cache_info",
    "clear_caches",
]
