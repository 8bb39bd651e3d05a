"""Multicore batch sharding for the inference engine.

Shards a stream of batches across a worker pool with deterministic result
ordering: batch ``i``'s logits always land at rows ``i*batch_size...`` of
the output no matter which worker finishes first.

Two backends:

* ``"thread"`` (default) — a :class:`~concurrent.futures.ThreadPoolExecutor`
  where each worker draws a private :class:`ExecutionContext` from a reuse
  pool, so scratch buffers are still recycled across batches.  numpy's BLAS
  kernels release the GIL, so matmul-heavy plans overlap well.
* ``"process"`` — a :mod:`multiprocessing` pool (fork start method where
  available) whose plan travels through ``multiprocessing.shared_memory``:
  the op program is published once (:func:`~repro.utils.shm.publish_object`)
  and every worker attaches the same weight pages instead of unpickling a
  private copy — per-worker memory stays flat as the pool grows.  Hosts
  without usable shared memory fall back to plain pickled shipping.
"""

from __future__ import annotations

import multiprocessing
import queue
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import ConfigurationError, SharedMemoryError
from repro.infer.plan import ExecutionContext, ExecutionPlan, execute_ops
from repro.utils.shm import ShmHandle, load_object, publish_object

__all__ = ["shard_slices", "run_sharded"]

_BACKENDS = ("thread", "process")


def shard_slices(total: int, batch_size: int) -> list[slice]:
    """Contiguous batch slices covering ``range(total)`` in order.

    ``total == 0`` yields an empty list; ``total < batch_size`` yields one
    short slice covering everything.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    return [slice(s, min(s + batch_size, total)) for s in range(0, total, batch_size)]


# -- process backend plumbing (module-level for picklability) -----------------

_WORKER_OPS: list | None = None
_WORKER_OUT_SLOT: int = 0
_WORKER_DTYPE: np.dtype = np.dtype(np.float64)
_WORKER_INTQ = None
_WORKER_SEGMENT = None  # keeps the attached shm pages alive in each worker


def _init_process_worker(program) -> None:
    """Bind this worker's program: an :class:`~repro.utils.shm.ShmHandle`
    (weights attach as zero-copy shared views) or a plain payload dict
    (pickled fallback).  Integer-only twin programs ride along either way;
    kernels re-bind from each worker's codegen cache."""
    global _WORKER_OPS, _WORKER_OUT_SLOT, _WORKER_DTYPE, _WORKER_INTQ, _WORKER_SEGMENT
    if isinstance(program, ShmHandle):
        program, _WORKER_SEGMENT = load_object(program)
    _WORKER_OPS = program["ops"]
    _WORKER_OUT_SLOT = program["out_slot"]
    _WORKER_DTYPE = program["dtype"]
    _WORKER_INTQ = program["intq"]


def _run_process_batch(task: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
    index, images = task
    if _WORKER_INTQ is not None:
        out = _WORKER_INTQ.run(np.asarray(images), ExecutionContext())
    else:
        out = execute_ops(_WORKER_OPS, images, ExecutionContext(), _WORKER_OUT_SLOT, _WORKER_DTYPE)
    return index, np.array(out, copy=True)


def _run_threaded(plan: ExecutionPlan, images: np.ndarray, slices: list[slice], workers: int):
    contexts: queue.SimpleQueue[ExecutionContext] = queue.SimpleQueue()

    def run_one(index: int) -> tuple[int, np.ndarray]:
        try:
            ctx = contexts.get_nowait()
        except queue.Empty:
            ctx = ExecutionContext()
        out = np.array(plan.execute(images[slices[index]], ctx), copy=True)
        contexts.put(ctx)
        return index, out

    # Never spawn more threads than there are shards — with fewer batches
    # than workers the surplus threads would only add startup/teardown cost.
    with ThreadPoolExecutor(max_workers=max(1, min(workers, len(slices)))) as pool:
        yield from pool.map(run_one, range(len(slices)))


def _run_processes(plan: ExecutionPlan, images: np.ndarray, slices: list[slice], workers: int):
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    tasks = ((i, images[s]) for i, s in enumerate(slices))
    payload = plan.payload()
    segment = None
    try:
        program = payload
        try:
            program, segment = publish_object(payload, name_prefix="repro-pool")
        except SharedMemoryError:  # pragma: no cover - host without /dev/shm
            pass
        with ctx.Pool(
            max(1, min(workers, len(slices))),
            initializer=_init_process_worker,
            initargs=(program,),
        ) as pool:
            yield from pool.imap_unordered(_run_process_batch, tasks)
    finally:
        if segment is not None:
            segment.unlink()
            segment.close()


def run_sharded(
    plan: ExecutionPlan,
    images: np.ndarray,
    batch_size: int,
    workers: int,
    backend: str = "thread",
) -> np.ndarray:
    """Run ``images`` through ``plan`` in parallel batches.

    Returns the stacked outputs in dataset order regardless of worker
    completion order.
    """
    if backend not in _BACKENDS:
        raise ConfigurationError(f"unknown pool backend {backend!r}; use one of {_BACKENDS}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    slices = shard_slices(len(images), batch_size)
    runner = _run_threaded if backend == "thread" else _run_processes
    out: np.ndarray | None = None
    for index, logits in runner(plan, images, slices, workers):
        if out is None:
            out = np.empty((len(images),) + logits.shape[1:], dtype=logits.dtype)
        out[slices[index]] = logits
    if out is None:
        raise ConfigurationError("cannot run inference on an empty image array")
    return out
