"""Classification metrics and thread-safe streaming accumulators.

The accumulators (:class:`RunningAverage`, :class:`Counter`) are shared
between the training loop and the serving metrics path
(:mod:`repro.serve.metrics`), so they synchronise internally: every update
and read takes a small lock, making concurrent use from batcher workers and
the HTTP loop thread race-free while staying cheap enough for the per-epoch
training loop that only ever touches them from one thread.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.errors import ShapeError

__all__ = ["accuracy", "topk_accuracy", "RunningAverage", "Counter"]


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1] for (N, classes) logits."""
    return topk_accuracy(logits, labels, k=1)


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Top-k accuracy in [0, 1]; Table 5 reports top-5 for ImageNet."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"expected (N, C) logits and (N,) labels, got {logits.shape} / {labels.shape}"
        )
    if not 1 <= k <= logits.shape[1]:
        raise ShapeError(f"k={k} out of range for {logits.shape[1]} classes")
    topk = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return float(hits.mean())


class RunningAverage:
    """Streaming weighted mean (per-epoch loss/accuracy accumulation).

    Thread-safe: concurrent :meth:`update` calls never lose increments, and
    :attr:`value` always reads a consistent (total, count) pair.
    """

    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def update(self, value: float, weight: int = 1) -> None:
        """Add ``value`` observed over ``weight`` samples."""
        with self._lock:
            self._total += float(value) * weight
            self._count += weight

    @property
    def value(self) -> float:
        """Current mean (0.0 when nothing has been recorded)."""
        with self._lock:
            return self._total / self._count if self._count else 0.0

    @property
    def count(self) -> int:
        """Number of samples accumulated."""
        with self._lock:
            return self._count


class Counter:
    """A monotonically increasing, thread-safe event counter.

    Plain ``int += 1`` is not atomic across the serving layer's batcher and
    HTTP loop threads; this wraps the increment in a lock and exposes the
    value as a property so metric snapshots read consistent totals.
    """

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def increment(self, amount: int = 1) -> int:
        """Add ``amount`` (default 1); returns the new total."""
        with self._lock:
            self._value += amount
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Counter({self.value})"
