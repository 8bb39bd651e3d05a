"""Server metrics core: counters, queue-depth gauge, latency percentiles.

Builds on the thread-safe accumulators in :mod:`repro.train.metrics`
(:class:`~repro.train.metrics.Counter`,
:class:`~repro.train.metrics.RunningAverage`) so the serving and training
stacks share one metrics vocabulary.  Latency percentiles come from a
fixed-size uniform reservoir (Vitter's algorithm R): memory stays bounded
under sustained traffic while every request ever observed has equal
probability of being represented in the sample.

Counter semantics (the reconciliation invariant the load test asserts):

``offered == accepted + shed`` always — every submit attempt is either
queued or shed at the door.  Accepted requests then finish as exactly one of
``completed``, ``expired`` (deadline hit before/while serving) or
``failed`` (engine raised) or ``cancelled`` (server stopped without drain).

Every executed batch also counts once under the reason it closed
(:data:`CLOSE_REASONS`), so the close-reason counts sum to the batch count.
"""

from __future__ import annotations

import random
import threading
from typing import Callable

from repro.train.metrics import Counter, RunningAverage

__all__ = ["CLOSE_REASONS", "ClusterMetrics", "LatencyReservoir", "ServerMetrics", "percentile"]

#: Why the micro-batcher closed a batch: it reached ``max_batch_size``
#: (``full``), the engine was idle (``idle``), ``max_wait_s`` expired while
#: another batch executed (``window``), or the batcher was stopping or paused
#: (``stop``).
CLOSE_REASONS = ("full", "idle", "window", "stop")


def percentile(samples: "list[float]", p: float) -> float:
    """Nearest-rank percentile of ``samples`` (``p`` in [0, 100]).

    Returns 0.0 for an empty sample set, matching the "no traffic yet"
    snapshot convention.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if p <= 0:
        return ordered[0]
    rank = min(len(ordered), max(1, -(-len(ordered) * p // 100)))  # ceil
    return ordered[int(rank) - 1]


class LatencyReservoir:
    """Bounded uniform sample of latency observations (algorithm R).

    The first ``capacity`` observations fill the reservoir; observation
    ``n > capacity`` replaces a uniformly random slot with probability
    ``capacity / n``.  A deterministic seed keeps benchmark snapshots
    reproducible for a fixed arrival order.
    """

    def __init__(self, capacity: int = 1024, seed: int = 0) -> None:
        self.capacity = capacity
        self._samples: list[float] = []
        self._seen = 0
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._seen += 1
            if len(self._samples) < self.capacity:
                self._samples.append(seconds)
            else:
                slot = self._rng.randrange(self._seen)
                if slot < self.capacity:
                    self._samples[slot] = seconds

    @property
    def seen(self) -> int:
        with self._lock:
            return self._seen

    def percentiles(self, points: "tuple[float, ...]" = (50.0, 95.0, 99.0)) -> "dict[str, float]":
        """``{"p50": ..., ...}`` over the current sample (0.0 when empty)."""
        with self._lock:
            samples = list(self._samples)
        return {f"p{point:g}": percentile(samples, point) for point in points}


class ServerMetrics:
    """Per-model serving metrics: request accounting, batching, latency.

    All mutators are thread-safe; :meth:`snapshot` returns a plain-JSON
    dict suitable for the ``/metrics`` endpoint.
    """

    def __init__(self, reservoir_capacity: int = 1024) -> None:
        self.offered = Counter()
        self.accepted = Counter()
        self.shed = Counter()
        self.completed = Counter()
        self.expired = Counter()
        self.failed = Counter()
        self.cancelled = Counter()
        self.batches = Counter()
        self.batch_size_mean = RunningAverage()
        self.batch_closes = {reason: Counter() for reason in CLOSE_REASONS}
        self.latency_mean = RunningAverage()
        self.latency = LatencyReservoir(reservoir_capacity)
        self._batch_hist: dict[int, int] = {}
        self._hist_lock = threading.Lock()
        self._depth_gauge: "Callable[[], int] | None" = None

    # -- recording -------------------------------------------------------------

    def record_offered(self) -> None:
        self.offered.increment()

    def record_accepted(self) -> None:
        self.accepted.increment()

    def record_shed(self) -> None:
        self.shed.increment()

    def record_expired(self) -> None:
        self.expired.increment()

    def record_failed(self) -> None:
        self.failed.increment()

    def record_cancelled(self) -> None:
        self.cancelled.increment()

    def record_batch(self, size: int, reason: str) -> None:
        """One executed batch of ``size`` requests, closed for ``reason``."""
        self.batches.increment()
        self.batch_closes[reason].increment()
        self.batch_size_mean.update(size)
        with self._hist_lock:
            self._batch_hist[size] = self._batch_hist.get(size, 0) + 1

    def record_completed(self, latency_s: float) -> None:
        self.completed.increment()
        self.latency_mean.update(latency_s)
        self.latency.record(latency_s)

    def bind_depth_gauge(self, fn: "Callable[[], int]") -> None:
        """Register a live queue-depth read (the batcher binds itself here)."""
        self._depth_gauge = fn

    # -- reading ---------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return self._depth_gauge() if self._depth_gauge is not None else 0

    def batch_size_histogram(self) -> "dict[int, int]":
        with self._hist_lock:
            return dict(self._batch_hist)

    def snapshot(self) -> dict:
        """A consistent-enough, JSON-ready view of every metric.

        Individual counters are internally consistent; cross-counter sums
        can be momentarily off by in-flight requests, so the reconciliation
        invariant holds exactly only at quiescence.
        """
        return self._base_snapshot()

    def _base_snapshot(self) -> dict:
        return {
            "requests": {
                "offered": self.offered.value,
                "accepted": self.accepted.value,
                "shed": self.shed.value,
                "completed": self.completed.value,
                "expired": self.expired.value,
                "failed": self.failed.value,
                "cancelled": self.cancelled.value,
            },
            "queue_depth": self.queue_depth,
            "batches": {
                "count": self.batches.value,
                "mean_size": self.batch_size_mean.value,
                "histogram": {str(k): v for k, v in sorted(self.batch_size_histogram().items())},
                "close_reasons": {
                    reason: counter.value for reason, counter in self.batch_closes.items()
                },
            },
            "latency_s": {
                "mean": self.latency_mean.value,
                "samples": self.latency.seen,
                **self.latency.percentiles(),
            },
        }


class ClusterMetrics(ServerMetrics):
    """:class:`ServerMetrics` plus the multi-process cluster's extra axes.

    Adds worker lifecycle counters (deaths, restarts, crash re-dispatches),
    per-priority-class completion counts and latency reservoirs, and a
    gauge hook through which the cluster service merges its live
    supervisor/breaker/admission state into :meth:`snapshot`.
    """

    def __init__(
        self,
        reservoir_capacity: int = 1024,
        priorities: "tuple[str, ...]" = ("interactive", "batch"),
    ) -> None:
        super().__init__(reservoir_capacity)
        self.worker_deaths = Counter()
        self.worker_restarts = Counter()
        self.redispatched = Counter()
        self.completed_by_priority = {p: Counter() for p in priorities}
        self.latency_by_priority = {p: LatencyReservoir(reservoir_capacity) for p in priorities}
        self._cluster_gauge: "Callable[[], dict] | None" = None

    # -- recording -------------------------------------------------------------

    def record_death(self) -> None:
        self.worker_deaths.increment()

    def record_restart(self) -> None:
        self.worker_restarts.increment()

    def record_redispatch(self) -> None:
        self.redispatched.increment()

    def record_completed(self, latency_s: float, priority: "str | None" = None) -> None:
        super().record_completed(latency_s)
        if priority in self.latency_by_priority:
            self.completed_by_priority[priority].increment()
            self.latency_by_priority[priority].record(latency_s)

    def bind_cluster_gauge(self, fn: "Callable[[], dict]") -> None:
        """Register the service's live workers/breaker/admission read."""
        self._cluster_gauge = fn

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> dict:
        snap = self._base_snapshot()
        snap["priorities"] = {
            priority: {
                "completed": self.completed_by_priority[priority].value,
                "latency_s": {
                    "samples": self.latency_by_priority[priority].seen,
                    **self.latency_by_priority[priority].percentiles(),
                },
            }
            for priority in self.completed_by_priority
        }
        snap["workers_lifecycle"] = {
            "deaths": self.worker_deaths.value,
            "restarts": self.worker_restarts.value,
            "redispatched": self.redispatched.value,
        }
        if self._cluster_gauge is not None:
            snap["cluster"] = self._cluster_gauge()
        return snap
