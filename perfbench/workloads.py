"""The four benchmark workloads: set-up, timed passes and output checks.

Every input comes from ``--seed``: the model weights and batch-norm state,
the images, and the arrival schedule of the open loops.  Outputs are kept
during a timed pass and checked only after it ends:

* float logits against an eager ``repro.nn`` forward of the same model
  (argmax equal, max |delta| <= 1e-9), which shares no code with
  ``repro.infer``;
* int8 logits byte for byte against an in-process
  ``PlanConfig(dtype="int8", backend="numpy", trace=False)`` engine.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time

import numpy as np

from repro.infer import InferenceEngine
from repro.infer.plan import PlanConfig
from repro.models.registry import build_network
from repro.nn import Tensor, no_grad
from repro.nn.layers.norm import BatchNorm2d
from repro.quant.schemes import paper_schemes
from repro.serve import (
    BatcherConfig,
    ClusterConfig,
    ClusterService,
    ModelRegistry,
    ModelServer,
    PredictClient,
    ServerConfig,
)
from repro.utils.profiler import PhaseProfiler

from tracing import Tracer, image_key

SCHEME = "FL_a"
NUM_CLASSES = 10
SERVE_NET = 4
SERVE_SCALE = {"image_size": 16, "width_scale": 0.5}
OFFLINE_NETS = (1, 4, 5)
OFFLINE_SCALE = {"image_size": 32, "width_scale": 1.0}
OFFLINE_IMAGES = 512
OFFLINE_BATCH = 64
POOL = 256
HTTP_CLIENTS = 2
BATCHER = BatcherConfig(max_batch_size=32, max_wait_s=0.002, queue_depth=4096)
FLOAT_ATOL = 1e-9
#: Seconds an open loop waits after its last arrival for answers still in flight.
DRAIN_S = 30.0


class WrongAnswer(Exception):
    """The first answer of a set-up did not match its reference."""


def build_model(network_id: int, scale: dict, rng: np.random.Generator):
    """A Table-1 network with seeded weights and non-trivial batch-norm state,
    so that conv+BN folding is exercised as after training."""
    model = build_network(
        network_id, paper_schemes()[SCHEME], num_classes=NUM_CLASSES,
        rng=int(rng.integers(2**31)), **scale,
    )
    for m in model.modules():
        if isinstance(m, BatchNorm2d):
            c = m.num_features
            m.gamma.data[...] = rng.uniform(0.5, 1.5, c)
            m.beta.data[...] = rng.normal(0.0, 0.2, c)
            m.running_mean[...] = rng.normal(0.0, 0.5, c)
            m.running_var[...] = rng.uniform(0.5, 2.0, c)
    model.eval()
    return model


def eager_logits(model, images: np.ndarray) -> np.ndarray:
    with no_grad():
        return np.concatenate([
            model(Tensor(images[i:i + OFFLINE_BATCH])).data
            for i in range(0, len(images), OFFLINE_BATCH)
        ])


def float_ok(got, ref: np.ndarray) -> bool:
    got = np.asarray(got, dtype=np.float64)
    return (got.shape == ref.shape
            and np.array_equal(np.argmax(got, axis=-1), np.argmax(ref, axis=-1))
            and float(np.max(np.abs(got - ref))) <= FLOAT_ATOL)


def percentile_ms(values, q: float) -> float:
    return float(np.percentile(np.asarray(values) * 1e3, q)) if len(values) else 0.0


def _streams(seed: int):
    """Independent generators for weights and images."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]


def _poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrivals conditioned on their count: ``rate * seconds`` sorted
    uniform times, so every seed offers the same load."""
    return np.sort(rng.uniform(0.0, seconds, round(rate * seconds)))


def _engine_choices(engine: InferenceEngine) -> dict:
    """The choices a plan build made by timing or self-check, layer by layer."""
    summary = engine.plan_summary()
    intq = summary["intq"]
    return {
        "kernels": [layer["kernel"] for layer in summary["layers"]],
        "intq": [
            [layer.get("impl"), layer.get("backend")] for layer in intq.get("layers", ())
        ],
        "programs": {
            "x".join(map(str, p["input_shape"])): p["backends"]
            for p in summary["trace"]["programs"]
        },
        "native_declined": summary["native"].get("declined", 0),
        "native_check_failures": summary["native"].get("check_failures", 0),
    }


class Pass:
    """What one timed pass leaves behind; filled in by a workload's ``run``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors = 0  # raised, shed, or never answered
        self.wrong = 0
        self.latencies: "list[float]" = []  # seconds, completed requests only
        self.lateness: "list[float]" = []  # open loops: send time minus due time
        self.wall_s = 0.0
        self.scheduled_s = 0.0
        self.peak_rss_mb = 0.0
        self.layers: dict = {}


def _vm_hwm_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Workload:
    """Base: ``setup`` builds the stack and returns the time of the first
    correct answer; ``run`` makes one timed pass; ``close`` tears down."""

    name = ""
    limit_ms = 0.0
    #: What throughput counts: requests, or images on offline_b64.
    unit_per_answer = 1

    def __init__(self, seed: int, inject_wrong: int = 0) -> None:
        self.seed = seed
        self.inject_wrong = inject_wrong
        self.weights_rng, self.images_rng = _streams(seed)
        self.setup_tracer = Tracer()
        self.engines: "list[InferenceEngine]" = []
        #: ``{IR op phase: seconds}`` per engine per traced pass.
        self.op_totals: "list[dict]" = []

    # -- set-up ----------------------------------------------------------------

    def _engine(self, model, **kwargs) -> InferenceEngine:
        with_span = self.setup_tracer.wrap(InferenceEngine, "infer.plan.compile")
        engine = with_span(model, **kwargs)
        self.engines.append(engine)
        return engine

    def _first(self, fn, *args):
        return self.setup_tracer.wrap(fn, "infer.trace.first_call")(*args)

    def plan_choices(self) -> list:
        return [_engine_choices(e) for e in self.engines]

    def close(self) -> None:
        pass

    # -- checks ----------------------------------------------------------------

    def _check(self, p: Pass, answers) -> None:
        """Count wrong answers among ``(got, pool_index)`` pairs, after a pass."""
        for n, (got, idx) in enumerate(answers):
            if n < self.inject_wrong:
                got = np.asarray(got) + 1.0
            if not self._correct(got, idx):
                p.wrong += 1

    def _correct(self, got, idx) -> bool:
        return float_ok(got, self.reference[idx])

    # -- tracing ---------------------------------------------------------------

    def _trace_engine(self, engine: InferenceEngine, tracer: Tracer, method: str) -> None:
        index = self.engines.index(engine)
        engine.profiler = PhaseProfiler()
        setattr(engine, method, tracer.wrap(
            getattr(engine, method), "infer.engine",
            attrs=lambda images, *a, **k: {"n": len(images), "engine": index,
                                           "rows": [image_key(im) for im in images]},
        ))
        engine.plan.execute = tracer.wrap(engine.plan.execute, "infer.plan")

    def _untrace_engine(self, engine: InferenceEngine, method: str) -> None:
        self.op_totals.append(engine.plan_summary()["timings"]["totals"])
        engine.profiler = None
        vars(engine).pop(method, None)
        vars(engine.plan).pop("execute", None)


# -- shared load shapes --------------------------------------------------------------


def open_loop(submit, pool: np.ndarray, offsets: np.ndarray, idxs: np.ndarray,
              tracer: "Tracer | None"):
    """Send ``pool[idxs[i]]`` at ``offsets[i]`` from one thread, regardless of answers.

    Returns ``(t0, sent, done, futures)``; latency is timed from each
    request's due time ``t0 + offsets[i]``.  A request that raises on submit
    keeps no future.
    """
    n = len(offsets)
    sent = np.zeros(n)
    done = np.full(n, np.nan)
    futures: list = [None] * n

    def mark(i):
        return lambda _f: done.__setitem__(i, time.perf_counter())

    t0 = time.perf_counter() + 0.01
    for i in range(n):
        delay = t0 + offsets[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent[i] = time.perf_counter()
        if tracer is not None:
            tracer.set_request(i)
        try:
            future = submit(pool[idxs[i]])
        except Exception:
            continue
        future.add_done_callback(mark(i))
        futures[i] = future
    if tracer is not None:
        tracer.set_request(None)
    concurrent.futures.wait([f for f in futures if f is not None], timeout=DRAIN_S)
    return t0, sent, done, futures


def _finish_open(p: Pass, loop, offsets: np.ndarray, idxs: np.ndarray, seconds: float):
    t0, sent, done, futures = loop
    due = t0 + offsets
    p.attempted = len(offsets)
    p.scheduled_s = seconds
    p.lateness = list(sent - due)
    answers = []
    for i, future in enumerate(futures):
        if future is None or not future.done() or future.exception() is not None:
            continue
        p.latencies.append(done[i] - due[i])
        answers.append((future.result(), idxs[i]))
    p.errors = p.attempted - len(p.latencies)
    finished = done[np.isfinite(done)]
    p.wall_s = (float(finished.max()) - t0) if len(finished) else seconds
    return answers


# -- workloads ----------------------------------------------------------------------------


class _ServeNet4(Workload):
    """Net 4 at the serving scale, its image pool and eager references."""

    def _build(self):
        self.model = build_model(SERVE_NET, SERVE_SCALE, self.weights_rng)
        self.models = [self.model]
        size = SERVE_SCALE["image_size"]
        self.pool = self.images_rng.normal(0.0, 1.0, (POOL, 3, size, size))
        self.reference = None

    def _references(self) -> None:
        if self.reference is None:
            self.reference = eager_logits(self.model, self.pool)

    def _register(self) -> InferenceEngine:
        engine = self._engine(self.model)
        self.registry = ModelRegistry(BATCHER)
        self.entry = self.registry.register("net4", engine=engine)
        return engine

    def _trace_batcher(self, tracer: Tracer) -> None:
        self._trace_engine(self.entry.engine, tracer, "forward_batch")
        self.entry.batcher.submit = tracer.wrap_async(self.entry.batcher.submit, "serve.batcher")

    def _untrace_batcher(self) -> None:
        self._untrace_engine(self.entry.engine, "forward_batch")
        vars(self.entry.batcher).pop("submit", None)

    def _warm_batches(self, engine: InferenceEngine) -> None:
        # Traced programs are built per batch shape; build every shape the
        # batcher can form before timing, as a long-running server would have.
        for b in range(1, BATCHER.max_batch_size + 1):
            engine.predict_logits(self.pool[:b], batch_size=b)


class HttpClosed(_ServeNet4):
    name = "http_closed"
    limit_ms = 100.0

    def setup(self) -> float:
        self._build()
        engine = self._register()
        self.server = ModelServer(self.registry, ServerConfig(port=0)).start()
        self.clients = [PredictClient(self.server.url) for _ in range(HTTP_CLIENTS)]
        first = self._first(self.clients[0].predict, self.pool[0])
        t_first = time.monotonic()
        self._references()
        if not float_ok(first.logits, self.reference[0]):
            raise WrongAnswer("first HTTP answer differs from the eager forward")
        self._warm_batches(engine)
        return t_first

    def run(self, seconds: float, tracer: "Tracer | None") -> Pass:
        p = Pass()
        if tracer is not None:
            self._trace_batcher(tracer)
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(
            [self.seed, 1]).spawn(HTTP_CLIENTS)]
        records: "list[list]" = [[] for _ in range(HTTP_CLIENTS)]
        before = self.registry.metrics_snapshot()["net4"]
        rid_base = [c * 10**6 for c in range(HTTP_CLIENTS)]
        start = threading.Barrier(HTTP_CLIENTS + 1)
        stop_at = [0.0]

        def client_loop(c: int) -> None:
            client = self.clients[c]
            own = np.arange(c, POOL, HTTP_CLIENTS)  # disjoint pools: in-flight images are unique
            order = rngs[c].permutation(own)
            start.wait()
            k = 0
            while time.perf_counter() < stop_at[0]:
                idx = int(order[k % len(order)])
                image = self.pool[idx]
                span = None
                if tracer is not None:
                    span = tracer.open("serve.http", request_id=rid_base[c] + k)
                    tracer.bind_key(image, span.request_id, span.id)
                t = time.perf_counter()
                try:
                    result = client.predict(image)
                except Exception:
                    result = None
                records[c].append((t, time.perf_counter(), idx, result))
                if span is not None:
                    span.end = records[c][-1][1]
                    span.attrs["error"] = result is None
                    tracer.unbind_key(image)
                k += 1

        threads = [threading.Thread(target=client_loop, args=(c,)) for c in range(HTTP_CLIENTS)]
        for t in threads:
            t.start()
        stop_at[0] = time.perf_counter() + seconds
        t0 = time.perf_counter()
        start.wait()
        for t in threads:
            t.join()
        p.wall_s = max(r[1] for recs in records for r in recs) - t0
        p.scheduled_s = p.wall_s
        p.peak_rss_mb = _vm_hwm_mb()
        if tracer is not None:
            self._untrace_batcher()
        answers = []
        for t_start, t_end, idx, result in (r for recs in records for r in recs):
            p.attempted += 1
            if result is None:
                p.errors += 1
                continue
            p.latencies.append(t_end - t_start)
            answers.append((result.logits, idx))
            if result.predictions != int(np.argmax(result.logits)):
                p.wrong += 1
        self._check(p, answers)
        p.layers = {"snapshot": self.registry.metrics_snapshot()["net4"], "before": before}
        return p

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.server.stop()


class BatcherOpen(_ServeNet4):
    name = "batcher_open"
    limit_ms = 25.0
    rate = 1500.0

    def setup(self) -> float:
        self._build()
        engine = self._register()
        self.registry.start()
        first = self._first(lambda im: self.registry.submit(im).result(), self.pool[0])
        t_first = time.monotonic()
        self._references()
        if not float_ok(first, self.reference[0]):
            raise WrongAnswer("first batcher answer differs from the eager forward")
        self._warm_batches(engine)
        return t_first

    def run(self, seconds: float, tracer: "Tracer | None") -> Pass:
        p = Pass()
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        offsets = _poisson_offsets(rng, self.rate, seconds)
        idxs = rng.integers(POOL, size=len(offsets))
        if tracer is not None:
            self._trace_batcher(tracer)
        before = self.registry.metrics_snapshot()["net4"]
        loop = open_loop(self.registry.submit, self.pool, offsets, idxs, tracer)
        p.peak_rss_mb = _vm_hwm_mb()
        if tracer is not None:
            self._untrace_batcher()
        answers = _finish_open(p, loop, offsets, idxs, seconds)
        self._check(p, answers)
        p.layers = {"snapshot": self.registry.metrics_snapshot()["net4"], "before": before}
        return p

    def close(self) -> None:
        self.registry.stop()


class ClusterInt8Open(_ServeNet4):
    name = "cluster_int8_open"
    limit_ms = 10.0
    rate = 300.0

    def setup(self) -> float:
        self._build()
        engine = self._engine(self.model, config=PlanConfig(dtype="int8"))
        self.service = ClusterService(ClusterConfig())
        self.entry = self.service.register("net4", engines={"int8": engine})
        self.service.start()
        first = self._first(lambda im: self.service.submit(im).result(timeout=60), self.pool[0])
        t_first = time.monotonic()
        self._references()
        if not self._correct(first, 0):
            raise WrongAnswer("first cluster answer differs from the numpy int8 reference")
        # Reach every worker once before timing.
        for f in [self.service.submit(self.pool[i]) for i in range(8)]:
            f.result(timeout=60)
        return t_first

    def _references(self) -> None:
        if self.reference is None:
            ref = InferenceEngine(
                self.model, config=PlanConfig(dtype="int8", backend="numpy", trace=False))
            self.reference = ref.predict_logits(self.pool)

    def _correct(self, got, idx) -> bool:
        got = np.asarray(got)
        ref = self.reference[idx]
        return got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def worker_pids(self) -> "list[int]":
        snap = self.entry.supervisor.snapshot()
        return [w["pid"] for w in snap["workers"] if w["alive"] and w["pid"]]

    def run(self, seconds: float, tracer: "Tracer | None") -> Pass:
        p = Pass()
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3]))
        offsets = _poisson_offsets(rng, self.rate, seconds)
        idxs = rng.integers(POOL, size=len(offsets))
        before = self.service.metrics_snapshot()["net4"]
        level_max = [0]
        sampling = threading.Event()
        sampler = None
        if tracer is not None:
            self.service.submit = tracer.wrap_async(self.service.submit, "serve.cluster")

            def sample() -> None:
                while not sampling.wait(0.01):
                    level_max[0] = max(level_max[0], self.entry.admission.level())

            sampler = threading.Thread(target=sample, daemon=True)
            sampler.start()
        loop = open_loop(self.service.submit, self.pool, offsets, idxs, tracer)
        sampling.set()
        if sampler is not None:
            sampler.join()
            vars(self.service).pop("submit", None)
        p.peak_rss_mb = _vm_hwm_mb() + sum(_vm_hwm_mb(pid) for pid in self.worker_pids())
        answers = _finish_open(p, loop, offsets, idxs, seconds)
        self._check(p, answers)
        p.layers = {"snapshot": self.service.metrics_snapshot()["net4"], "before": before,
                    "admission_level_max": level_max[0]}
        return p

    def close(self) -> None:
        self.service.stop()


class OfflineB64(Workload):
    name = "offline_b64"
    limit_ms = 250.0
    unit_per_answer = OFFLINE_BATCH

    def setup(self) -> float:
        size = OFFLINE_SCALE["image_size"]
        self.models = [build_model(n, OFFLINE_SCALE, self.weights_rng) for n in OFFLINE_NETS]
        self.images = self.images_rng.normal(0.0, 1.0, (OFFLINE_IMAGES, 3, size, size))
        self.reference = None
        firsts = []
        for model in self.models:
            engine = self._engine(model)
            firsts.append(self._first(self._call(engine), 0))
        t_first = time.monotonic()
        first_batch = self.images[:OFFLINE_BATCH]
        if not all(float_ok(got, eager_logits(m, first_batch))
                   for got, m in zip(firsts, self.models)):
            raise WrongAnswer("first offline batch differs from the eager forward")
        return t_first

    def _call(self, engine: InferenceEngine):
        def call(b: int) -> np.ndarray:
            sl = slice(b * OFFLINE_BATCH, (b + 1) * OFFLINE_BATCH)
            return engine.predict_logits(self.images[sl], batch_size=OFFLINE_BATCH)
        return call

    def _correct(self, got, idx) -> bool:
        if self.reference is None:
            self.reference = [eager_logits(m, self.images) for m in self.models]
        net, b = idx
        return float_ok(got, self.reference[net][b * OFFLINE_BATCH:(b + 1) * OFFLINE_BATCH])

    def run(self, seconds: float, tracer: "Tracer | None") -> Pass:
        p = Pass()
        if tracer is not None:
            for engine in self.engines:
                self._trace_engine(engine, tracer, "predict_logits")
        calls = [self._call(e) for e in self.engines]
        records = []
        t0 = time.perf_counter()
        # Whole rounds only, so every net contributes the same number of calls.
        while time.perf_counter() - t0 < seconds:
            for net, call in enumerate(calls):
                for b in range(OFFLINE_IMAGES // OFFLINE_BATCH):
                    t = time.perf_counter()
                    out = call(b)
                    records.append((t, time.perf_counter(), (net, b), out))
        p.wall_s = time.perf_counter() - t0
        p.scheduled_s = p.wall_s
        p.peak_rss_mb = _vm_hwm_mb()
        if tracer is not None:
            for engine in self.engines:
                self._untrace_engine(engine, "predict_logits")
        p.attempted = len(records)
        for t_start, t_end, _, _ in records:
            p.latencies.append(t_end - t_start)
        self._check(p, [(out, idx) for _, _, idx, out in records])
        return p


WORKLOADS = {w.name: w for w in (HttpClosed, BatcherOpen, ClusterInt8Open, OfflineB64)}
