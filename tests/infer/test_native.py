"""Native C backend: bitwise parity, fallback ladder and cache plumbing.

The one native contract: every native kernel variant must be *bitwise*
identical to the numpy codegen it replaces — the 8 Table-1 configs plus
generated nets outside those sizes, x {dense, shift_plane} x {float64,
int8} — and the backend must degrade
to numpy (never crash) when the toolchain is missing or a cached binary
is corrupt.  Parity runs even on a toolchain-free host (both sides are
then numpy and trivially equal); the "native actually executed"
assertions are gated on :func:`binding.available`.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.infer import InferenceEngine, PlanConfig
from repro.infer import kernels
from repro.infer.intq.build import IntConvOp, IntLinearOp
from repro.infer.native import binding, toolchain
from repro.infer.plan import ConvOp
from repro.models.configs import NetworkConfig
from repro.models.registry import build_from_config
from repro.quant.schemes import paper_schemes

from tests.infer.conftest import build_small_network, randomize_bn_stats, sample_images

ALL_CONFIGS = tuple(range(1, 9))
KERNELS = ("dense", "shift_plane")

# Generated nets outside the Table-1 sizes: (structure, depth, width, px,
# scheme).  vgg7-w8-8px-Full is the shape on which the removed tiled
# kernels disagreed with the serial ones.  The int8 program needs dyadic
# weights, so its nets use LightNN/FLightNN schemes instead of Full.
GENERATED_FLOAT64 = {
    "vgg7-w8-8px-Full": ("vgg", 7, 8, 8, "Full"),
    "resnet18-w8-9px-Full": ("resnet", 18, 8, 9, "Full"),
    "vgg3-w4-13px-L-2": ("vgg", 3, 4, 13, "L-2"),
}
GENERATED_INT8 = {
    "vgg3-w4-13px-L-2": ("vgg", 3, 4, 13, "L-2"),
    "resnet18-w12-11px-L-2": ("resnet", 18, 12, 11, "L-2"),
    "vgg5-w12-9px-FL_b": ("vgg", 5, 12, 9, "FL_b"),
}

NATIVE_OK = binding.available()
needs_toolchain = pytest.mark.skipif(
    not NATIVE_OK, reason="no C toolchain on this host"
)


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-level equality (``==`` would let ``-0.0 == 0.0`` hide a drift)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _traced_backend_counts(engine) -> dict:
    counts: dict[str, int] = {}
    for prog in engine.plan._traced.values():
        for name, n in prog.backend_counts().items():
            counts[name] = counts.get(name, 0) + n
    return counts


def _net_and_images(network, n: int, generated: dict):
    """A Table-1 net (int id) or a generated one (key of ``generated``),
    with ``n`` matching input images."""
    if isinstance(network, int):
        return build_small_network(network), sample_images(n, seed=network)
    structure, depth, width, px, scheme = generated[network]
    config = NetworkConfig(0, structure, depth, width, "generated", 0.0)
    model = build_from_config(config, paper_schemes()[scheme], 10, px, rng=depth)
    randomize_bn_stats(model, np.random.default_rng(width))
    model.eval()
    images = np.random.default_rng(px).normal(0.0, 1.0, (n, 3, px, px))
    return model, images


# -- bitwise parity -----------------------------------------------------------


class TestBitwiseParity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("network_id", ALL_CONFIGS + tuple(GENERATED_FLOAT64))
    def test_float64(self, network_id, kernel):
        """backend="native" reproduces backend="numpy" byte-for-byte."""
        model, images = _net_and_images(network_id, 5, GENERATED_FLOAT64)
        want = InferenceEngine(
            model, config=PlanConfig(kernel=kernel, backend="numpy")
        ).predict_logits(images)
        native_engine = InferenceEngine(
            model, config=PlanConfig(kernel=kernel, backend="native")
        )
        got = native_engine.predict_logits(images)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            counts = _traced_backend_counts(native_engine)
            assert counts.get("native", 0) > 0, counts

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("network_id", ALL_CONFIGS + tuple(GENERATED_INT8))
    def test_int8(self, network_id, kernel):
        """The integer program's native kernels are exact: same bits."""
        model, images = _net_and_images(network_id, 4, GENERATED_INT8)
        want = InferenceEngine(
            model, config=PlanConfig(dtype="int8", kernel=kernel, backend="numpy")
        ).predict_logits(images)
        native_engine = InferenceEngine(
            model, config=PlanConfig(dtype="int8", kernel=kernel, backend="native")
        )
        got = native_engine.predict_logits(images)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            matmuls = [
                op
                for op in native_engine.plan.intq.ops
                if isinstance(op, (IntConvOp, IntLinearOp))
            ]
            assert any(op.backend == "native" for op in matmuls)

    def test_batch_size_does_not_change_native_bits(self):
        """Kernels are rebound per batch shape; every binding must agree."""
        model = build_small_network(4)
        images = sample_images(16, seed=2)
        engine = InferenceEngine(model, config=PlanConfig(backend="native"))
        ref = engine.predict_logits(images, batch_size=16)
        for bs in (1, 3, 16):
            assert _bitwise_equal(engine.predict_logits(images, batch_size=bs), ref)

    def test_batch_size_does_not_change_padded_conv_bits(self):
        """Native convs reuse one sample's pad/cols scratch for the whole
        batch; a sample that read its predecessor's columns would fail the
        self-check at every batch size > 1, including a ragged tail.

        The reference is numpy at the *same* batch size: on this net the
        final linear's OpenBLAS GEMM rounds differently as its row count
        changes, so even numpy's bits depend on the batch size.  A
        demoted kernel would still match numpy, hence the failure count.
        """
        model, images = _net_and_images("vgg7-w8-8px-Full", 17, GENERATED_FLOAT64)
        reference = InferenceEngine(model, config=PlanConfig(backend="numpy"))
        engine = InferenceEngine(model, config=PlanConfig(backend="native"))
        failures = binding.status()["check_failures"]
        for bs in (1, 3, 8, 17):
            want = reference.predict_logits(images, batch_size=bs)
            assert _bitwise_equal(engine.predict_logits(images, batch_size=bs), want), bs
        assert binding.status()["check_failures"] == failures
        if NATIVE_OK:
            assert _traced_backend_counts(engine).get("native", 0) > 0

    def test_repeated_runs_share_one_digest(self):
        """Same engine, same batch, many runs: a single output digest."""
        model = build_small_network(4)
        images = sample_images(8, seed=7)
        engine = InferenceEngine(model, config=PlanConfig(backend="native"))
        digests = {engine.predict_logits(images).tobytes() for _ in range(5)}
        assert len(digests) == 1


# -- edge values --------------------------------------------------------------

_NAN_A = np.uint64(0x7FF8000000000001).view(np.float64)  # payload-tagged NaN
_NAN_B = -np.float64("nan")

# 2x2 pool windows, slot order (0,0) (0,1) (1,0) (1,1).
_EDGE_WINDOWS = [
    (np.nan, 1.0, 2.0, 3.0),
    (1.0, np.nan, 2.0, 3.0),
    (1.0, 2.0, np.nan, 3.0),
    (1.0, 2.0, 3.0, np.nan),
    (_NAN_A, _NAN_B, 1.0, 2.0),
    (1.0, _NAN_B, _NAN_A, 0.0),
    (np.inf, 1.0, 2.0, 3.0),
    (-np.inf, -1.0, -2.0, -3.0),
    (-np.inf, -np.inf, -np.inf, -np.inf),
    (-np.inf, 1.0, np.inf, 0.0),
    (-0.0, 0.0, -0.0, -0.0),
    (0.0, -0.0, -0.0, -0.0),
    (0.0, -0.0, 0.0, -0.0),
    (-0.0, -0.0, -0.0, -0.0),
    (-0.3, -0.1, -0.2, -0.4),
]

_LRELU_AQ = [("lrelu", 0.1), ("aq", 0.25, 8.0)]


def _edge_pool_input() -> np.ndarray:
    """(2, 2, 2, 2*len(windows)): every window in channel 0 of sample 0,
    the same windows negated after it, random data elsewhere."""
    nw = len(_EDGE_WINDOWS)
    x = np.random.default_rng(3).normal(0.0, 1.0, (2, 2, 2, 2 * nw))
    for w, win in enumerate(_EDGE_WINDOWS):
        for slot, v in enumerate(win):
            x[0, 0, slot // 2, 2 * w + slot % 2] = v
            x[1, 1, slot // 2, 2 * w + slot % 2] = -v
    return x


def _both_backends(bind):
    """Run ``bind(backend, record)`` -> ``(thunk, out)`` for numpy and
    native; return both outputs and the native binding's record."""
    outs, record = {}, {}
    for backend in ("numpy", "native"):
        rec = record if backend == "native" else None
        thunk, out = bind(backend, rec)
        with np.errstate(invalid="ignore"):  # inf - inf, 0 * inf
            thunk()
            thunk()  # the second call runs whichever kernel the check pinned
        outs[backend] = out
    return outs["numpy"], outs["native"], record


class TestEdgeValues:
    """NaN in every window slot, +-inf and signed-zero ties: native must
    give numpy's exact bits *without* the self-check demoting it (a
    demotion would hide a select-form slip as a mere slowdown)."""

    def _check(self, bind):
        failures = binding.status()["check_failures"]
        want, got, record = _both_backends(bind)
        assert _bitwise_equal(got, want)
        if NATIVE_OK:
            assert record.get("backend") == "native", record
            assert "native_check_failed" not in record
            assert binding.status()["check_failures"] == failures

    @pytest.mark.parametrize("pool_kind", ("maxpool", "avgpool"))
    @pytest.mark.parametrize("epilogue", ((), _LRELU_AQ), ids=("plain", "lrelu_aq"))
    def test_pool(self, pool_kind, epilogue):
        x = _edge_pool_input()
        out_shape = (x.shape[0], x.shape[1], 1, x.shape[3] // 2)
        scratch_reqs = kernels.epilogue_scratch(epilogue, out_shape[1:])

        def bind(backend, record):
            out = np.empty(out_shape)
            scratch = {r.name: np.empty((x.shape[0],) + r.tail) for r in scratch_reqs}
            thunk = kernels.bind_pool(
                pool_kind, 2, 2, x, out, scratch, epilogue, np.dtype(np.float64),
                backend, record,
            )
            return thunk, out

        self._check(bind)

    def test_conv_lrelu_aq(self):
        """A padded 3x3 conv whose GEMM sees NaN, +-inf and signed zeros
        and whose epilogue rounds small negatives to -0.0."""
        rng = np.random.default_rng(5)
        nb, c, h, w, f = 3, 2, 6, 6, 4
        x = rng.normal(0.0, 0.2, (nb, c, h, w))
        x[0, 0, 1, 1] = np.nan
        x[1, 1, 2, 3] = np.inf
        x[2, 0, 4, 4] = -np.inf
        x[2, 1, 0:3, 0:3] = -0.0
        weight = rng.normal(0.0, 0.5, (f, c * 9))
        weight[:, ::4] = 0.0
        op = ConvOp(0, 0, 1, weight, rng.normal(0.0, 0.1, f), kernel=3, stride=1, padding=1)
        scratch_reqs = kernels.producer_scratch("conv", op, x.shape, "dense", _LRELU_AQ)

        def bind(backend, record):
            out = np.empty((nb, f, h * w))
            scratch = {
                r.name: (np.zeros if r.zero else np.empty)((nb,) + r.tail)
                for r in scratch_reqs
            }
            thunk = kernels.bind_producer(
                "conv", op, x, out, scratch, "dense", _LRELU_AQ,
                np.dtype(np.float64), backend, record,
            )
            return thunk, out

        self._check(bind)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
class TestForkHygiene:
    def test_child_after_fork_recomputes_identical_bits(self):
        """A forked child (how cluster workers start) reuses the parent's
        bound native kernels and must produce the parent's exact bytes."""
        model = build_small_network(4)
        images = sample_images(6, seed=11)
        engine = InferenceEngine(model, config=PlanConfig(backend="native"))
        parent_out = engine.predict_logits(images).copy()

        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            status = 1
            try:
                ok = _bitwise_equal(engine.predict_logits(images), parent_out)
                os.write(w, b"1" if ok else b"0")
                status = 0 if ok else 2
            finally:
                os.close(w)
                os._exit(status)
        os.close(w)
        try:
            flag = os.read(r, 1)
            _, wait_status = os.waitpid(pid, 0)
        finally:
            os.close(r)
        assert flag == b"1"
        assert os.waitstatus_to_exitcode(wait_status) == 0
        assert _bitwise_equal(engine.predict_logits(images), parent_out)


# -- fallback ladder ----------------------------------------------------------


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """Simulate a host without a C compiler, hermetically.

    ``$CC`` points at a non-executable path (honored strictly by
    :func:`toolchain.find_compiler`), the cache root moves to a tempdir so
    nothing touches the real host caches, and the process-wide memo /
    kernel caches are cleared on both sides so no previously compiled
    native function can leak in (the kernel cache is keyed spec-first).
    """
    monkeypatch.setenv("CC", "/nonexistent-compiler")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    binding.reset()
    kernels.clear_caches()
    yield
    binding.reset()
    kernels.clear_caches()


class TestFallback:
    def test_missing_toolchain_serves_numpy(self, no_toolchain):
        """No compiler: the plan builds, serves, and binds zero native ops."""
        assert not binding.available()
        model = build_small_network(4)
        images = sample_images(5, seed=9)
        engine = InferenceEngine(model, config=PlanConfig(backend="auto"))
        got = engine.predict_logits(images)
        want = InferenceEngine(
            model, config=PlanConfig(backend="numpy")
        ).predict_logits(images)
        assert _bitwise_equal(got, want)
        counts = _traced_backend_counts(engine)
        assert counts.get("native", 0) == 0, counts
        assert counts.get("numpy", 0) > 0

    def test_missing_toolchain_forced_native_still_serves(self, no_toolchain):
        """Even an explicit backend="native" degrades instead of raising."""
        model = build_small_network(6)
        images = sample_images(3, seed=1)
        engine = InferenceEngine(model, config=PlanConfig(backend="native"))
        want = InferenceEngine(
            model, config=PlanConfig(backend="numpy")
        ).predict_logits(images)
        assert _bitwise_equal(engine.predict_logits(images), want)

    def test_status_reports_reason(self, no_toolchain):
        info = binding.status()
        assert info["available"] is False
        assert "reason" in info


@needs_toolchain
class TestDiskCache:
    SOURCE = (
        "void run(void **ptrs, long long *dims, double *scalars)\n"
        "{ (void)ptrs; (void)dims; (void)scalars; }\n"
    )

    @pytest.fixture(autouse=True)
    def hermetic_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        binding.reset()
        yield
        binding.reset()

    def test_corrupted_so_is_recompiled(self):
        """A torn/garbage cached binary is dropped and rebuilt once."""
        so_path = toolchain.compile_source(self.SOURCE)
        assert os.path.exists(so_path)
        with open(so_path, "wb") as fh:
            fh.write(b"\x7fELFgarbage")
        toolchain.reset()  # drop the mapped-library memo
        fn = toolchain.load_library(so_path, self.SOURCE)
        assert fn is not None
        assert os.path.getsize(so_path) > len(b"\x7fELFgarbage")

    def test_corrupted_so_without_source_raises_unavailable(self):
        so_path = toolchain.compile_source(self.SOURCE)
        with open(so_path, "wb") as fh:
            fh.write(b"junk")
        toolchain.reset()
        with pytest.raises(toolchain.NativeUnavailable):
            toolchain.load_library(so_path)

    def test_compile_cache_hits_on_identical_source(self):
        first = toolchain.compile_source(self.SOURCE)
        mtime = os.path.getmtime(first)
        second = toolchain.compile_source(self.SOURCE)
        assert first == second
        assert os.path.getmtime(second) == mtime  # reused, not rebuilt


# -- cache plumbing (satellites 1 & 2) ---------------------------------------


class TestKernelCacheLRU:
    def test_eviction_counter_and_bound(self):
        cache = kernels._KernelCache(max_entries=2)
        for i in range(4):
            spec = kernels.KernelSpec("conv", "dense", (("s", i),), "float64", (), ())
            cache.get_native(spec, f"src{i}", lambda s: object())
        stats = cache.stats()
        assert stats["specs"] == 2
        assert stats["evictions"] == 2
        assert stats["max_entries"] == 2
        # Sources are never evicted (they are the cheap re-insertion path).
        assert stats["compiled_sources"] == 4

    def test_reinsertion_after_eviction_skips_rebuild(self):
        cache = kernels._KernelCache(max_entries=1)
        builds = []
        spec0 = kernels.KernelSpec("conv", "dense", (("s", 0),), "float64", (), ())
        spec1 = kernels.KernelSpec("conv", "dense", (("s", 1),), "float64", (), ())
        cache.get_native(spec0, "srcA", lambda s: builds.append(s) or object())
        cache.get_native(spec1, "srcB", lambda s: builds.append(s) or object())
        cache.get_native(spec0, "srcA", lambda s: builds.append(s) or object())
        assert builds == ["srcA", "srcB"]  # spec0 re-entry reused srcA


class TestAutotunePersistence:
    @pytest.fixture(autouse=True)
    def hermetic_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        yield

    def test_roundtrip_across_instances(self):
        key = ("conv", (16, 8, 8), "dense", 1)
        first = kernels._AutotuneCache()
        first.put(key, {"impl": "dense", "backend": "native"})
        assert os.path.exists(first.disk_path())
        fresh = kernels._AutotuneCache()
        assert fresh.get(key) == {"impl": "dense", "backend": "native"}

    def test_corrupt_decision_file_is_dropped(self):
        probe = kernels._AutotuneCache()
        path = probe.disk_path()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # Not JSON at all; and valid JSON holding a non-dict entry.
        for body in ("{not json", '{"(\'x\',)": 5}'):
            with open(path, "w") as fh:
                fh.write(body)
            fresh = kernels._AutotuneCache()
            assert fresh.get(("anything",)) is None
            assert fresh.get(("x",)) is None
            assert not os.path.exists(path)  # corrupt file unlinked

    def test_clear_removes_decision_file(self):
        cache = kernels._AutotuneCache()
        cache.put(("k",), {"impl": "dense"})
        assert os.path.exists(cache.disk_path())
        cache.clear()
        assert not os.path.exists(cache.disk_path())


class TestCacheInfo:
    def test_cache_info_shape(self):
        info = kernels.cache_info()
        assert set(info["kernels"]) >= {
            "hits", "misses", "specs", "compiled_sources", "evictions", "max_entries"
        }
        assert "hits" in info["autotune"]
        if NATIVE_OK:
            assert "native" in info
            assert "cache_dir" in info["native"]
            assert "status" in info["native"]

    def test_public_reexport(self):
        import repro.infer

        assert repro.infer.cache_info is kernels.cache_info
