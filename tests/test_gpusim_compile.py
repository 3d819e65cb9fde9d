"""Megablock engine: feature parity, cache behaviour, env toggle.

Complements ``test_backend_differential.py`` (which sweeps the paper suite):
here each simulator feature gets a focused kernel run under both backends and
compared bit-for-bit, and the kernel/variant compile caches get dedicated
hit/miss/invalidation coverage.
"""

import numpy as np
import pytest

from repro.analysis.resources import estimate_resources
from repro.gpusim.compile import (
    clear_compile_cache,
    compile_cache_stats,
    compile_kernel,
    kernel_digest,
)
from repro.gpusim.errors import SimError
from repro.gpusim.launch import default_backend, run_kernel
from repro.gpusim.megablock import MegaKernel, compile_megablock
from repro.minicuda.parser import parse_kernel
from repro.npc.config import NpConfig
from repro.npc.pipeline import (
    clear_variant_cache,
    compile_np,
    variant_cache_stats,
)


def both(src, grid=1, block=32, **kwargs):
    """Run under both backends; assert bit-identical buffers and stats."""
    args = {k: v for k, v in kwargs.items()}

    def fresh():
        return {
            k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in args.items()
        }

    ref = run_kernel(src, grid, block, fresh(), backend="interp")
    got = run_kernel(src, grid, block, fresh(), backend="megablock")
    assert got.megablock_fallback is None
    for name, buf in ref.gmem.buffers().items():
        other = got.gmem.buffers()[name]
        assert buf.data.dtype == other.data.dtype
        assert buf.data.tobytes() == other.data.tobytes(), f"buffer {name}"
    assert ref.stats == got.stats
    return got


class TestFeatureParity:
    def test_divergent_if_else(self):
        both(
            "__global__ void t(int *o) {"
            " if (threadIdx.x < 10) o[threadIdx.x] = 1;"
            " else o[threadIdx.x] = 2; }",
            o=np.zeros(32, np.int32),
        )

    def test_loops_break_continue(self):
        both(
            "__global__ void t(int *o) {"
            " int s = 0;"
            " for (int i = 0; i < 100; i++) {"
            "   if (i == threadIdx.x) break;"
            "   if (i % 3 == 0) continue;"
            "   s += i; }"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )

    def test_while_loop_per_lane(self):
        both(
            "__global__ void t(int *o) {"
            " int i = 0; int s = 0;"
            " while (i < threadIdx.x) { s += i; i++; }"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )

    def test_early_return(self):
        both(
            "__global__ void t(int *o, int n) {"
            " int i = threadIdx.x;"
            " if (i >= n) return;"
            " o[i] = 7; }",
            o=np.zeros(32, np.int32),
            n=10,
        )

    def test_shared_memory_and_sync(self):
        both(
            "__global__ void t(float *o, float *a) {"
            " __shared__ float tile[64];"
            " tile[threadIdx.x] = a[threadIdx.x];"
            " __syncthreads();"
            " o[threadIdx.x] = tile[63 - threadIdx.x]; }",
            block=64,
            a=np.arange(64, dtype=np.float32),
            o=np.zeros(64, np.float32),
        )

    def test_local_array(self):
        both(
            "__global__ void t(int *o) {"
            " int acc[4];"
            " for (int i = 0; i < 4; i++) acc[i] = threadIdx.x * i;"
            " o[threadIdx.x] = acc[3]; }",
            o=np.zeros(32, np.int32),
        )

    def test_shfl(self):
        both(
            "__global__ void t(int *o) {"
            " int v = threadIdx.x * 3;"
            " v = __shfl(v, 0, 8);"
            " o[threadIdx.x] = v; }",
            o=np.zeros(32, np.int32),
        )

    def test_atomic_add(self):
        both(
            "__global__ void t(int *c) { atomicAdd(c[threadIdx.x % 4], 1); }",
            grid=2,
            c=np.zeros(4, np.int32),
        )

    def test_ternary_and_cast(self):
        both(
            "__global__ void t(float *o, int k) {"
            " float v = threadIdx.x % 2 == 0 ? (float)k : 0.25f;"
            " o[threadIdx.x] = v; }",
            o=np.zeros(32, np.float32),
            k=3,
        )

    def test_compound_assign_and_int_div(self):
        both(
            "__global__ void t(int *o) {"
            " int a = threadIdx.x - 16;"
            " a *= 7; a += 3;"
            " o[threadIdx.x] = a / 2 + a % 3; }",
            o=np.zeros(32, np.int32),
        )

    def test_2d_block(self):
        both(
            "__global__ void t(int *o) {"
            " int i = threadIdx.y * blockDim.x + threadIdx.x;"
            " o[i] = i * 2; }",
            block=(8, 8),
            o=np.zeros(64, np.int32),
        )

    def test_partial_warp(self):
        both(
            "__global__ void t(int *o) { o[threadIdx.x] = threadIdx.x + 1; }",
            block=20,
            o=np.zeros(20, np.int32),
        )

    def test_math_functions(self):
        both(
            "__global__ void t(float *o, float *a) {"
            " o[threadIdx.x] = sqrtf(a[threadIdx.x]) + expf(0.5f); }",
            a=np.arange(32, dtype=np.float32),
            o=np.zeros(32, np.float32),
        )

    def test_strided_access_stats(self):
        """Uncoalesced path: transaction counting must agree exactly."""
        res = both(
            "__global__ void t(float *o, float *a) {"
            " o[threadIdx.x] = a[threadIdx.x * 4]; }",
            a=np.arange(128, dtype=np.float32),
            o=np.zeros(32, np.float32),
        )
        assert res.stats.uncoalesced_accesses >= 1


class TestErrorParity:
    def test_out_of_bounds_same_fault(self):
        src = (
            "__global__ void t(float *o) {"
            " o[threadIdx.x + 100] = 1.0f; }"
        )
        ref = run_kernel(
            src, 1, 32, {"o": np.zeros(32, np.float32)},
            backend="interp", on_error="status",
        )
        got = run_kernel(
            src, 1, 32, {"o": np.zeros(32, np.float32)},
            backend="megablock", on_error="status",
        )
        assert ref.error is not None and got.error is not None
        assert ref.error.summary() == got.error.summary()

    def test_located_exception(self):
        src = (
            "__global__ void t(float *o) {\n"
            "  float v = 1.0f;\n"
            "  o[threadIdx.x + 999] = v;\n"
            "}\n"
        )
        with pytest.raises(SimError) as ref_exc:
            run_kernel(src, 1, 32, {"o": np.zeros(32, np.float32)},
                       backend="interp")
        with pytest.raises(SimError) as got_exc:
            run_kernel(src, 1, 32, {"o": np.zeros(32, np.float32)},
                       backend="megablock")
        assert str(ref_exc.value) == str(got_exc.value)

    def test_unknown_backend_rejected(self):
        for name in ("jit", "compiled"):
            with pytest.raises(ValueError, match="'megablock' or 'interp'"):
                run_kernel(
                    "__global__ void t(int *o) { o[0] = 1; }",
                    1, 1, {"o": np.zeros(1, np.int32)}, backend=name,
                )


class TestEnvToggle:
    SRC = "__global__ void t(int *o) { o[threadIdx.x] = 1; }"

    def run(self):
        return run_kernel(self.SRC, 1, 32, {"o": np.zeros(32, np.int32)})

    def test_default_is_megablock(self, monkeypatch):
        monkeypatch.delenv("GPUSIM_BACKEND", raising=False)
        assert default_backend() == "megablock"
        assert self.run().backend == "megablock"

    def test_env_selects_interp(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_BACKEND", "interp")
        assert default_backend() == "interp"
        assert self.run().backend == "interp"

    @pytest.mark.parametrize("value", ["compiled", "compiledd"])
    def test_env_rejects_other_values(self, monkeypatch, value):
        """Any other value names the variable and both allowed engines —
        from default_backend() and from a launch that names no engine."""
        monkeypatch.setenv("GPUSIM_BACKEND", value)
        message = (
            f"GPUSIM_BACKEND must be 'megablock' or 'interp', got {value!r}"
        )
        with pytest.raises(ValueError) as excinfo:
            default_backend()
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            self.run()
        assert str(excinfo.value) == message

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_BACKEND", "megablock")
        res = run_kernel(self.SRC, 1, 32, {"o": np.zeros(32, np.int32)},
                         backend="interp")
        assert res.backend == "interp"


SRC_A = "__global__ void a(int *o) { o[threadIdx.x] = threadIdx.x; }"
SRC_B = "__global__ void a(int *o) { o[threadIdx.x] = threadIdx.x + 1; }"


class TestKernelCompileCache:
    def setup_method(self):
        clear_compile_cache()

    def test_hit_and_miss_counters(self):
        k = parse_kernel(SRC_A)
        c1 = compile_megablock(k)
        assert isinstance(c1, MegaKernel)
        stats = compile_cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 1, 1)
        c2 = compile_megablock(k)
        assert c2 is c1
        stats = compile_cache_stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_structurally_equal_kernels_share(self):
        """Two separately parsed but identical sources share one artifact."""
        c1 = compile_megablock(parse_kernel(SRC_A))
        c2 = compile_megablock(parse_kernel(SRC_A))
        assert c1 is c2
        assert compile_cache_stats().size == 1

    def test_source_change_invalidates(self):
        compile_megablock(parse_kernel(SRC_A))
        compile_megablock(parse_kernel(SRC_B))
        stats = compile_cache_stats()
        assert stats.misses == 2 and stats.size == 2
        assert kernel_digest(parse_kernel(SRC_A)) != kernel_digest(
            parse_kernel(SRC_B)
        )

    def test_launches_share_cache(self):
        run_kernel(SRC_A, 1, 32, {"o": np.zeros(32, np.int32)},
                   backend="megablock")
        run_kernel(SRC_A, 1, 32, {"o": np.zeros(32, np.int32)},
                   backend="megablock")
        stats = compile_cache_stats()
        assert stats.misses == 1 and stats.hits >= 1

    def test_uncached_compile(self):
        c = compile_megablock(parse_kernel(SRC_A), cache=False)
        assert c.digest is None
        assert compile_cache_stats().size == 0

    def test_profiled_artifact_cached_separately(self):
        """Profile-mode lowering wraps statement closures; the profiled
        artifact must not replace (or be served as) the plain one."""
        k = parse_kernel(SRC_A)
        plain = compile_megablock(k)
        prof = compile_megablock(k, profile=True)
        assert prof is not plain
        assert prof.profiled and not plain.profiled
        assert compile_cache_stats().size == 2
        # Both keys now hit.
        assert compile_megablock(k) is plain
        assert compile_megablock(k, profile=True) is prof

    def test_interleaved_lowerings_keep_their_own_hooks(self, monkeypatch):
        """Lowering is a pure function of its inputs.  A plain lowering on
        one thread, paused at its first statement while a profiled lowering
        of the same kernel starts on another, finishes first; each artifact
        still gets exactly its own per-line hooks, and the cached profiled
        one profiles like interp."""
        import threading

        from repro.gpusim import megablock

        src = """
__global__ void r(float *o, const float *a) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int k = 0; k < 4; k++) {
        acc += a[i] * k;
    }
    if (i % 3 == 0) {
        acc = -acc;
    }
    o[i] = acc;
}
"""
        plain_paused = threading.Event()
        profiled_started = threading.Event()
        plain_done = threading.Event()
        errors = []
        gated = set()
        wraps = {"plain": 0, "profiled": 0}
        real_stmt = megablock.mb_stmt
        real_wrap = megablock._mb_wrap_profiled

        def wait(event):
            if not event.wait(10):
                errors.append(f"{threading.current_thread().name} timed out")

        def gate(stmt, *args):
            name = threading.current_thread().name
            if name not in gated:
                gated.add(name)
                if name == "plain":
                    plain_paused.set()
                    wait(profiled_started)
                elif name == "profiled":
                    profiled_started.set()
                    wait(plain_done)
            return real_stmt(stmt, *args)

        def counting_wrap(*args):
            name = threading.current_thread().name
            if name in wraps:
                wraps[name] += 1
            return real_wrap(*args)

        def lower(profile):
            try:
                compile_megablock(parse_kernel(src), profile=profile)
            except Exception as exc:
                errors.append(repr(exc))
            finally:
                if not profile:
                    plain_done.set()

        monkeypatch.setattr(megablock, "mb_stmt", gate)
        monkeypatch.setattr(megablock, "_mb_wrap_profiled", counting_wrap)
        plain = threading.Thread(target=lower, args=(False,), name="plain")
        profiled = threading.Thread(target=lower, args=(True,), name="profiled")
        plain.start()
        assert plain_paused.wait(10)
        profiled.start()
        plain.join(30)
        profiled.join(30)
        assert not plain.is_alive() and not profiled.is_alive()
        assert errors == []
        monkeypatch.undo()

        rng = np.random.default_rng(3)
        a = rng.standard_normal(128).astype(np.float32)

        def run(backend):
            return run_kernel(
                src, 2, 64, {"o": np.zeros(128, np.float32), "a": a.copy()},
                backend=backend, profile=True,
            )

        ref, got = run("interp"), run("megablock")
        assert got.megablock_fallback is None
        assert ref.profile.diff_lines(got.profile) == []
        assert got.profile.total_issues == ref.profile.total_issues > 0
        assert wraps["plain"] == 0
        assert wraps["profiled"] > 0

    def test_variant_breakdown(self):
        """Cache growth is observable per variant suffix (base / #prof)."""
        k = parse_kernel(SRC_A)
        assert compile_cache_stats().variants == {"base": 0, "prof": 0}
        compile_megablock(k)
        compile_megablock(k, profile=True)
        stats = compile_cache_stats()
        assert stats.variants == {"base": 1, "prof": 1}
        assert stats.size == 2

    def test_compile_kernel_is_megablock_alias(self):
        """``compile_kernel`` survives only as an alias for older callers:
        it hands out the same cached artifact as ``compile_megablock``."""
        k = parse_kernel(SRC_A)
        assert compile_kernel(k) is compile_megablock(k)
        assert compile_kernel(k, profile=True) is compile_megablock(
            k, profile=True
        )
        assert compile_cache_stats().size == 2


SHARED_SRC = """
__global__ void s(float *o) {
    __shared__ float buf[%d];
    buf[threadIdx.x] = threadIdx.x;
    __syncthreads();
    o[blockIdx.x * blockDim.x + threadIdx.x] = buf[threadIdx.x];
}
"""


class TestResourceReportCache:
    """A lowering engine reads the kernel's resource report off its cached
    artifact, so only the first launch of a source estimates it."""

    def setup_method(self):
        clear_compile_cache()

    @pytest.fixture
    def estimates(self, monkeypatch):
        from repro.analysis import resources

        calls = []
        real = resources.estimate_resources

        def counting(kernel, *args, **kwargs):
            calls.append(kernel.name)
            return real(kernel, *args, **kwargs)

        monkeypatch.setattr(resources, "estimate_resources", counting)
        return calls

    @staticmethod
    def launch(src, backend="megablock", **kwargs):
        return run_kernel(src, 4, 32, {"o": np.zeros(128, np.float32)},
                          backend=backend, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, fallback",
        [({}, None), ({"racecheck": True}, "sanitizer")],
        ids=["megablock", "fallback"],
    )
    def test_second_launch_reuses_report(self, estimates, kwargs, fallback):
        """Batched or fallen back to interp, a megablock launch reads the
        report off the cached lowering."""
        src = SHARED_SRC % 32
        first = self.launch(src, **kwargs)
        assert first.megablock_fallback == fallback
        assert len(estimates) == 1
        second = self.launch(src, **kwargs)
        assert len(estimates) == 1
        assert second.usage == first.usage

    def test_equal_source_shares_report(self, estimates):
        """The report is keyed by digest, like the closures: a separately
        parsed copy of the same source estimates nothing."""
        src = SHARED_SRC % 32
        k1, k2 = parse_kernel(src), parse_kernel(src)
        assert k1 is not k2
        assert (
            compile_megablock(k1).resources()
            is compile_megablock(k2).resources()
        )
        assert len(estimates) == 1

    def test_other_digest_gets_own_report(self, estimates):
        small = self.launch(SHARED_SRC % 32)
        big = self.launch(SHARED_SRC % 64)
        assert len(estimates) == 2
        assert small.usage.shared_bytes_per_block == 32 * 4
        assert big.usage.shared_bytes_per_block == 64 * 4
        for n in (32, 64):
            k = parse_kernel(SHARED_SRC % n)
            assert compile_megablock(k).resources() == estimate_resources(k)

    def test_interp_estimates_every_launch(self, estimates):
        src = SHARED_SRC % 32
        self.launch(src, "interp")
        self.launch(src, "interp")
        assert len(estimates) == 2

    def test_megablock_launch_digests_once(self, monkeypatch):
        """A launch prints and hashes its kernel once."""
        from repro.gpusim import compile as gpu_compile
        from repro.gpusim import megablock

        calls = []
        real = gpu_compile.kernel_digest

        def counting(kernel):
            calls.append(kernel.name)
            return real(kernel)

        monkeypatch.setattr(gpu_compile, "kernel_digest", counting)
        monkeypatch.setattr(megablock, "kernel_digest", counting)
        result = self.launch(SHARED_SRC % 32)
        assert result.megablock_fallback is None
        assert len(calls) == 1


NP_SRC = """
__global__ void saxpy(float* y, const float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    #pragma np parallel for reduction(+:acc)
    for (int j = 0; j < 8; j++) {
        acc += x[(i * 8 + j) % n] * a;
    }
    y[i] = acc;
}
"""


class TestVariantCompileCache:
    def setup_method(self):
        clear_variant_cache()

    def kernel(self):
        return parse_kernel(NP_SRC)

    def test_hit_on_same_config(self):
        cfg = NpConfig(slave_size=4, np_type="inter")
        v1 = compile_np(self.kernel(), 32, cfg)
        v2 = compile_np(self.kernel(), 32, cfg)
        stats = variant_cache_stats()
        assert stats.misses == 1 and stats.hits == 1
        assert v1.kernel is v2.kernel

    def test_config_change_misses(self):
        compile_np(self.kernel(), 32, NpConfig(slave_size=4, np_type="inter"))
        compile_np(self.kernel(), 32, NpConfig(slave_size=8, np_type="inter"))
        compile_np(
            self.kernel(), 32,
            NpConfig(slave_size=4, np_type="intra", use_shfl=True, padded=True),
        )
        stats = variant_cache_stats()
        assert stats.misses == 3 and stats.hits == 0

    def test_source_change_misses(self):
        cfg = NpConfig(slave_size=4, np_type="inter")
        compile_np(self.kernel(), 32, cfg)
        changed = parse_kernel(NP_SRC.replace("acc += ", "acc -= "))
        compile_np(changed, 32, cfg)
        assert variant_cache_stats().misses == 2

    def test_autotune_and_oracle_share_cache(self):
        """The tuner and the differential oracle hit the same variant cache."""
        from repro.npc.autotune import autotune
        from repro.testing.oracle import verify_transformations

        kernel = self.kernel()
        n = 64

        def make_args():
            return {
                "y": np.zeros(n, np.float32),
                "x": np.arange(n, dtype=np.float32),
                "a": 2.0,
                "n": n,
            }

        configs = [NpConfig(slave_size=4, np_type="inter")]
        autotune(kernel, 32, 2, make_args, configs=configs)
        seeded = variant_cache_stats()
        assert seeded.misses == 1
        verify_transformations(kernel, 32, 2, make_args, configs=configs)
        after = variant_cache_stats()
        assert after.misses == seeded.misses  # oracle reused the tuner's work
        assert after.hits > seeded.hits
