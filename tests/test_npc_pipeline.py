"""CUDA-NP pipeline tests: structure of transformed kernels + enumeration."""

import numpy as np
import pytest

from repro.gpusim.device import FERMI, GTX680
from repro.minicuda.errors import TransformError
from repro.minicuda.nodes import Call, For, If, walk
from repro.minicuda.parser import parse_kernel
from repro.minicuda.pretty import emit_kernel
from repro.npc.config import NpConfig
from repro.npc.pipeline import compile_np, enumerate_configs, pragma_constraints

TMV = """
__global__ void tmv(float *a, float *b, float *c, int w, int h) {
    float sum = 0;
    int tx = threadIdx.x + blockIdx.x * blockDim.x;
    #pragma np parallel for reduction(+:sum)
    for (int i = 0; i < h; i++)
        sum += a[i*w+tx] * b[i];
    c[tx] = sum;
}
"""


class TestStructure:
    def test_block_dims(self):
        inter = compile_np(TMV, 64, NpConfig(slave_size=8, np_type="inter"))
        intra = compile_np(TMV, 64, NpConfig(slave_size=8, np_type="intra", padded=True))
        assert inter.block == (64, 8)
        assert intra.block == (8, 64)
        assert inter.threads_per_block == 512

    def test_const_env(self):
        v = compile_np(TMV, 64, NpConfig(slave_size=4))
        assert v.kernel.const_env["master_size"] == 64
        assert v.kernel.const_env["slave_size"] == 4

    def test_master_guard_emitted(self):
        v = compile_np(TMV, 64, NpConfig(slave_size=8))
        out = emit_kernel(v.kernel)
        assert "if (slave_id == 0)" in out
        assert "master_id" in out

    def test_no_threadidx_x_left_in_inter(self):
        v = compile_np(TMV, 64, NpConfig(slave_size=8, np_type="inter"))
        out = emit_kernel(v.kernel)
        # threadIdx.x only in the prelude (master_id definition)
        assert out.count("threadIdx.x") == 1

    def test_intra_warp_shfl_used(self):
        v = compile_np(TMV, 64, NpConfig(slave_size=8, np_type="intra", use_shfl=True, padded=True))
        calls = {n.func for n in walk(v.kernel.body) if isinstance(n, Call)}
        assert "__shfl_down" in calls or "__shfl" in calls

    def test_inter_warp_uses_shared_reduction(self):
        v = compile_np(TMV, 64, NpConfig(slave_size=8, np_type="inter"))
        out = emit_kernel(v.kernel)
        assert "__np_comm_f" in out
        assert "__syncthreads()" in out

    def test_kernel_renamed(self):
        v = compile_np(TMV, 64, NpConfig(slave_size=4))
        assert v.kernel.name == "tmv_np"

    def test_notes_describe_transformations(self):
        v = compile_np(TMV, 64, NpConfig(slave_size=4))
        assert any("reduction" in n for n in v.notes)
        assert any("distribution" in n for n in v.notes)


class TestValidation:
    def test_block_limit(self):
        with pytest.raises(TransformError, match="threads per block"):
            compile_np(TMV, 256, NpConfig(slave_size=8))

    def test_no_pragma_rejected(self):
        src = "__global__ void t(float *a) { a[0] = 0.f; }"
        with pytest.raises(TransformError, match="no '#pragma np"):
            compile_np(src, 32, NpConfig(slave_size=4))

    def test_shfl_needs_sm30(self):
        with pytest.raises(TransformError, match="sm_version"):
            compile_np(
                TMV,
                64,
                NpConfig(slave_size=4, np_type="intra", use_shfl=True, sm_version=20),
            )

    def test_reserved_name_collision(self):
        src = (
            "__global__ void t(float *a, int slave_id) {\n"
            "#pragma np parallel for\n"
            "for (int i = 0; i < 4; i++) a[i] = 0.f;\n}"
        )
        with pytest.raises(TransformError, match="reserved"):
            compile_np(src, 32, NpConfig(slave_size=4))

    def test_non_invariant_branch_rejected(self):
        src = (
            "__global__ void t(float *a, int w) {\n"
            "float x = a[threadIdx.x];\n"
            "if (x > 0.f) {\n"
            "#pragma np parallel for\n"
            "for (int i = 0; i < 4; i++) a[i] = 0.f;\n}\n}"
        )
        with pytest.raises(TransformError, match="slave-invariant"):
            compile_np(src, 32, NpConfig(slave_size=4))


class TestEnumeration:
    def test_default_space(self):
        configs = enumerate_configs(TMV, 64)
        descs = {c.describe() for c in configs}
        assert any(c.np_type == "inter" for c in configs)
        assert any(c.np_type == "intra" for c in configs)
        # 64 * 32 = 2048 > 1024: S=32 excluded
        assert all(c.slave_size * 64 <= 1024 for c in configs)

    def test_num_threads_pins_size(self):
        src = TMV.replace("reduction(+:sum)", "reduction(+:sum) num_threads(4)")
        configs = enumerate_configs(src, 64)
        assert {c.slave_size for c in configs} == {4}

    def test_np_type_pins_type(self):
        src = TMV.replace("reduction(+:sum)", "reduction(+:sum) np_type(intra)")
        configs = enumerate_configs(src, 64)
        assert {c.np_type for c in configs} == {"intra"}

    def test_sm_version_disables_shfl(self):
        src = TMV.replace("reduction(+:sum)", "reduction(+:sum) sm_version(20)")
        configs = enumerate_configs(src, 64)
        assert all(not c.use_shfl for c in configs)

    def test_fermi_device_disables_shfl(self):
        configs = enumerate_configs(TMV, 64, device=FERMI)
        assert all(not c.shfl_available for c in configs)

    def test_pragma_constraints(self):
        src = TMV.replace(
            "reduction(+:sum)", "reduction(+:sum) num_threads(8) np_type(inter)"
        )
        constraints = pragma_constraints(src)
        assert constraints == {"num_threads": 8, "np_type": "inter"}

    def test_intra_requires_pow2(self):
        configs = enumerate_configs(TMV, 64, slave_sizes=(3, 5, 8))
        intra = [c for c in configs if c.np_type == "intra"]
        assert {c.slave_size for c in intra} == {8}
        inter = [c for c in configs if c.np_type == "inter"]
        assert {c.slave_size for c in inter} == {3, 5, 8}


class TestConfigValidation:
    def test_slave_size_minimum(self):
        with pytest.raises(ValueError):
            NpConfig(slave_size=1)

    def test_intra_pow2_enforced(self):
        with pytest.raises(ValueError):
            NpConfig(slave_size=6, np_type="intra")

    def test_bad_placement(self):
        with pytest.raises(ValueError):
            NpConfig(slave_size=4, local_placement="stack")

    def test_describe(self):
        c = NpConfig(slave_size=8, np_type="intra", use_shfl=False, padded=True)
        assert "intra" in c.describe() and "S=8" in c.describe()


class TestVariantCacheLRU:
    """Eviction and recency behavior of the in-memory variant cache."""

    def setup_method(self):
        from repro.npc import pipeline

        pipeline.clear_variant_cache()

    def _compile(self, slave_size):
        return compile_np(
            parse_kernel(TMV), 32, NpConfig(slave_size=slave_size, np_type="inter")
        )

    def test_capacity_evicts_oldest_first(self, monkeypatch):
        from repro.npc import pipeline

        monkeypatch.setattr(pipeline, "_VARIANT_CACHE_CAPACITY", 2)
        self._compile(2)
        self._compile(3)
        self._compile(4)  # evicts slave_size=2, the oldest
        assert len(pipeline._VARIANT_CACHE) == 2
        kept = [key[2].slave_size for key in pipeline._VARIANT_CACHE]
        assert kept == [3, 4]
        # Recompiling the evicted config is a miss; the survivors hit.
        before = pipeline.variant_cache_stats()
        self._compile(3)
        self._compile(2)
        after = pipeline.variant_cache_stats()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses + 1

    def test_hit_refreshes_recency(self, monkeypatch):
        from repro.npc import pipeline

        monkeypatch.setattr(pipeline, "_VARIANT_CACHE_CAPACITY", 2)
        self._compile(2)
        self._compile(3)
        self._compile(2)  # hit: moves slave_size=2 to the MRU end
        self._compile(4)  # evicts slave_size=3, now the oldest
        kept = [key[2].slave_size for key in pipeline._VARIANT_CACHE]
        assert kept == [2, 4]

    def test_key_sensitive_to_block_shape(self):
        from repro.npc import pipeline

        cfg = NpConfig(slave_size=4, np_type="inter")
        compile_np(parse_kernel(TMV), 32, cfg)
        compile_np(parse_kernel(TMV), 64, cfg)
        assert pipeline.variant_cache_stats().misses == 2

    def test_key_sensitive_to_device(self):
        from repro.npc import pipeline

        cfg = NpConfig(slave_size=4, np_type="inter")
        compile_np(parse_kernel(TMV), 32, cfg, device=GTX680)
        compile_np(parse_kernel(TMV), 32, cfg, device=FERMI)
        assert pipeline.variant_cache_stats().misses == 2

    def test_key_sensitive_to_options(self):
        from repro.npc import pipeline

        cfg = NpConfig(slave_size=4, np_type="inter")
        compile_np(parse_kernel(TMV), 32, cfg, recombine_unrolled=False)
        compile_np(parse_kernel(TMV), 32, cfg, recombine_unrolled=True)
        assert pipeline.variant_cache_stats().misses == 2
        # Each repeated lookup hits its own entry.
        compile_np(parse_kernel(TMV), 32, cfg, recombine_unrolled=True)
        assert pipeline.variant_cache_stats().hits == 1


def _variant_probe_in_child(src):
    """Forked worker: compile an already-cached variant; report counters."""
    import os as _os

    from repro.npc.pipeline import variant_cache_stats

    compile_np(parse_kernel(src), 32, NpConfig(slave_size=4, np_type="inter"))
    stats = variant_cache_stats()
    return stats.hits, stats.misses, stats.pid, _os.getpid()


class TestVariantCacheForkAccounting:
    """Forked workers inherit variant-cache *contents*, not its history."""

    def setup_method(self):
        from repro.npc import pipeline

        pipeline.clear_variant_cache()

    def test_parent_stats_carry_pid(self):
        import os

        from repro.npc.pipeline import variant_cache_stats

        compile_np(parse_kernel(TMV), 32, NpConfig(slave_size=4, np_type="inter"))
        assert variant_cache_stats().pid == os.getpid()

    @pytest.mark.needs_fork
    def test_forked_child_counters_restart(self):
        import multiprocessing
        import os

        from repro.npc.pipeline import variant_cache_stats

        cfg = NpConfig(slave_size=4, np_type="inter")
        compile_np(parse_kernel(TMV), 32, cfg)
        compile_np(parse_kernel(TMV), 32, cfg)
        parent = variant_cache_stats()
        assert (parent.hits, parent.misses) == (1, 1)

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            hits, misses, stats_pid, child_pid = pool.apply(
                _variant_probe_in_child, (TMV,)
            )
        # The child's lookup hit the inherited entry — and that is the only
        # event its counters report.
        assert (hits, misses) == (1, 0)
        assert stats_pid == child_pid != os.getpid()
        # Parent counters untouched by the child's activity.
        after = variant_cache_stats()
        assert (after.hits, after.misses) == (parent.hits, parent.misses)
        assert after.pid == os.getpid()
