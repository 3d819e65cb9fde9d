"""SIMT interpreter tests: semantics, divergence, barriers, statistics."""

import numpy as np
import pytest

from repro.gpusim.errors import IntrinsicError, SimError
from repro.gpusim.launch import run_kernel


def run(src, grid=1, block=32, **args):
    return run_kernel(src, grid, block, args)


class TestBasics:
    def test_thread_ids(self):
        res = run(
            "__global__ void t(int *o) {"
            " o[threadIdx.x + blockIdx.x * blockDim.x]"
            " = threadIdx.x + 100 * blockIdx.x; }",
            grid=2,
            o=np.zeros(64, np.int32),
        )
        out = res.buffer("o")
        assert out[5] == 5 and out[40] == 100 + 8

    def test_scalar_params_and_arith(self):
        res = run(
            "__global__ void t(float *o, int k, float s) {"
            " o[threadIdx.x] = (float)k * s + 0.5f; }",
            o=np.zeros(32, np.float32),
            k=3,
            s=2.0,
        )
        assert res.buffer("o")[0] == pytest.approx(6.5)

    def test_int_division_truncates_toward_zero(self):
        res = run(
            "__global__ void t(int *o) {"
            " int a = 7; int b = 2;"
            " o[0] = a / b; o[1] = (0 - a) / b; o[2] = a % b; }",
            o=np.zeros(4, np.int32),
        )
        out = res.buffer("o")
        assert out[0] == 3 and out[1] == -3 and out[2] == 1

    def test_float32_semantics(self):
        res = run(
            "__global__ void t(float *o) { o[0] = 1.0f / 3.0f; }",
            o=np.zeros(1, np.float32),
        )
        assert res.buffer("o")[0] == np.float32(1.0) / np.float32(3.0)

    def test_assignment_type_coercion(self):
        res = run(
            "__global__ void t(int *o) { int x = 0; x = 2.9f; o[0] = x; }",
            o=np.zeros(1, np.int32),
        )
        assert res.buffer("o")[0] == 2

    def test_undeclared_assignment_raises(self):
        with pytest.raises(SimError):
            run("__global__ void t(float *o) { zz = 1.f; o[0] = 0.f; }",
                o=np.zeros(1, np.float32))

    def test_pointer_arithmetic(self):
        res = run(
            "__global__ void t(float *a, float *o) {"
            " float *p = a + 4; o[threadIdx.x] = p[threadIdx.x]; }",
            a=np.arange(64, dtype=np.float32),
            o=np.zeros(32, np.float32),
        )
        assert res.buffer("o")[0] == 4.0

    def test_ternary_elementwise(self):
        res = run(
            "__global__ void t(int *o) {"
            " o[threadIdx.x] = threadIdx.x % 2 == 0 ? 1 : -1; }",
            o=np.zeros(32, np.int32),
        )
        assert res.buffer("o")[0] == 1 and res.buffer("o")[1] == -1


class TestControlFlow:
    def test_divergent_if(self):
        res = run(
            "__global__ void t(int *o) {"
            " if (threadIdx.x < 10) o[threadIdx.x] = 1;"
            " else o[threadIdx.x] = 2; }",
            o=np.zeros(32, np.int32),
        )
        out = res.buffer("o")
        assert out[9] == 1 and out[10] == 2
        assert res.stats.divergent_branches >= 1

    def test_uniform_branch_not_divergent(self):
        res = run(
            "__global__ void t(int *o, int k) {"
            " if (k > 0) o[threadIdx.x] = 1; else o[threadIdx.x] = 2; }",
            o=np.zeros(32, np.int32),
            k=5,
        )
        assert res.stats.divergent_branches == 0

    def test_per_lane_loop_bounds(self):
        res = run(
            "__global__ void t(int *o) {"
            " int s = 0;"
            " for (int i = 0; i < threadIdx.x; i++) s += 1;"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )
        assert np.array_equal(res.buffer("o"), np.arange(32, dtype=np.int32))

    def test_early_return_per_lane(self):
        res = run(
            "__global__ void t(int *o, int n) {"
            " int i = threadIdx.x;"
            " if (i >= n) return;"
            " o[i] = 7; }",
            o=np.zeros(32, np.int32),
            n=10,
        )
        out = res.buffer("o")
        assert out[9] == 7 and out[10] == 0

    def test_break_per_lane(self):
        res = run(
            "__global__ void t(int *o) {"
            " int s = 0;"
            " for (int i = 0; i < 100; i++) {"
            "   if (i == threadIdx.x) break;"
            "   s += 1; }"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )
        assert np.array_equal(res.buffer("o"), np.arange(32, dtype=np.int32))

    def test_continue_per_lane(self):
        res = run(
            "__global__ void t(int *o) {"
            " int s = 0;"
            " for (int i = 0; i < 10; i++) {"
            "   if (i % 2 == threadIdx.x % 2) continue;"
            "   s += 1; }"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )
        assert np.all(res.buffer("o") == 5)

    def test_while_loop(self):
        res = run(
            "__global__ void t(int *o) {"
            " int i = 0; int s = 0;"
            " while (i < threadIdx.x) { s += i; i++; }"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )
        expected = np.array([sum(range(t)) for t in range(32)], np.int32)
        assert np.array_equal(res.buffer("o"), expected)

    def test_nested_loops(self):
        res = run(
            "__global__ void t(int *o) {"
            " int s = 0;"
            " for (int i = 0; i < 4; i++)"
            "   for (int j = 0; j <= i; j++) s += 1;"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )
        assert np.all(res.buffer("o") == 10)

    def test_loop_imbalance_costs_issue_cycles(self):
        balanced = run(
            "__global__ void t(int *o) {"
            " int s = 0; for (int i = 0; i < 16; i++) s += i;"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )
        imbalanced = run(
            "__global__ void t(int *o) {"
            " int s = 0; for (int i = 0; i < (threadIdx.x % 2) * 16 + 16; i++) s += i;"
            " o[threadIdx.x] = s; }",
            o=np.zeros(32, np.int32),
        )
        # SIMD execution: the warp pays for the longest lane
        assert imbalanced.stats.alu_insts > 1.5 * balanced.stats.alu_insts


class TestMemorySpaces:
    def test_shared_memory_and_sync(self):
        res = run(
            "__global__ void t(float *o) {"
            " __shared__ float tile[32];"
            " tile[threadIdx.x] = (float)threadIdx.x;"
            " __syncthreads();"
            " o[threadIdx.x] = tile[31 - threadIdx.x]; }",
            o=np.zeros(32, np.float32),
        )
        assert np.array_equal(
            res.buffer("o"), np.arange(31, -1, -1, dtype=np.float32)
        )
        assert res.stats.syncthreads >= 1

    def test_cross_warp_sync(self):
        """Warp 1 writes, warp 0 reads after the barrier."""
        res = run(
            "__global__ void t(float *o) {"
            " __shared__ float tile[64];"
            " tile[threadIdx.x] = (float)threadIdx.x;"
            " __syncthreads();"
            " o[threadIdx.x] = tile[63 - threadIdx.x]; }",
            block=64,
            o=np.zeros(64, np.float32),
        )
        assert res.buffer("o")[0] == 63.0

    def test_local_array_private(self):
        res = run(
            "__global__ void t(float *o) {"
            " float g[4];"
            " for (int i = 0; i < 4; i++) g[i] = (float)(threadIdx.x + i);"
            " o[threadIdx.x] = g[3]; }",
            o=np.zeros(32, np.float32),
        )
        assert res.buffer("o")[5] == 8.0
        assert res.stats.local_load_insts > 0
        assert res.stats.local_store_insts > 0

    def test_constant_array(self):
        res = run_kernel(
            "__global__ void t(int *o) { o[threadIdx.x] = lut[threadIdx.x % 4]; }",
            1,
            32,
            {"o": np.zeros(32, np.int32)},
            const_arrays={"lut": np.array([10, 20, 30, 40], np.int32)},
        )
        assert res.buffer("o")[1] == 20
        assert res.stats.const_load_insts == 1

    def test_tex1dfetch(self):
        res = run_kernel(
            "__global__ void t(float *o) {"
            " o[threadIdx.x] = tex1Dfetch(tex, threadIdx.x); }",
            1,
            32,
            {"o": np.zeros(32, np.float32)},
            const_arrays={"tex": np.arange(32, dtype=np.float32)},
        )
        assert res.buffer("o")[7] == 7.0

    def test_unbound_texture_raises(self):
        with pytest.raises(IntrinsicError):
            run(
                "__global__ void t(float *o) { o[0] = tex1Dfetch(nope, 0); }",
                o=np.zeros(1, np.float32),
            )


class TestIntrinsicsInKernels:
    def test_shfl_broadcast(self):
        res = run(
            "__global__ void t(float *o) {"
            " float v = (float)threadIdx.x;"
            " v = __shfl(v, 0, 8);"
            " o[threadIdx.x] = v; }",
            o=np.zeros(32, np.float32),
        )
        assert np.array_equal(
            res.buffer("o"),
            np.repeat(np.arange(0, 32, 8), 8).astype(np.float32),
        )
        assert res.stats.shfl_insts == 1

    def test_atomic_add_global(self):
        res = run(
            "__global__ void t(int *c) { atomicAdd(c[threadIdx.x % 4], 1); }",
            grid=2,
            c=np.zeros(4, np.int32),
        )
        assert np.all(res.buffer("c") == 16)

    def test_atomic_add_shared(self):
        res = run(
            "__global__ void t(int *o) {"
            " __shared__ int c[1];"
            " if (threadIdx.x == 0) c[0] = 0;"
            " __syncthreads();"
            " atomicAdd(c[0], 1);"
            " __syncthreads();"
            " o[threadIdx.x] = c[0]; }",
            o=np.zeros(32, np.int32),
        )
        assert np.all(res.buffer("o") == 32)

    def test_math_in_kernel(self):
        res = run(
            "__global__ void t(float *o) {"
            " o[threadIdx.x] = fminf(sqrtf(16.f), fabsf(0.f - 3.f)); }",
            o=np.zeros(32, np.float32),
        )
        assert res.buffer("o")[0] == 3.0

    def test_unknown_function_raises(self):
        with pytest.raises(IntrinsicError):
            run("__global__ void t(float *o) { o[0] = frobnicate(1.f); }",
                o=np.zeros(1, np.float32))


class TestStats:
    def test_coalesced_vs_strided_transactions(self):
        coalesced = run(
            "__global__ void t(float *a, float *o) {"
            " o[threadIdx.x] = a[threadIdx.x]; }",
            a=np.zeros(32, np.float32),
            o=np.zeros(32, np.float32),
        )
        strided = run(
            "__global__ void t(float *a, float *o) {"
            " o[threadIdx.x] = a[threadIdx.x * 32]; }",
            a=np.zeros(1024, np.float32),
            o=np.zeros(32, np.float32),
        )
        assert coalesced.stats.global_transactions < strided.stats.global_transactions
        assert strided.stats.uncoalesced_accesses > 0

    def test_partial_last_warp_masked(self):
        res = run(
            "__global__ void t(int *o) { o[threadIdx.x] = 1; }",
            block=40,  # 2 warps, second half-empty
            o=np.zeros(40, np.int32),
        )
        assert res.stats.warps_executed == 2
        assert res.buffer("o").sum() == 40
