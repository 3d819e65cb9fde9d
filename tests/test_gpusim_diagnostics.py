"""Located diagnostics: every error path carries a FaultContext.

The hardened runtime's contract (DESIGN.md test strategy): every
simulator fault is *caught* (typed exception or status result), *located*
(kernel / block / thread / line / memory space), and *contained*
(``on_error="status"`` returns instead of unwinding).  These tests pin the
contract for naturally occurring faults; ``test_gpusim_faults`` covers the
injected ones.
"""

import numpy as np
import pytest

from repro.gpusim.diagnostics import FaultContext, FaultReport, render_report
from repro.gpusim.dynpar import DynParModel
from repro.gpusim.errors import (
    DynParError,
    IntrinsicError,
    LaunchError,
    MemoryFault,
    SimError,
    SyncError,
)
from repro.gpusim.launch import launch, run_kernel
from repro.minicuda.parser import parse_kernel

COPY = """
__global__ void copy(float *src, float *dst, int n) {
    int i = threadIdx.x + blockIdx.x * blockDim.x;
    if (i < n) dst[i] = src[i];
}
"""

OOB_GLOBAL = """
__global__ void oob(float *a, int n) {
    int i = threadIdx.x + blockIdx.x * blockDim.x;
    a[i + n] = 1.0f;
}
"""

OOB_SHARED = """
__global__ void soob(float *o) {
    __shared__ float tile[32];
    tile[threadIdx.x * 2] = 1.0f;
    o[threadIdx.x] = tile[threadIdx.x];
}
"""

PARTIAL_SYNC = """
__global__ void halfsync(float *o) {
    if (threadIdx.x < 16) {
        __syncthreads();
    }
    o[threadIdx.x] = 1.0f;
}
"""

SPLIT_SYNC = """
__global__ void splitsync(float *o) {
    if (threadIdx.x < 32) {
        __syncthreads();
    } else {
        __syncthreads();
    }
    o[threadIdx.x] = 1.0f;
}
"""

BAD_SHFL = """
__global__ void badshfl(float *o) {
    float v = threadIdx.x * 1.0f;
    float w = __shfl(v, 0, 5);
    o[threadIdx.x] = w;
}
"""


def copy_args(n=64):
    return {
        "src": np.arange(n, dtype=np.float32),
        "dst": np.zeros(n, np.float32),
        "n": n,
    }


class TestLaunchValidation:
    def test_four_dim_grid_rejected(self):
        with pytest.raises(LaunchError, match="at most 3-D"):
            run_kernel(COPY, (1, 1, 1, 1), 32, copy_args(32))

    def test_four_dim_block_rejected(self):
        with pytest.raises(LaunchError, match="at most 3-D"):
            run_kernel(COPY, 1, (8, 2, 2, 1), copy_args(32))

    def test_missing_arg_is_located(self):
        args = copy_args(32)
        del args["dst"]
        with pytest.raises(LaunchError, match="missing") as ei:
            run_kernel(COPY, 1, 32, args)
        assert ei.value.ctx is not None
        assert ei.value.ctx.kernel == "copy"

    def test_extra_arg_is_located(self):
        args = copy_args(32)
        args["zzz"] = 1
        with pytest.raises(LaunchError, match="unknown") as ei:
            run_kernel(COPY, 1, 32, args)
        assert ei.value.ctx.kernel == "copy"

    def test_scalar_for_pointer_is_located(self):
        args = copy_args(32)
        args["src"] = 3.0
        with pytest.raises(LaunchError, match="array") as ei:
            run_kernel(COPY, 1, 32, args)
        assert ei.value.ctx.kernel == "copy"

    def test_array_for_scalar_is_located(self):
        args = copy_args(32)
        args["n"] = np.zeros(1, np.int32)
        with pytest.raises(LaunchError, match="scalar") as ei:
            run_kernel(COPY, 1, 32, args)
        assert ei.value.ctx.kernel == "copy"

    def test_block_over_device_limit_is_located(self):
        with pytest.raises(LaunchError, match="limit") as ei:
            run_kernel(COPY, 1, 2048, copy_args(2048))
        ctx = ei.value.ctx
        assert ctx.kernel == "copy"
        assert ctx.block_dim == (2048, 1, 1)


class TestMemoryFaultLocation:
    def test_global_oob_context(self):
        with pytest.raises(MemoryFault, match="out of range") as ei:
            run_kernel(OOB_GLOBAL, 2, 32, {"a": np.zeros(64, np.float32), "n": 1})
        ctx = ei.value.ctx
        assert ctx.kernel == "oob"
        assert ctx.space == "global"
        assert ctx.buffer == "a"
        assert ctx.limit == 64
        assert ctx.index == 64
        # Only block 1 can go out of bounds (block 0 tops out at 32).
        assert ctx.block_idx == (1, 0, 0)
        assert ctx.thread_idx == (31, 0, 0)
        assert 31 in ctx.lanes
        assert ctx.line and ctx.line > 0
        assert not ctx.injected

    def test_shared_oob_context(self):
        with pytest.raises(MemoryFault, match="out of range") as ei:
            run_kernel(OOB_SHARED, 1, 32, {"o": np.zeros(32, np.float32)})
        ctx = ei.value.ctx
        assert ctx.space == "shared"
        assert ctx.buffer == "tile"
        assert ctx.limit == 32
        # Lanes 16..31 index past tile[31].
        assert set(ctx.lanes) == set(range(16, 32))

    def test_str_includes_location(self):
        with pytest.raises(MemoryFault) as ei:
            run_kernel(OOB_GLOBAL, 2, 32, {"a": np.zeros(64, np.float32), "n": 1})
        text = str(ei.value)
        assert "out of range" in text
        assert "kernel oob" in text
        assert "block (1, 0, 0)" in text


class TestSyncFaults:
    """Strict barriers are opt-in (``synccheck=True``), mirroring
    ``compute-sanitizer --tool synccheck``; the default tolerates divergent
    barriers the way pre-Volta hardware (and the paper's generated
    master/slave kernels) do."""

    def test_partial_block_sync_detected_with_synccheck(self):
        with pytest.raises(SyncError, match="part of the thread block") as ei:
            run_kernel(
                PARTIAL_SYNC, 1, 32, {"o": np.zeros(32, np.float32)},
                synccheck=True,
            )
        ctx = ei.value.ctx
        assert ctx.kernel == "halfsync"
        # Lanes 16..31 never reach the barrier inside the if.
        assert set(ctx.lanes) == set(range(16, 32))

    def test_partial_block_sync_tolerated_by_default(self):
        # Pre-Volta semantics: the warp's arrival counts for all its lanes.
        res = run_kernel(PARTIAL_SYNC, 1, 32, {"o": np.zeros(32, np.float32)})
        assert res.ok

    def test_cross_warp_barrier_mismatch_detected_with_synccheck(self):
        with pytest.raises(SyncError, match="different __syncthreads") as ei:
            run_kernel(
                SPLIT_SYNC, 1, 64, {"o": np.zeros(64, np.float32)},
                synccheck=True,
            )
        assert ei.value.ctx.kernel == "splitsync"

    def test_uniform_sync_is_legal_under_synccheck(self):
        src = (
            "__global__ void ok(float *o) {"
            " __shared__ float t[64];"
            " t[threadIdx.x] = 1.0f; __syncthreads();"
            " o[threadIdx.x] = t[63 - threadIdx.x]; }"
        )
        res = run_kernel(
            src, 1, 64, {"o": np.zeros(64, np.float32)}, synccheck=True
        )
        assert res.ok
        assert np.all(res.buffer("o") == 1.0)
        if res.backend == "megablock":
            # Only the interpreter implements the check.
            assert res.megablock_fallback == "sanitizer"

    @pytest.mark.parametrize("src, block", [(PARTIAL_SYNC, 32),
                                            (SPLIT_SYNC, 64)],
                             ids=["partial", "split"])
    def test_failing_synccheck_launch_never_batches(self, src, block):
        res = run_kernel(src, 1, block, {"o": np.zeros(block, np.float32)},
                         synccheck=True, on_error="status")
        assert not res.ok
        if res.backend == "megablock":
            assert res.megablock_fallback == "sanitizer"


class TestIntrinsicFaults:
    def test_bad_shfl_width_located(self):
        with pytest.raises(IntrinsicError, match="power of two") as ei:
            run_kernel(BAD_SHFL, 1, 32, {"o": np.zeros(32, np.float32)})
        assert ei.value.ctx.kernel == "badshfl"
        assert ei.value.ctx.line and ei.value.ctx.line > 0


class TestStatusMode:
    def test_status_contains_memory_fault(self):
        res = run_kernel(
            OOB_GLOBAL,
            2,
            32,
            {"a": np.zeros(64, np.float32), "n": 1},
            on_error="status",
        )
        assert not res.ok
        assert res.error is not None
        assert res.error.kind == "MemoryFault"
        assert res.error.ctx.space == "global"
        assert res.occupancy is None and res.timing is None and res.usage is None

    def test_status_render_is_sanitizer_style(self):
        res = run_kernel(
            OOB_GLOBAL,
            2,
            32,
            {"a": np.zeros(64, np.float32), "n": 1},
            on_error="status",
        )
        report = res.error.render()
        assert "GPUSIM SANITIZER" in report
        assert "Invalid global access" in report
        assert "ERROR SUMMARY: 1 error" in report
        assert render_report(res.error) == report

    def test_status_milliseconds_reraises(self):
        res = run_kernel(
            OOB_GLOBAL,
            2,
            32,
            {"a": np.zeros(64, np.float32), "n": 1},
            on_error="status",
        )
        with pytest.raises(SimError, match="out of range"):
            _ = res.milliseconds
        with pytest.raises(SimError):
            res.raise_if_failed()

    def test_status_buffer_unavailable_after_early_fault(self):
        # The block-size check fires before argument binding, so no buffer
        # was ever allocated; asking for one explains the failed launch.
        res = run_kernel(COPY, 1, 2048, copy_args(2048), on_error="status")
        assert not res.ok
        with pytest.raises(SimError, match="unavailable"):
            res.buffer("dst")

    def test_status_successful_launch_unaffected(self):
        res = run_kernel(COPY, 2, 32, copy_args(), on_error="status")
        assert res.ok and res.error is None
        res.raise_if_failed()  # no-op
        assert np.array_equal(res.buffer("dst"), np.arange(64, dtype=np.float32))

    def test_bad_on_error_value_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_kernel(COPY, 1, 32, copy_args(32), on_error="ignore")


class TestReportAndContext:
    def test_from_exception_without_context(self):
        rep = FaultReport.from_exception(ValueError("boom"), kernel="k")
        assert rep.kind == "ValueError"
        assert rep.ctx.kernel == "k"
        assert "boom" in rep.summary()

    def test_attach_first_context_wins(self):
        exc = SimError("x")
        first = FaultContext(kernel="a")
        exc.attach(first).attach(FaultContext(kernel="b"))
        assert exc.ctx is first

    def test_provenance_surfaces_in_render(self):
        kernel = parse_kernel(OOB_GLOBAL)
        kernel.provenance = "CUDA-NP variant of 'oob' (inter-warp S=8)"
        res = launch(
            kernel,
            2,
            32,
            {"a": np.zeros(64, np.float32), "n": 1},
            on_error="status",
        )
        assert res.error.ctx.provenance == kernel.provenance
        assert "kernel provenance" in res.error.render()


class TestDynParErrors:
    def test_dynpar_error_is_simerror_and_valueerror(self):
        assert issubclass(DynParError, SimError)
        assert issubclass(DynParError, ValueError)

    def test_memcopy_requires_launches(self):
        with pytest.raises(DynParError, match="at least one"):
            DynParModel().memcopy_time_s(1024, 0)

    def test_slowdown_rejects_failed_baseline(self):
        base = run_kernel(
            OOB_GLOBAL,
            2,
            32,
            {"a": np.zeros(64, np.float32), "n": 1},
            on_error="status",
        )
        with pytest.raises(DynParError, match="failed baseline"):
            DynParModel().slowdown_vs_baseline(base, 64)
