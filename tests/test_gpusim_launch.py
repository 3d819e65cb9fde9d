"""Launch API tests: argument binding, grids, sampling, validation."""

import numpy as np
import pytest

from repro.gpusim.device import GTX680
from repro.gpusim.errors import LaunchError
from repro.gpusim.launch import launch, run_kernel
from repro.minicuda.parser import parse_kernel

COPY = """
__global__ void copy(float *src, float *dst, int n) {
    int i = threadIdx.x + blockIdx.x * blockDim.x;
    if (i < n) dst[i] = src[i];
}
"""


class TestArgumentBinding:
    def test_missing_arg(self):
        with pytest.raises(LaunchError, match="missing"):
            run_kernel(COPY, 1, 32, {"src": np.zeros(32, np.float32), "n": 32})

    def test_unknown_arg(self):
        with pytest.raises(LaunchError, match="unknown"):
            run_kernel(
                COPY,
                1,
                32,
                {
                    "src": np.zeros(32, np.float32),
                    "dst": np.zeros(32, np.float32),
                    "n": 32,
                    "zzz": 1,
                },
            )

    def test_scalar_for_pointer_rejected(self):
        with pytest.raises(LaunchError, match="array"):
            run_kernel(COPY, 1, 32, {"src": 1.0, "dst": np.zeros(32, np.float32), "n": 32})

    def test_array_for_scalar_rejected(self):
        with pytest.raises(LaunchError, match="scalar"):
            run_kernel(
                COPY,
                1,
                32,
                {
                    "src": np.zeros(32, np.float32),
                    "dst": np.zeros(32, np.float32),
                    "n": np.zeros(1, np.int32),
                },
            )

    def test_dtype_conversion(self):
        res = run_kernel(
            COPY,
            1,
            32,
            {
                "src": np.arange(32, dtype=np.float64),  # converted to f32
                "dst": np.zeros(32, np.float32),
                "n": 32,
            },
        )
        assert res.buffer("dst")[31] == 31.0

    def test_block_too_large(self):
        with pytest.raises(LaunchError, match="threads"):
            run_kernel(
                COPY,
                1,
                2048,
                {
                    "src": np.zeros(2048, np.float32),
                    "dst": np.zeros(2048, np.float32),
                    "n": 2048,
                },
            )


class TestGrids:
    def test_multi_block_2d_grid(self):
        src = (
            "__global__ void t(int *o) {"
            " int i = threadIdx.x + (blockIdx.x + blockIdx.y * gridDim.x)"
            " * blockDim.x; o[i] = blockIdx.y; }"
        )
        res = run_kernel(src, (2, 2), 16, {"o": np.zeros(64, np.int32)})
        out = res.buffer("o")
        assert out[0] == 0 and out[63] == 1

    def test_3d_block(self):
        src = (
            "__global__ void t(int *o) {"
            " int i = threadIdx.x + threadIdx.y * blockDim.x"
            " + threadIdx.z * blockDim.x * blockDim.y;"
            " o[i] = threadIdx.z; }"
        )
        res = run_kernel(src, 1, (4, 2, 2), {"o": np.zeros(16, np.int32)})
        assert res.buffer("o")[15] == 1

    def test_total_warps(self):
        res = run_kernel(
            COPY,
            4,
            64,
            {
                "src": np.zeros(256, np.float32),
                "dst": np.zeros(256, np.float32),
                "n": 256,
            },
        )
        assert res.total_warps == 8
        assert res.total_blocks == 4


class TestSampling:
    def test_sampling_extrapolates_timing(self):
        args = {
            "src": np.zeros(4096, np.float32),
            "dst": np.zeros(4096, np.float32),
            "n": 4096,
        }
        full = run_kernel(COPY, 64, 64, dict(args))
        sampled = run_kernel(COPY, 64, 64, dict(args), sample_blocks=8)
        assert sampled.sampled_blocks == 8
        assert sampled.stats.blocks_executed == 8
        # Extrapolated total time within 25% of the full run.
        assert sampled.timing.seconds == pytest.approx(
            full.timing.seconds, rel=0.25
        )

    def test_sample_blocks_zero_is_a_launch_error(self):
        args = {
            "src": np.zeros(64, np.float32),
            "dst": np.zeros(64, np.float32),
            "n": 64,
        }
        with pytest.raises(LaunchError, match="sample_blocks"):
            run_kernel(COPY, 2, 32, dict(args), sample_blocks=0)
        with pytest.raises(LaunchError, match="sample_blocks"):
            run_kernel(COPY, 2, 32, dict(args), sample_blocks=-1)

    def test_sample_blocks_zero_contained_by_status_mode(self):
        """The guard behaves like any launch error: on_error="status"
        contains it in the result instead of raising."""
        args = {
            "src": np.zeros(64, np.float32),
            "dst": np.zeros(64, np.float32),
            "n": 64,
        }
        res = run_kernel(
            COPY, 2, 32, dict(args), sample_blocks=0, on_error="status"
        )
        assert res.error is not None
        assert "sample_blocks" in res.error.message

    def test_sampling_none_for_full_run(self):
        res = run_kernel(
            COPY,
            2,
            32,
            {
                "src": np.zeros(64, np.float32),
                "dst": np.zeros(64, np.float32),
                "n": 64,
            },
            sample_blocks=10,
        )
        assert res.sampled_blocks is None


SCALE = """
__global__ void scale(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = a[i] * 2.0f + (float)blockIdx.x;
}
"""


def scale_args():
    rng = np.random.default_rng(11)
    return {
        "out": np.zeros(256, np.float32),
        "a": rng.standard_normal(256).astype(np.float32),
        "n": 256,
    }


class TestBlockSampling:
    def test_sampled_ids_deduped_and_recorded(self):
        # 8 blocks sampled 5 ways: int(i * 8/5) = 0,1,3,4,6 — no duplicates
        # survive even when truncation collides.
        res = run_kernel(
            SCALE, 8, 32, scale_args(), backend="megablock", sample_blocks=5
        )
        ids = res.sampled_block_ids
        assert ids is not None
        assert list(ids) == sorted(set(ids))
        assert len(ids) == len(set(ids))
        assert res.sampled_blocks == len(ids)

    def test_truncation_collision_deduped(self):
        # 3 samples of 2 blocks: int(0*2/3)=0, int(1*2/3)=0, int(2*2/3)=1
        # — naive generation repeats block 0.
        res = run_kernel(
            SCALE, 2, 32, scale_args(), sample_blocks=3, backend="megablock"
        )
        assert res.sampled_block_ids is None or len(
            res.sampled_block_ids
        ) == len(set(res.sampled_block_ids))

    def test_full_grid_has_no_sampled_ids(self):
        res = run_kernel(SCALE, 8, 32, scale_args(), backend="megablock")
        assert res.sampled_block_ids is None


class TestUsageOverride:
    def test_estimated_usage_includes_shared_decls(self):
        src = (
            "__global__ void t(float *o) {"
            " __shared__ float tile[1024];"
            " tile[threadIdx.x] = 0.f; __syncthreads();"
            " o[threadIdx.x] = tile[threadIdx.x]; }"
        )
        res = run_kernel(src, 1, 32, {"o": np.zeros(32, np.float32)})
        assert res.usage.shared_bytes_per_block >= 4096
