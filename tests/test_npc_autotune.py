"""Auto-tuner tests (§4)."""

import numpy as np
import pytest

from repro.kernels.tmv import TmvBenchmark
from repro.npc.autotune import autotune, launch_variant
from repro.npc.config import NpConfig
from repro.npc.pipeline import compile_np

TMV = TmvBenchmark.__module__  # silence unused warnings


@pytest.fixture(scope="module")
def report():
    bench = TmvBenchmark(width=128, height=128, block=32)
    return bench.autotune(
        configs=[
            NpConfig(slave_size=4, np_type="inter"),
            NpConfig(slave_size=8, np_type="inter"),
            NpConfig(slave_size=4, np_type="intra", use_shfl=True, padded=True),
        ]
    )


def test_all_points_explored(report):
    assert len(report.points) == 3
    assert all(p.result is not None for p in report.points)


def test_all_points_functionally_valid(report):
    assert all(p.output_ok for p in report.points)


def test_best_is_fastest_valid(report):
    best = report.best
    assert best.seconds == min(p.seconds for p in report.valid_points)


def test_best_speedup_positive(report):
    assert report.best_speedup > 1.0


def test_summary_rows_sorted(report):
    rows = report.summary_rows()
    times = [ms for _, ms, _ in rows]
    assert times == sorted(times)


def test_wrong_output_disqualified():
    """A check that rejects everything leaves no valid points."""
    bench = TmvBenchmark(width=128, height=128, block=32)
    rep = autotune(
        bench.kernel,
        bench.block_size,
        bench.grid,
        bench.make_args,
        configs=[NpConfig(slave_size=4, np_type="inter")],
        check_output=lambda res: res.kernel_name == "tmv",  # baseline only
    )
    assert rep.points[0].output_ok is False
    with pytest.raises(RuntimeError):
        _ = rep.best


def test_infeasible_config_recorded_as_error():
    bench = TmvBenchmark(width=128, height=128, block=32)
    rep = autotune(
        bench.kernel,
        bench.block_size,
        bench.grid,
        bench.make_args,
        configs=[NpConfig(slave_size=32, np_type="inter")] ,  # 32*32=1024 fine
    )
    assert rep.points[0].result is not None
    big = TmvBenchmark(width=256, height=64, block=256)
    rep2 = autotune(
        big.kernel,
        big.block_size,
        big.grid,
        big.make_args,
        configs=[NpConfig(slave_size=8, np_type="inter")],  # 256*8 > 1024
    )
    assert rep2.points[0].error is not None
    assert rep2.points[0].seconds == float("inf")


def test_launch_variant_auto_allocates_scratch():
    src = """
    __global__ void t(float *a, float *o) {
        int tid = threadIdx.x + blockIdx.x * blockDim.x;
        float g[40];
        #pragma np parallel for
        for (int i = 0; i < 40; i++)
            g[i % 5] = a[tid * 40 + i];
        float s = 0;
        #pragma np parallel for reduction(+:s)
        for (int i = 0; i < 40; i++)
            s += g[i % 5];
        o[tid] = s;
    }
    """
    variant = compile_np(src, 32, NpConfig(slave_size=4, local_placement="global"))
    assert variant.extra_buffers
    rng = np.random.default_rng(1)
    res = launch_variant(
        variant,
        2,
        dict(a=rng.standard_normal(64 * 40).astype(np.float32), o=np.zeros(64, np.float32)),
    )
    assert res.kernel_name.endswith("_np")
