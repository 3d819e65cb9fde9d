"""The differential transformation oracle: clean rewrites pass, broken ones fail.

Tier-1 runs the oracle over a small reduction kernel and one real paper
benchmark with a trimmed config list; the full sweep over every
benchmark's whole variant space is ``-m sanitizer`` (CI's sanitizer job,
~2 minutes).  Negative tests prove the harness can actually fail: a racy
baseline dirties the report, and a kernel the NPC compiler rejects shows
up as a compile-failure verdict.
"""

import numpy as np
import pytest

from repro.kernels import BENCHMARKS
from repro.npc.config import NpConfig
from repro.testing import (
    OracleReport,
    VariantVerdict,
    verify_benchmark,
    verify_transformations,
)

DOTS = """
__global__ void dots(float *a, float *b, float *out) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    float sum = 0.0f;
    #pragma np parallel for reduction(+:sum)
    for (int j = 0; j < 64; j++) {
        sum += a[i * 64 + j] * b[i * 64 + j];
    }
    out[i] = sum;
}
"""

RACY_BASELINE = """
__global__ void racy(float *out) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = t * 1.0f;
    #pragma np parallel for
    for (int j = 0; j < 4; j++) {
        out[t * 4 + j] = tile[63 - t];
    }
}
"""

SMALL_CONFIGS = [
    NpConfig(slave_size=4, np_type="inter"),
    NpConfig(slave_size=4, np_type="intra", use_shfl=True, padded=True),
]


def dots_args():
    rng = np.random.default_rng(3)
    n = 16
    return {
        "a": rng.uniform(-1, 1, n * 64).astype(np.float32),
        "b": rng.uniform(-1, 1, n * 64).astype(np.float32),
        "out": np.zeros(n, np.float32),
    }


class TestOracleOnCleanKernel:
    def test_reduction_kernel_all_variants_pass(self):
        report = verify_transformations(
            DOTS, 8, 2, dots_args, configs=SMALL_CONFIGS
        )
        assert report.ok
        assert not report.baseline_findings
        assert len(report.verdicts) == len(SMALL_CONFIGS)
        for v in report.verdicts:
            assert v.compiled and v.launch_ok and v.output_ok
            assert v.sanitizer_ok is True and not v.findings
            assert "ok" in v.describe()

    def test_default_configs_come_from_enumeration(self):
        report = verify_transformations(DOTS, 8, 2, dots_args)
        # 5 inter slave sizes + intra sizes from the shared enumeration.
        assert len(report.verdicts) >= 5
        assert report.ok

    def test_verify_np_pipeline_entry_point(self):
        """The compiler's verify mode (``python -m repro.npc --verify``)
        runs the oracle over the given configs."""
        report = verify_transformations(
            DOTS, 8, 2, dots_args, configs=SMALL_CONFIGS
        )
        assert isinstance(report, OracleReport)
        assert report.ok
        assert "0 failing" in report.summary()
        assert "baseline clean" in report.summary()

    def test_one_benchmark_trimmed(self):
        bench = BENCHMARKS["MC"]()
        report = verify_benchmark(bench, configs=SMALL_CONFIGS)
        assert report.ok, report.summary()


class TestOracleCanFail:
    def test_racy_baseline_dirties_the_report(self):
        def args():
            return {"out": np.zeros(256, np.float32)}

        report = verify_transformations(
            RACY_BASELINE, 64, 1, args, configs=SMALL_CONFIGS[:1]
        )
        assert report.baseline_findings
        assert not report.ok
        assert "DIRTY" in report.summary()

    def test_uncompilable_kernel_is_a_failing_verdict(self):
        no_pragma = """
        __global__ void plain(float *out) {
            out[threadIdx.x] = 1.0f;
        }
        """

        def args():
            return {"out": np.zeros(8, np.float32)}

        report = verify_transformations(
            no_pragma, 8, 1, args, configs=SMALL_CONFIGS[:1]
        )
        (verdict,) = report.verdicts
        assert not verdict.compiled and not verdict.ok
        assert "compile failed" in verdict.describe()
        assert not report.ok

    def test_verdict_ok_logic(self):
        v = VariantVerdict(label="x", config=None)
        assert not v.ok  # never launched
        v.launch_ok = True
        assert v.ok  # no comparison ran: benefit of the doubt
        v.sanitizer_ok = False
        assert not v.ok


@pytest.mark.sanitizer
class TestFullSweep:
    """The PR's acceptance bar: every paper benchmark, every NPC variant,
    bit-comparable outputs (per-benchmark tolerance) and zero findings."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_benchmark_variants_clean(self, name):
        bench = BENCHMARKS[name]()
        report = verify_benchmark(bench)
        assert report.ok, report.summary()
        assert not report.baseline_findings
        for v in report.verdicts:
            assert v.sanitizer_ok is True, v.describe()
