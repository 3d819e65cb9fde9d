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


# -- sharded search ----------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not __import__("repro.gpusim.pool", fromlist=["available"]).available(),
    reason="needs POSIX fork",
)


@needs_fork
class TestShardedAutotune:
    def _bench(self):
        return TmvBenchmark(width=128, height=128, block=32)

    def _configs(self):
        return [
            NpConfig(slave_size=2, np_type="inter"),
            NpConfig(slave_size=4, np_type="inter"),
            NpConfig(slave_size=4, np_type="intra", use_shfl=True, padded=True),
            NpConfig(slave_size=8, np_type="intra", use_shfl=True, padded=True),
        ]

    def test_parallel_matches_sequential(self):
        """The acceptance gate: sharding changes wall-clock, nothing else."""
        bench = self._bench()
        seq = bench.autotune(configs=self._configs())
        par = bench.autotune(configs=self._configs(), parallel=2)
        assert par.resilience is not None  # the pool really ran
        assert par.resilience.degraded is None
        assert [p.label for p in par.points] == [p.label for p in seq.points]
        for a, b in zip(seq.points, par.points):
            assert a.ok == b.ok
            assert a.error == b.error
            assert a.output_ok == b.output_ok
            if a.ok:
                assert a.seconds == b.seconds  # modeled clock: bit-identical
        assert par.best.label == seq.best.label
        assert par.best_speedup == seq.best_speedup

    def test_parallel_buffers_match_sequential(self):
        """Rebuilt shard results carry the same final buffer bytes."""
        bench = self._bench()
        seq = bench.autotune(configs=self._configs()[:2])
        par = bench.autotune(configs=self._configs()[:2], parallel=2)
        for a, b in zip(seq.points, par.points):
            for name, buf in a.result.gmem.buffers().items():
                np.testing.assert_array_equal(
                    buf.data, b.result.gmem.buffers()[name].data
                )

    def test_crashed_shard_disqualified_not_wrong(self):
        """A worker crashing past the retry budget costs one point, never
        the search — and never a wrong answer."""
        from repro.gpusim.faults import FaultInjector, FaultSpec
        from repro.gpusim.resilience import ResilienceConfig

        bench = self._bench()
        inj = FaultInjector([FaultSpec(kind="worker_crash", block=1, count=10)])
        assert inj.worker_only()
        rep = bench.autotune(
            configs=self._configs(),
            parallel=2,
            faults=inj,
            resilience=ResilienceConfig(max_retries=1),
        )
        assert len(rep.points) == 4
        dead = [p for p in rep.points if not p.ok]
        assert len(dead) == 1
        assert "worker shard failed" in dead[0].error
        # The other three shards are untouched and the best is among them.
        seq = bench.autotune(configs=self._configs())
        assert rep.best.seconds == min(
            p.seconds for p in seq.points if p.label != dead[0].label
        )

    def test_sequential_env_never_shards(self, monkeypatch):
        """Only an explicit parallel= arg shards; the pool's env knobs
        never do."""
        monkeypatch.setenv("GPUSIM_MAX_RETRIES", "4")
        rep = self._bench().autotune(configs=self._configs()[:2])
        assert rep.resilience is None


class TestOutcomeReuse:
    def test_warm_reuse_restores_points(self, tmp_path, monkeypatch):
        from repro.gpusim import diskcache

        monkeypatch.delenv("GPUSIM_CACHE_DIR", raising=False)
        diskcache.reset_configuration()
        diskcache.configure(tmp_path)
        try:
            bench = TmvBenchmark(width=128, height=128, block=32)
            configs = [
                NpConfig(slave_size=4, np_type="inter"),
                NpConfig(slave_size=8, np_type="inter"),
            ]
            cold = bench.autotune(configs=configs)
            assert diskcache.disk_cache_stats("autotune").stores == 1
            warm = bench.autotune(configs=configs, reuse=True)
            assert warm.from_cache
            assert warm.best.label == cold.best.label
            assert warm.best.seconds == cold.best.seconds
            assert warm.best_speedup == cold.best_speedup
            for a, b in zip(cold.points, warm.points):
                assert b.result is None and b.cached_seconds == a.seconds
        finally:
            diskcache.reset_configuration()

    def test_reuse_without_cache_measures(self, monkeypatch):
        from repro.gpusim import diskcache

        monkeypatch.delenv("GPUSIM_CACHE_DIR", raising=False)
        diskcache.reset_configuration()
        bench = TmvBenchmark(width=128, height=128, block=32)
        rep = bench.autotune(
            configs=[NpConfig(slave_size=4, np_type="inter")], reuse=True
        )
        assert not rep.from_cache
        assert rep.points[0].result is not None
