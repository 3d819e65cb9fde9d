"""Chaos suite for the worker pool's whole-launch tasks.

Workers are crashed, hung, and slowed *on purpose* while they run variant
launches through the autotuner's task runner
(``repro.npc.autotune:_run_tune_task``), and every task must still return
byte-identical buffers and exactly equal statistics to a direct in-process
launch — the supervised pool's retry/replace machinery is only correct if
failure handling is invisible in the output.  The suite also pins the
observable side: retry/crash/deadline counters must match the injected
schedule exactly, an exhausted task must cost exactly one result, the
circuit breaker must walk its state machine (closed → open → half-open) on
exactly the prescribed transitions, and no call may ever block past its
deadline.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.gpusim import pool as gpupool
from repro.gpusim.device import GTX680
from repro.gpusim.faults import FaultInjector, FaultSpec
from repro.gpusim.launch import LaunchResult, run_kernel
from repro.gpusim.pool import drain_pool, get_pool, shutdown_pool
from repro.gpusim.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    ResilienceTelemetry,
    get_breaker,
    jittered_backoff,
    reset_breaker,
)
from repro.gpusim.stream import Stream, default_stream, launch_async
from repro.kernels import BENCHMARKS, TmvBenchmark
from repro.minicuda.parser import parse_kernel
from repro.npc.config import NpConfig

needs_fork = pytest.mark.skipif(
    not gpupool.available(), reason="needs POSIX fork"
)

ALL_NAMES = list(BENCHMARKS)

#: Same scaled-down shapes as the backend differential suite.
SMALL = {
    "MC": dict(nvox=64),
    "LU": dict(matrix_dim=32),
    "LE": dict(positions=64, block=32),
    "MV": dict(width=64, height=64, block=32),
    "SS": dict(dim=64, points=32, block=32),
    "LIB": dict(npath=64, block=32),
    "CFD": dict(ncells=128, block=32),
    "BK": dict(elements=1024, block=32),
    "TMV": dict(width=64, height=64, block=32),
    "NN": dict(records=128, queries=64, block=32),
}

#: Short watchdog so injected hangs cost seconds, not minutes (every task
#: here finishes in well under 0.2 s, even on the interp engine).
FAST = ResilienceConfig(chunk_timeout=2.0)

#: The whole-launch task runner the sharded autotuner ships to workers.
RUNNER = "repro.npc.autotune:_run_tune_task"


@pytest.fixture(autouse=True)
def _isolated_breaker():
    """Injected worker faults must not trip the breaker for later tests."""
    reset_breaker()
    yield
    reset_breaker()


@pytest.fixture(scope="module")
def benches():
    return {name: cls(**SMALL[name]) for name, cls in BENCHMARKS.items()}


def assert_identical(ref: LaunchResult, out: dict, label):
    """A task's output equals a direct launch: buffer bytes and every
    KernelStats field."""
    ref_bufs = ref.gmem.buffers()
    assert ref_bufs.keys() == out["buffers"].keys()
    for name in ref_bufs:
        assert ref_bufs[name].data.tobytes() == out["buffers"][name].tobytes(), (
            f"{label}: buffer {name} not bit-identical"
        )
    for f in dataclasses.fields(ref.stats):
        assert getattr(ref.stats, f.name) == getattr(out["stats"], f.name), (
            f"{label}: stats field {f.name} diverged"
        )


def task(kernel, grid, block, args, const_arrays=None):
    """One ``_run_tune_task`` payload: a whole launch, all picklable."""
    return {
        "kernel": kernel,
        "grid": grid,
        "block": block,
        "args": args,
        "device": GTX680,
        "const_arrays": const_arrays,
        "sample_blocks": None,
        "backend": None,
        "profile": False,
    }


def bench_task(bench):
    return task(bench.kernel, bench.grid, bench.block_size, bench.make_args(),
                bench.const_arrays())


def run_pool(payloads, workers=2, config=FAST, injector=None):
    telemetry = ResilienceTelemetry()
    outs = get_pool().run_tasks(
        RUNNER, payloads, workers, config, telemetry, injector=injector
    )
    return outs, telemetry


SRC = """
__global__ void scale(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = a[i] * 2.0f + (float)blockIdx.x;
}
"""
N = 256


def make_args(seed=11):
    rng = np.random.default_rng(seed)
    return {
        "out": np.zeros(N, np.float32),
        "a": rng.standard_normal(N).astype(np.float32),
        "n": N,
    }


KERNEL = parse_kernel(SRC)


def launch(seed=11, **kwargs):
    return run_kernel(KERNEL, 8, 32, make_args(seed), **kwargs)


def scale_tasks(count):
    """``count`` distinct launches of the scale kernel (one seed each)."""
    return [task(KERNEL, 8, 32, make_args(seed)) for seed in range(count)]


def assert_scale_outputs(outs, label):
    assert len(outs) > 0
    for seed, out in enumerate(outs):
        assert_identical(launch(seed), out, f"{label}: task {seed}")


#: A two-config TMV search: the cheapest real sharded autotune.
TUNE_CONFIGS = [
    NpConfig(slave_size=2, np_type="inter"),
    NpConfig(slave_size=4, np_type="inter"),
]


def tune(**kwargs):
    bench = TmvBenchmark(width=64, height=64, block=32)
    return bench.autotune(configs=TUNE_CONFIGS, **kwargs)


def assert_same_points(seq, rep):
    assert [p.label for p in seq.points] == [p.label for p in rep.points]
    for a, b in zip(seq.points, rep.points):
        assert (a.ok, a.error, a.output_ok) == (b.ok, b.error, b.output_ok)
        assert a.seconds == b.seconds


class TestConfig:
    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_LAUNCH_TIMEOUT", "12.5")
        monkeypatch.setenv("GPUSIM_MAX_RETRIES", "5")
        monkeypatch.setenv("GPUSIM_BREAKER_THRESHOLD", "7")
        cfg = ResilienceConfig.from_env()
        assert cfg.chunk_timeout == 12.5
        assert cfg.max_retries == 5
        assert cfg.breaker_threshold == 7

    def test_env_defaults(self, monkeypatch):
        for knob in ("GPUSIM_LAUNCH_TIMEOUT", "GPUSIM_MAX_RETRIES",
                     "GPUSIM_BREAKER_THRESHOLD"):
            monkeypatch.delenv(knob, raising=False)
        cfg = ResilienceConfig.from_env()
        assert cfg.chunk_timeout == 60.0
        assert cfg.max_retries == 2
        assert cfg.breaker_threshold == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(breaker_threshold=0)
        for deadline in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="GPUSIM_LAUNCH_TIMEOUT"):
                ResilienceConfig(chunk_timeout=deadline)

    def test_effective_chunk_timeout(self):
        assert ResilienceConfig().chunk_timeout == 60.0
        assert ResilienceConfig(chunk_timeout=1.0).chunk_timeout == 1.0

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_non_positive_env_deadline_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("GPUSIM_LAUNCH_TIMEOUT", raw)
        with pytest.raises(ValueError, match="GPUSIM_LAUNCH_TIMEOUT"):
            ResilienceConfig.from_env()

    @needs_fork
    def test_non_positive_env_deadline_fails_sharded_autotune(self, monkeypatch):
        """A non-positive deadline fails loudly instead of SIGKILLing every
        worker at dispatch, disqualifying every point and tripping the
        breaker."""
        monkeypatch.setenv("GPUSIM_LAUNCH_TIMEOUT", "-1")
        with pytest.raises(ValueError, match="GPUSIM_LAUNCH_TIMEOUT"):
            tune(parallel=2)
        assert get_breaker().state == "closed"

    def test_backoff_deterministic_and_bounded(self):
        import random

        a = [jittered_backoff(i, random.Random(3)) for i in range(6)]
        b = [jittered_backoff(i, random.Random(3)) for i in range(6)]
        assert a == b
        for attempt, delay in enumerate(a):
            cap = min(0.25, 0.01 * 2 ** attempt)
            assert 0.5 * cap <= delay <= cap


@needs_fork
class TestChaosBitIdentity:
    """Every paper benchmark, under every worker-fault kind: each recovered
    task must be byte-identical to the direct launch."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize(
        "kind", ["worker_crash", "worker_hang", "worker_slow"]
    )
    def test_bit_identical_under_fault(self, benches, name, kind):
        bench = benches[name]
        direct = bench.run_baseline()
        inj = FaultInjector([FaultSpec(kind=kind, count=1, delay=0.05)])
        outs, t = run_pool([bench_task(bench), bench_task(bench)], injector=inj)
        for i, out in enumerate(outs):
            assert_identical(direct, out, f"{name} task {i} under {kind}")
        # Recovered in place: the schedule says exactly what happened.
        if kind == "worker_crash":
            assert t.worker_crashes == 1 and t.retries == 1
        elif kind == "worker_hang":
            assert t.deadline_kills == 1 and t.retries == 1
        else:
            assert t.worker_faults == 0 and t.retries == 0
        assert t.attempts == t.chunks + t.retries
        assert t.degraded is None


@needs_fork
class TestRetrySchedule:
    def test_counters_match_injected_schedule(self):
        inj = FaultInjector([FaultSpec(kind="worker_crash", count=2)])
        outs, t = run_pool(scale_tasks(4), injector=inj)
        assert t.worker_crashes == 2
        assert t.retries == 2
        assert t.respawns == 2
        assert t.attempts == t.chunks + 2
        kinds = [e.kind for e in t.events]
        assert kinds.count("inject-worker_crash") == 2
        assert kinds.count("worker-crash") == 2
        assert kinds.count("retry") == 2
        assert kinds.count("worker-spawn") >= 2  # replacements
        assert_scale_outputs(outs, "crash x2")

    def test_retries_exhausted_disqualifies_one_task(self):
        # Task 0 crashes on every dispatch: the initial try plus
        # max_retries=1 retry, then it yields None — and only it.
        inj = FaultInjector([FaultSpec(kind="worker_crash", block=0, count=3)])
        cfg = dataclasses.replace(FAST, max_retries=1)
        outs, t = run_pool(scale_tasks(3), config=cfg, injector=inj)
        assert outs[0] is None
        for seed in (1, 2):
            assert_identical(launch(seed), outs[seed], f"survivor {seed}")
        assert t.worker_crashes == 2  # initial + one retry
        assert t.retries == 1
        assert t.degraded is None  # the call itself did not collapse
        kinds = [e.kind for e in t.events]
        assert kinds.count("retries-exhausted") == 1

    def test_slow_worker_not_killed(self):
        inj = FaultInjector([FaultSpec(kind="worker_slow", count=1, delay=0.3)])
        outs, t = run_pool(scale_tasks(2), injector=inj)
        assert t.deadline_kills == 0 and t.worker_crashes == 0
        assert_scale_outputs(outs, "slow straggler")


@needs_fork
class TestDeadlines:
    def test_hung_worker_killed_and_chunk_retried(self):
        inj = FaultInjector([FaultSpec(kind="worker_hang", count=1)])
        cfg = ResilienceConfig(chunk_timeout=0.5)
        t0 = time.monotonic()
        outs, t = run_pool(scale_tasks(2), config=cfg, injector=inj)
        elapsed = time.monotonic() - t0
        assert t.deadline_kills == 1 and t.retries == 1
        assert elapsed < 30.0, "call blocked far past the 0.5s deadline"
        kill = next(e for e in t.events if e.kind == "deadline-kill")
        assert kill.worker is not None and kill.chunk is not None
        assert_scale_outputs(outs, "hung worker")


class TestCircuitBreakerMachine:
    """Exact state machine, no processes involved."""

    CFG = ResilienceConfig(breaker_threshold=2, breaker_cooldown=2)

    def test_trip_open_halfopen_close(self):
        br = CircuitBreaker()
        assert br.allow(self.CFG) and br.state == "closed"
        br.record_result(1, self.CFG)
        assert br.state == "closed"  # below threshold
        br.record_result(1, self.CFG)
        assert br.state == "open" and br.trips == 1
        assert not br.allow(self.CFG)          # skip 1
        assert br.allow(self.CFG)              # skip 2 -> half-open trial
        assert br.state == "half-open"
        br.record_result(0, self.CFG)
        assert br.state == "closed" and br.fault_count == 0
        assert [(a, b) for a, b, _ in br.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_halfopen_trial_fault_reopens(self):
        br = CircuitBreaker()
        br.record_result(2, self.CFG)
        assert br.state == "open"
        br.allow(self.CFG)
        br.allow(self.CFG)
        assert br.state == "half-open"
        br.record_result(1, self.CFG)
        assert br.state == "open" and br.trips == 2
        assert [(a, b) for a, b, _ in br.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
        ]

    def test_success_resets_fault_count(self):
        br = CircuitBreaker()
        br.record_result(1, self.CFG)
        br.record_result(0, self.CFG)
        br.record_result(1, self.CFG)
        assert br.state == "closed"  # the clean call reset the count


@needs_fork
class TestCircuitBreakerIntegration:
    def test_repeated_faults_trip_then_half_open_recovers(self):
        cfg = dataclasses.replace(
            FAST, breaker_threshold=2, breaker_cooldown=2, max_retries=2
        )
        seq = tune()
        # Two sharded searches, each suffering one worker crash -> open.
        for _ in range(2):
            inj = FaultInjector([FaultSpec(kind="worker_crash", count=1)])
            rep = tune(parallel=2, faults=inj, resilience=cfg)
            assert rep.resilience.worker_crashes == 1
            assert_same_points(seq, rep)
        br = get_breaker()
        assert br.state == "open"
        assert ("closed", "open") in [(a, b) for a, b, _ in br.transitions]

        # While open, the pool is skipped outright: the search runs
        # sequentially and still finds the same points.
        skipped = tune(parallel=2, resilience=cfg)
        assert skipped.resilience.degraded == "sequential"
        assert [e.kind for e in skipped.resilience.events] == ["breaker-skip"]
        assert_same_points(seq, skipped)

        # The second skipped call half-opens; the trial runs clean -> closed.
        trial = tune(parallel=2, resilience=cfg)
        assert trial.resilience.degraded is None
        assert br.state == "closed"
        assert [(a, b) for a, b, _ in br.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert trial.resilience.breaker_state == "closed"
        assert_same_points(seq, trial)


@needs_fork
class TestPersistentPoolLifecycle:
    def test_workers_survive_across_launches(self):
        run_pool(scale_tasks(2))
        pids1 = {h["pid"] for h in get_pool().health() if h["alive"]}
        run_pool(scale_tasks(2))
        pids2 = {h["pid"] for h in get_pool().health() if h["alive"]}
        assert pids1 and pids1 <= pids2  # nobody was torn down between calls

    def test_health_snapshot_shape(self):
        run_pool(scale_tasks(2))
        health = get_pool().health()
        assert len(health) >= 2
        for h in health:
            assert h["alive"] and h["pid"] is not None
            assert h["heartbeat_age"] is None or h["heartbeat_age"] < 60.0

    def test_shutdown_and_respawn(self):
        run_pool(scale_tasks(2))
        old = {h["pid"] for h in get_pool().health()}
        shutdown_pool()
        outs, t = run_pool(scale_tasks(2))
        assert_scale_outputs(outs, "after respawn")
        new = {h["pid"] for h in get_pool().health() if h["alive"]}
        assert new and new.isdisjoint(old)

    def test_drain_retires_real_workers(self):
        run_pool(scale_tasks(2))
        pids = [h["pid"] for h in get_pool().health() if h["alive"]]
        assert len(pids) >= 2
        assert drain_pool(timeout=30.0) is True
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestStreams:
    def test_future_result_matches_sync(self):
        seq = launch()
        fut = launch_async(KERNEL, 8, 32, make_args())
        res = fut.result(timeout=120)
        assert fut.done()
        assert fut.exception() is None
        assert res.buffer("out").tobytes() == seq.buffer("out").tobytes()
        assert res.stats == seq.stats

    def test_stream_fifo_order(self):
        with Stream() as s:
            futs = [
                s.launch_async(KERNEL, 8, 32, make_args())
                for _ in range(3)
            ]
            results = [f.result(timeout=120) for f in futs]
        # FIFO: by the time a later future resolves, every earlier one has.
        assert all(f.done() for f in futs)
        ref = launch()
        for res in results:
            assert res.buffer("out").tobytes() == ref.buffer("out").tobytes()
            assert res.stats == ref.stats

    def test_synchronize_drains_everything(self):
        s = Stream()
        futs = [s.launch_async(KERNEL, 8, 32, make_args()) for _ in range(3)]
        s.synchronize(timeout=120)
        assert all(f.done() for f in futs)
        s.close()

    def test_launch_error_surfaces_from_future(self):
        s = Stream()
        try:
            fut = s.launch_async(KERNEL, 8, 32, {"wrong": 1})
            with pytest.raises(Exception):
                fut.result(timeout=120)
            assert fut.exception(timeout=120) is not None
            # The stream is not poisoned: later launches still run.
            ok = s.launch_async(KERNEL, 8, 32, make_args())
            assert ok.result(timeout=120).ok
        finally:
            s.close()

    def test_closed_stream_rejects_work(self):
        s = Stream()
        s.close()
        with pytest.raises(RuntimeError):
            s.launch_async(KERNEL, 8, 32, make_args())

    def test_default_stream_recreated_after_close(self):
        first = default_stream()
        first.close()
        second = default_stream()
        assert second is not first
        fut = launch_async(KERNEL, 8, 32, make_args())
        assert fut.result(timeout=120).ok


@needs_fork
class TestTelemetryPlumbing:
    def test_clean_parallel_launch_telemetry(self):
        rep = tune(parallel=2)
        t = rep.resilience
        assert t is not None
        assert t.workers == 2
        assert t.chunks == len(TUNE_CONFIGS)
        assert t.attempts == t.chunks
        assert t.retries == 0 and t.worker_faults == 0
        assert t.breaker_state == "closed" and t.degraded is None
        assert "workers=2" in t.summary()

    def test_sequential_launch_has_no_telemetry(self):
        # Launches never touch the pool; only a sharded search reports it.
        assert not hasattr(launch(), "resilience")
        assert tune().resilience is None

    def test_sim_fault_in_worker_reruns_sequentially(self):
        # A simulator-fault injector needs the interpreter hooks of this
        # process, so a sharded search runs sequentially instead: the fault
        # planted in the first variant launch fires here, not in a worker.
        inj = FaultInjector(
            [FaultSpec(kind="miscoalesce", launch_index=1, count=1)]
        )
        rep = tune(parallel=2, faults=inj)
        assert rep.resilience is None
        assert inj.fired("miscoalesce") == 1

    def test_sim_fault_in_task_is_contained_not_retried(self):
        """A kernel that faults inside a task comes back as the same located
        fault report an in-process ``on_error="status"`` launch gives, and
        the pool does not mistake it for a worker fault."""
        bad = parse_kernel(
            "__global__ void t(float *o) {"
            " if (blockIdx.x == 5) o[threadIdx.x + 9999] = 1.0f;"
            " else o[threadIdx.x] = 1.0f; }"
        )
        direct = run_kernel(bad, 8, 32, {"o": np.zeros(N, np.float32)},
                            on_error="status")
        outs, t = run_pool([task(bad, 8, 32, {"o": np.zeros(N, np.float32)})])
        assert direct.error is not None
        assert outs[0]["error"].summary() == direct.error.summary()
        assert t.retries == 0 and t.worker_faults == 0
