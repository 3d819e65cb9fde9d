"""The racecheck/initcheck sanitizer: detection, precision, and rendering.

Three families of properties:

- **detection** — a seeded race (missing ``__syncthreads``) and an
  uninitialized shared read are reported with correct buffer/index/warp
  coordinates;
- **precision** — barrier-ordered accesses, same-warp lockstep accesses,
  atomics, and the NPC-generated communication patterns produce *zero*
  findings;
- **rendering** — golden-report snapshots keep the compute-sanitizer-style
  output reviewable.
"""

import numpy as np
import pytest

from repro.gpusim import Sanitizer, SanitizerReport, run_kernel
from repro.npc.config import NpConfig
from repro.npc.pipeline import compile_np
from repro.npc.autotune import launch_variant

RACE = """
__global__ void race(float *out) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = (float)t;
    out[t] = tile[63 - t];
}
"""

RACE_FIXED = """
__global__ void race(float *out) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = (float)t;
    __syncthreads();
    out[t] = tile[63 - t];
}
"""

UNINIT = """
__global__ void uninit_read(float *out) {
    __shared__ float buf[64];
    int t = threadIdx.x;
    if (t < 32) { buf[t] = 1.0f; }
    __syncthreads();
    out[t] = buf[t];
}
"""


def out64():
    return {"out": np.zeros(64, np.float32)}


def sanitized(src, grid=1, block=64, args=None, **kw):
    kw.setdefault("racecheck", True)
    kw.setdefault("initcheck", True)
    return run_kernel(src, grid, block, args if args is not None else out64(), **kw)


class TestDetection:
    def test_missing_sync_reports_raw_hazard(self):
        res = sanitized(RACE)
        assert res.ok  # sanitizer findings never abort the launch
        hazards = {f.hazard for f in res.sanitizer.findings}
        assert "read-after-write" in hazards
        raw = next(f for f in res.sanitizer.findings if f.hazard == "read-after-write")
        # Warp 1 reads tile[0..31], written by warp 0 without a barrier.
        assert raw.ctx.buffer == "tile"
        assert raw.ctx.space == "shared"
        assert raw.ctx.warp == 1
        assert raw.ctx.index is not None and 0 <= raw.ctx.index < 32
        assert raw.ctx.line == 6  # the reading statement
        assert raw.tool == "racecheck"

    def test_waw_hazard_between_warps(self):
        src = """
        __global__ void waw(float *out) {
            __shared__ float slot[1];
            slot[0] = (float)threadIdx.x;
            __syncthreads();
            out[threadIdx.x] = slot[0];
        }
        """
        res = sanitized(src)
        hazards = {f.hazard for f in res.sanitizer.findings}
        assert "write-after-write" in hazards
        waw = next(f for f in res.sanitizer.findings if f.hazard == "write-after-write")
        assert waw.ctx.buffer == "slot"
        assert waw.ctx.index == 0

    def test_intra_warp_write_collision(self):
        src = """
        __global__ void collide(float *out) {
            __shared__ float slot[4];
            slot[threadIdx.x / 8] = (float)threadIdx.x;
            __syncthreads();
            out[threadIdx.x] = slot[0];
        }
        """
        res = sanitized(src, block=32)
        hazards = {f.hazard for f in res.sanitizer.findings}
        assert "write-collision" in hazards

    def test_uninitialized_shared_read(self):
        res = sanitized(UNINIT)
        assert res.ok
        findings = res.sanitizer.findings
        assert len(findings) == 1
        f = findings[0]
        assert f.tool == "initcheck"
        assert f.hazard == "uninitialized-shared-read"
        # Warp 1 (threads 32..63) reads buf[32..] which nobody wrote.
        assert f.ctx.buffer == "buf"
        assert f.ctx.index == 32
        assert f.ctx.warp == 1
        assert f.ctx.limit == 64

    def test_uninitialized_local_read(self):
        src = """
        __global__ void local_uninit(float *out) {
            float acc[4];
            acc[0] = 1.0f;
            out[threadIdx.x] = acc[3];
        }
        """
        res = sanitized(src, block=32, args={"out": np.zeros(32, np.float32)})
        findings = res.sanitizer.findings
        assert len(findings) == 1
        assert findings[0].hazard == "uninitialized-local-read"
        assert findings[0].ctx.buffer == "acc"
        assert findings[0].ctx.index == 3
        assert findings[0].ctx.space == "local"

    def test_findings_survive_a_failed_launch(self):
        src = """
        __global__ void race_then_oob(float *out) {
            __shared__ float tile[64];
            int t = threadIdx.x;
            tile[t] = (float)t;
            out[t] = tile[63 - t];
            out[t + 100000] = 0.0f;
        }
        """
        res = sanitized(src, on_error="status")
        assert not res.ok
        assert res.sanitizer is not None
        assert res.sanitizer.findings  # pre-fault findings retained

    def test_dedup_counts_repeats(self):
        # The same race site re-executes in every block: one finding, count > 1.
        res = sanitized(RACE, grid=4, args={"out": np.zeros(64, np.float32)})
        raws = [f for f in res.sanitizer.findings if f.hazard == "read-after-write"]
        assert len(raws) == 1
        assert raws[0].count >= 4


class TestPrecision:
    def test_barrier_ordered_accesses_are_clean(self):
        res = sanitized(RACE_FIXED)
        assert res.sanitizer.ok
        assert res.sanitizer.summary() == "racecheck+initcheck: clean"

    def test_same_warp_accesses_are_ordered(self):
        # Lockstep lanes of one warp exchange through shared memory without
        # a barrier: ordered on pre-Volta hardware, so no hazard.
        src = """
        __global__ void swap(float *out) {
            __shared__ float tile[32];
            int t = threadIdx.x;
            tile[t] = (float)t;
            out[t] = tile[31 - t];
        }
        """
        res = sanitized(src, block=32, args={"out": np.zeros(32, np.float32)})
        assert res.sanitizer.ok

    def test_atomics_do_not_conflict(self):
        src = """
        __global__ void hist(float *out) {
            __shared__ float bins[4];
            if (threadIdx.x < 4) { bins[threadIdx.x] = 0.0f; }
            __syncthreads();
            atomicAdd(bins[threadIdx.x % 4], 1.0f);
            __syncthreads();
            if (threadIdx.x < 4) { out[threadIdx.x] = bins[threadIdx.x]; }
        }
        """
        res = sanitized(src, args={"out": np.zeros(4, np.float32)})
        assert res.sanitizer.ok
        np.testing.assert_allclose(res.buffer("out"), np.full(4, 16.0))

    def test_sanitizer_off_by_default(self):
        res = run_kernel(RACE, 1, 64, out64())
        assert res.sanitizer is None

    def test_np_variant_with_shared_comm_is_clean(self):
        # An inter-warp NP variant communicates through injected __np_*
        # buffers with compiler-emitted barriers: must be race-free.
        src = """
        __global__ void tsum(float *x, float *out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            float acc = 0.0f;
            #pragma np parallel for reduction(+:acc)
            for (int j = 0; j < 8; j = j + 1) {
                int k = tid * 8 + j;
                if (k < n) { acc = acc + x[k]; }
            }
            if (tid < n) { out[tid] = acc; }
        }
        """
        variant = compile_np(src, 64, NpConfig(slave_size=4, np_type="inter"))
        args = {
            "x": np.arange(512, dtype=np.float32),
            "out": np.zeros(512, np.float32),
            "n": 512,
        }
        res = launch_variant(variant, 1, args, racecheck=True, initcheck=True)
        assert res.sanitizer.ok


class TestSanitizerObjects:
    def test_report_counts_and_tools(self):
        res = sanitized(RACE)
        rep = res.sanitizer
        assert isinstance(rep, SanitizerReport)
        assert rep.tools == "racecheck+initcheck"
        counts = rep.counts()
        assert sum(counts.values()) >= len(rep.findings)
        assert rep.findings_for("racecheck")
        assert "findings" in rep.summary()

    def test_finding_cap_suppresses_but_counts(self):
        san = Sanitizer(max_findings=1)
        from repro.gpusim.memory import SharedArray

        class Site:
            warp_idx = 0
            current_loc = None

            def make_context(self, **kw):
                from repro.gpusim.diagnostics import FaultContext
                return FaultContext(kernel="k", **{
                    k: v for k, v in kw.items()
                    if k in ("space", "buffer", "index", "limit", "lanes")
                })

        arr = SharedArray("s", (8,), "float")
        flat = np.zeros(32, np.int64)
        mask = np.ones(32, bool)
        site = Site()
        san.shared_load(site, arr, flat, mask)          # uninit -> finding 1
        site.warp_idx = 1
        arr2 = SharedArray("t", (8,), "float")
        san.shared_load(site, arr2, flat, mask)         # capped -> suppressed
        rep = san.report()
        assert len(rep.findings) == 1
        assert rep.suppressed == 1
        assert not rep.ok

    def test_clean_report_render(self):
        res = sanitized(RACE_FIXED)
        text = res.sanitizer.render()
        assert "ERROR SUMMARY: 0 errors" in text


class TestGoldenRenders:
    """Snapshot tests: diagnostics text is part of the reviewable surface."""

    def test_canonical_race_render(self):
        src = """
__global__ void bcast_race(float *out) {
    __shared__ float comm[2];
    int t = threadIdx.x;
    if (t == 0) { comm[0] = 42.0f; }
    out[t] = comm[0];
}
"""
        res = sanitized(src)
        assert len(res.sanitizer.findings) == 1
        assert res.sanitizer.findings[0].render() == (
            "========= GPUSIM SANITIZER\n"
            "========= Shared memory race hazard (RaceHazard)\n"
            "=========     read-after-write hazard on shared comm[0]: "
            "warp 1 lane 0 (line 6) reads a value stored by warp 0 lane 0 "
            "(line 5) with no __syncthreads in between\n"
            "=========     in kernel bcast_race at line 6\n"
            "=========     by thread (32, 0, 0), lane 0 of warp 1 in block (0, 0, 0)\n"
            "=========     grid (1, 1, 1), block dim (64, 1, 1)\n"
            "=========     active mask 0xffffffff\n"
            "=========     shared space, buffer 'comm', element index 0 (size 2)\n"
            "=========     implicated lanes [0]\n"
            "========= ERROR SUMMARY: 1 error"
        )

    def test_canonical_uninit_render(self):
        res = sanitized(UNINIT)
        assert res.sanitizer.findings[0].render() == (
            "========= GPUSIM SANITIZER\n"
            "========= Uninitialized memory read (UninitRead)\n"
            "=========     uninitialized shared read: buf[32] read by warp 1 "
            "lane 0 (line 7) before any write in this thread block\n"
            "=========     in kernel uninit_read at line 7\n"
            "=========     by thread (32, 0, 0), lane 0 of warp 1 in block (0, 0, 0)\n"
            "=========     grid (1, 1, 1), block dim (64, 1, 1)\n"
            "=========     active mask 0xffffffff\n"
            "=========     shared space, buffer 'buf', element index 32 (size 64)\n"
            "=========     implicated lanes [0]\n"
            "========= ERROR SUMMARY: 1 error"
        )

    def test_memory_fault_title_still_space_specific(self):
        # The space-specific headline is reserved for real access faults;
        # sanitizer findings keep their own titles (conditioned override).
        src = "__global__ void oob(float *o) { o[threadIdx.x + 999] = 1.0f; }"
        res = run_kernel(src, 1, 32, {"o": np.zeros(8, np.float32)},
                         on_error="status")
        assert "Invalid global access" in res.error.render()
