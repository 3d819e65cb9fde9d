"""Cross-check: every injectable fault is caught through its expected channel.

A verification harness that never fires is worthless.  These tests close
the loop on the differential oracle by planting each
:mod:`repro.gpusim.faults` kind into sanitized runs and asserting it is
detected the way :data:`repro.testing.oracle.EXPECTED_DETECTION` promises:

- ``drop_launch`` / ``global_oob`` / ``shared_oob`` / ``skip_sync`` — a
  located fault report (``drop_launch`` is *out of sanitizer scope*: the
  kernel never runs, so only the launch status catches it);
- ``bit_flip`` / ``shfl_lane`` — silent corruption, caught differentially
  (``shfl_lane`` only ever fires in intra-warp variants: inter-warp code
  contains no ``__shfl``);
- ``miscoalesce`` — functional output intact, only the coalescing
  counters move.

Coordinate assertions verify the reports point at the right buffer,
index, and thread — a detector that fires in the wrong place is barely
better than one that does not fire.
"""

import numpy as np
import pytest

from repro.gpusim.faults import FAULT_KINDS, FaultInjector
from repro.gpusim.launch import run_kernel
from repro.npc.config import NpConfig
from repro.testing.oracle import EXPECTED_DETECTION, cross_validate_faults

# A reduction kernel: its NP variants route partial sums through shared
# comm buffers (inter-warp) or __shfl (intra-warp), so every memory,
# barrier, and shuffle fault kind has somewhere to land.
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

SMEM64 = """
__global__ void smem64(float *o) {
    __shared__ float tile[64];
    int t = threadIdx.x;
    tile[t] = t * 1.0f;
    __syncthreads();
    o[t] = tile[63 - t];
}
"""

MASTERS = 8
GRID = 2

INTER = NpConfig(slave_size=4, np_type="inter")
INTRA = NpConfig(slave_size=4, np_type="intra", use_shfl=True, padded=True)


def dots_args():
    rng = np.random.default_rng(7)
    n = MASTERS * GRID
    return {
        "a": rng.uniform(-1, 1, n * 64).astype(np.float32),
        "b": rng.uniform(-1, 1, n * 64).astype(np.float32),
        "out": np.zeros(n, np.float32),
    }


def smem_args():
    return {"o": np.zeros(64, np.float32)}


class TestExpectedDetectionMap:
    def test_covers_every_fault_kind(self):
        assert set(EXPECTED_DETECTION) == set(FAULT_KINDS)

    def test_channels_are_known(self):
        assert set(EXPECTED_DETECTION.values()) <= {"fault", "differential", "stats"}


class TestCrossValidation:
    """cross_validate_faults: plant, run sanitized, classify the catch."""

    def test_every_kind_detected_inter(self):
        # shfl_lane is excluded here: inter-warp variants contain no __shfl
        # (see test_shfl_lane_never_fires_inter below).
        kinds = [k for k in FAULT_KINDS if k != "shfl_lane"]
        probes = cross_validate_faults(
            DOTS, MASTERS, GRID, dots_args, INTER, kinds=kinds
        )
        for probe in probes:
            assert probe.fired, probe.describe()
            assert probe.detected, probe.describe()
            assert probe.observed_channel == EXPECTED_DETECTION[probe.kind]

    def test_shfl_lane_detected_in_intra_variant(self):
        probes = cross_validate_faults(
            DOTS, MASTERS, GRID, dots_args, INTRA, kinds=("shfl_lane",)
        )
        (probe,) = probes
        assert probe.fired
        assert probe.detected and probe.observed_channel == "differential"

    def test_shfl_lane_never_fires_inter(self):
        # Documents why the intra-warp variant carries this probe: the
        # inter-warp rewrite communicates through shared memory only.
        probes = cross_validate_faults(
            DOTS, MASTERS, GRID, dots_args, INTER, kinds=("shfl_lane",)
        )
        (probe,) = probes
        assert not probe.fired and not probe.detected

    def test_probe_describe_mentions_channel(self):
        probes = cross_validate_faults(
            DOTS, MASTERS, GRID, dots_args, INTER, kinds=("global_oob",)
        )
        assert "DETECTED" in probes[0].describe()
        assert "fault" in probes[0].describe()


class TestFaultCoordinates:
    """Located reports: right buffer, right index, right thread."""

    def test_shared_oob_names_buffer_and_index(self):
        inj = FaultInjector.single("shared_oob")
        res = run_kernel(
            SMEM64, 1, 64, smem_args(),
            faults=inj, on_error="status", racecheck=True, initcheck=True,
        )
        assert not res.ok and res.error.kind == "MemoryFault"
        ctx = res.error.ctx
        assert ctx.injected
        assert ctx.space == "shared"
        assert ctx.buffer == "tile"
        assert ctx.limit == 64
        assert ctx.index is not None and not (0 <= ctx.index < 64)
        assert ctx.warp is not None and ctx.lane is not None

    def test_global_oob_names_buffer_and_index(self):
        inj = FaultInjector.single("global_oob")
        res = run_kernel(
            SMEM64, 1, 64, smem_args(),
            faults=inj, on_error="status", racecheck=True, initcheck=True,
        )
        assert not res.ok and res.error.kind == "MemoryFault"
        ctx = res.error.ctx
        assert ctx.injected
        assert ctx.space == "global"
        assert ctx.buffer == "o"
        assert ctx.index is not None and not (0 <= ctx.index < 64)

    def test_skip_sync_surfaces_as_sync_error(self):
        inj = FaultInjector.single("skip_sync")
        res = run_kernel(
            SMEM64, 1, 64, smem_args(),
            faults=inj, on_error="status", racecheck=True, initcheck=True,
        )
        assert not res.ok and res.error.kind == "SyncError"
        assert res.error.ctx.injected

    def test_drop_launch_out_of_sanitizer_scope(self):
        # The kernel never runs, so the sanitizer has nothing to observe;
        # only the launch status catches a dropped launch.
        assert EXPECTED_DETECTION["drop_launch"] == "fault"
        inj = FaultInjector.single("drop_launch")
        res = run_kernel(
            SMEM64, 1, 64, smem_args(),
            faults=inj, on_error="status", racecheck=True, initcheck=True,
        )
        assert not res.ok and res.error.kind == "InjectedFault"
        assert res.sanitizer is not None and res.sanitizer.ok

    def test_bit_flip_is_silent_without_differential(self):
        # A flipped data bit raises nothing and trips no sanitizer rule:
        # only comparing against a clean run exposes it.
        clean = run_kernel(SMEM64, 1, 64, smem_args(),
                           racecheck=True, initcheck=True)
        inj = FaultInjector.single("bit_flip")
        res = run_kernel(
            SMEM64, 1, 64, smem_args(),
            faults=inj, on_error="status", racecheck=True, initcheck=True,
        )
        assert inj.fired("bit_flip") == 1
        assert res.ok and res.sanitizer.ok
        assert not np.array_equal(res.buffer("o"), clean.buffer("o"))


class TestSanitizerStillRunsUnderFaults:
    def test_findings_survive_an_injected_abort(self):
        # A kernel with a real race *and* an injected global OOB: the abort
        # must not discard the hazards collected before it.  (Under this
        # schedule the race manifests as warp 0 reading tile[32..63] before
        # warp 1 ever writes them — an initcheck finding, exactly how a
        # dynamic tool sees a missing barrier on a cold buffer.)
        racy = """
        __global__ void racy(float *o) {
            __shared__ float tile[64];
            int t = threadIdx.x;
            tile[t] = t * 1.0f;
            o[t] = tile[63 - t];
        }
        """
        inj = FaultInjector.single("global_oob")
        res = run_kernel(
            racy, 1, 64, smem_args(),
            faults=inj, on_error="status", racecheck=True, initcheck=True,
        )
        assert not res.ok and res.error.kind == "MemoryFault"
        assert res.sanitizer is not None and not res.sanitizer.ok
        assert any(f.hazard == "uninitialized-shared-read"
                   for f in res.sanitizer.findings)


@pytest.mark.sanitizer
class TestCrossValidationIntraFull:
    """Heavier sweep: the full kind set against the intra-warp variant."""

    def test_all_kinds_intra(self):
        kinds = list(FAULT_KINDS)
        probes = cross_validate_faults(
            DOTS, MASTERS, GRID, dots_args, INTRA, kinds=kinds
        )
        for probe in probes:
            if probe.fired:
                assert probe.detected, probe.describe()
        fired = {p.kind for p in probes if p.fired}
        # Everything except the barrier/shared-comm faults must fire in a
        # shuffle-based intra-warp variant (it has no __syncthreads and no
        # shared comm buffers to corrupt).
        assert "shfl_lane" in fired
        assert "bit_flip" in fired and "global_oob" in fired
