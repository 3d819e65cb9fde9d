"""Unit tests for the batch-vectorized megablock engine internals.

The end-to-end bit-identity contract lives in
``tests/test_backend_differential.py``; this file pins down the batched
building blocks — per-row stat reductions, block-varying shuffle rejection,
the batched memory slabs, and the memory hooks' full-mask path — so a
regression localizes to the helper that drifted instead of a whole-kernel
diff.
"""

import numpy as np
import pytest

from repro.gpusim.errors import SimError
from repro.gpusim.launch import run_kernel
from repro.gpusim import megablock
from repro.gpusim.megablock import (
    _batch_bank_replays,
    _batch_const_serialized,
    _batch_global_stats,
    _batch_txns,
    _full_bank_replays,
    _full_const_serialized,
    _full_txns,
    _uniform_int,
    _warp_bank_replays,
    _warp_const_serialized,
    _warp_txns,
    compile_megablock,
)
from repro.gpusim.memory import BatchedLocalArray, BatchedSharedArray
from repro.minicuda.parser import parse_kernel


# ---------------------------------------------------------------------------
# Per-row reductions vs the interpreter's per-warp coalescing helpers
# ---------------------------------------------------------------------------


def _rand_case(rng, nblocks=5):
    addrs = rng.integers(0, 4096, size=(nblocks, 32), dtype=np.int64)
    mask = rng.random((nblocks, 32)) < 0.7
    mask[2] = False  # one empty row
    return addrs, mask


def test_batch_txns_matches_per_block():
    from repro.gpusim.coalescing import transactions_for

    rng = np.random.default_rng(5)
    addrs, mask = _rand_case(rng)
    got = _batch_txns(addrs, mask)
    for row in range(addrs.shape[0]):
        assert got[row] == transactions_for(addrs[row], mask[row])


def test_batch_global_stats_matches_per_block():
    from repro.gpusim.coalescing import is_fully_coalesced, transactions_for

    rng = np.random.default_rng(6)
    addrs, mask = _rand_case(rng)
    active_rows = mask.sum(axis=1)
    txns, unco = _batch_global_stats(addrs, mask, 4, active_rows)
    for row in range(addrs.shape[0]):
        assert txns[row] == transactions_for(addrs[row], mask[row])
        coalesced = is_fully_coalesced(addrs[row], mask[row], 4)
        assert bool(unco[row]) == (not coalesced)


def test_batch_bank_replays_matches_per_block():
    from repro.gpusim.coalescing import bank_conflict_replays

    rng = np.random.default_rng(7)
    addrs, mask = _rand_case(rng)
    got = _batch_bank_replays(addrs, mask)
    for row in range(addrs.shape[0]):
        assert got[row] == bank_conflict_replays(addrs[row], mask[row])


def test_batch_const_serialized_matches_per_block():
    from repro.gpusim.coalescing import broadcast_segments

    rng = np.random.default_rng(8)
    addrs, mask = _rand_case(rng)
    addrs[0, :] = 1024  # one genuinely broadcast row
    got = _batch_const_serialized(addrs, mask)
    for row in range(addrs.shape[0]):
        assert bool(got[row]) == (not broadcast_segments(addrs[row], mask[row]))


# ---------------------------------------------------------------------------
# Shuffle operand uniformity
# ---------------------------------------------------------------------------


def test_uniform_int_accepts_block_invariant_operands():
    assert _uniform_int(7) == 7
    assert _uniform_int(np.full(32, 3, dtype=np.int32)) == 3
    assert _uniform_int(np.full((4, 32), 5, dtype=np.int32)) == 5


def test_uniform_int_rejects_block_varying_operands():
    varying = np.repeat(np.arange(4, dtype=np.int32)[:, None], 32, axis=1)
    with pytest.raises(SimError, match="varies across blocks"):
        _uniform_int(varying)


# ---------------------------------------------------------------------------
# Batched memory slabs
# ---------------------------------------------------------------------------


def test_batched_shared_rows_are_isolated():
    arr = BatchedSharedArray("s", (32,), "float", nblocks=3)
    mask = np.ones((3, 32), dtype=bool)
    idx = np.arange(32, dtype=np.int64)
    values = np.arange(3, dtype=np.float32)[:, None] + np.zeros(32, np.float32)
    arr.store(idx, mask, values)
    for row in range(3):
        assert np.all(arr.block_view(row) == row)
    got = arr.load(idx, mask)
    assert np.array_equal(got, values)


def test_batched_local_per_lane_storage():
    arr = BatchedLocalArray("l", 4, "int", nblocks=2)
    mask = np.ones((2, 32), dtype=bool)
    idx = np.zeros((2, 32), dtype=np.int64)
    lane_vals = np.tile(np.arange(32, dtype=np.int32), (2, 1))
    arr.store(idx, mask, lane_vals + np.array([[0], [100]], dtype=np.int32))
    got = arr.load(idx, mask)
    assert np.array_equal(got[0], np.arange(32))
    assert np.array_equal(got[1], np.arange(32) + 100)


def test_batched_local_in_registers_flag():
    assert BatchedLocalArray("r", 4, "int", nblocks=1).in_registers is False
    assert BatchedLocalArray(
        "r", 4, "int", nblocks=1, in_registers=True
    ).in_registers is True


# ---------------------------------------------------------------------------
# Compiled artifact shape
# ---------------------------------------------------------------------------

_BARRIER_SRC = """
__global__ void k(float* out) {
    __shared__ float s[64];
    s[threadIdx.x] = out[blockIdx.x * blockDim.x + threadIdx.x];
    __syncthreads();
    out[blockIdx.x * blockDim.x + threadIdx.x] = s[63 - threadIdx.x];
}
"""


def test_barrier_kernel_lowers_to_generator():
    mega = compile_megablock(parse_kernel(_BARRIER_SRC), cache=False)
    assert mega.has_barriers and mega.body_is_gen
    assert not mega.uses_atomics


def test_barrier_kernel_runs_batched_and_matches_interp():
    args = lambda: {"out": np.arange(256, dtype=np.float32)}
    ref = run_kernel(_BARRIER_SRC, 4, 64, args(), backend="interp")
    got = run_kernel(_BARRIER_SRC, 4, 64, args(), backend="megablock")
    assert got.megablock_fallback is None
    assert (
        ref.gmem.buffers()["out"].data.tobytes()
        == got.gmem.buffers()["out"].data.tobytes()
    )
    assert ref.stats == got.stats


# ---------------------------------------------------------------------------
# Full-mask memory path
# ---------------------------------------------------------------------------

_ALL_LANES = np.ones(32, dtype=bool)


def _full_cases(rng):
    """Address vectors covering the interesting shapes: random, all equal,
    unit and 128-byte strides, bank-conflicting strides, a bank-broadcast
    mix of equal and distinct words."""
    return [
        rng.integers(0, 4096, size=32, dtype=np.int64),
        np.full(32, 1024, dtype=np.int64),
        np.arange(32, dtype=np.int64) * 4,
        np.arange(32, dtype=np.int64) * 128,
        np.arange(32, dtype=np.int64) * 8 + 64,
        (np.arange(32, dtype=np.int64) % 4) * 128,
    ]


def test_warp_reductions_match_per_warp_rules():
    from repro.gpusim.coalescing import (
        bank_conflict_replays,
        broadcast_segments,
        transactions_for,
    )

    for addrs in _full_cases(np.random.default_rng(11)):
        assert _warp_txns(addrs) == transactions_for(addrs, _ALL_LANES)
        assert _warp_bank_replays(addrs) == bank_conflict_replays(
            addrs, _ALL_LANES
        )
        assert _warp_const_serialized(addrs) == (
            not broadcast_segments(addrs, _ALL_LANES)
        )


def test_full_row_reductions_match_per_warp_rules():
    from repro.gpusim.coalescing import (
        bank_conflict_replays,
        broadcast_segments,
        transactions_for,
    )

    addrs = np.stack(_full_cases(np.random.default_rng(12)))
    txns = _full_txns(addrs)
    replays = _full_bank_replays(addrs)
    serialized = _full_const_serialized(addrs)
    for row in range(addrs.shape[0]):
        assert txns[row] == transactions_for(addrs[row], _ALL_LANES)
        assert replays[row] == bank_conflict_replays(addrs[row], _ALL_LANES)
        assert bool(serialized[row]) == (
            not broadcast_segments(addrs[row], _ALL_LANES)
        )


_SIG = "__global__ void k(float* out, const float* a, int n) {"
_GID = "int gid = blockIdx.x * blockDim.x + threadIdx.x;"

#: One small kernel per hook and variant.  "warp" accesses at block-
#: invariant indices (literals, loop counters, a one-warp block's
#: threadIdx), "rows" at row-varying ones, both under the full mask;
#: "general" accesses inside a divergent branch.
_HOOK_KERNELS = {
    "global": (
        "",
        {
            "warp": "out[gid] = a[(threadIdx.x * 33) % 96] + a[3];",
            "rows": "out[gid] = a[(gid * 7) % n];",
            "general": "if (threadIdx.x % 3 == 0) {\n"
            "    out[gid] = a[(threadIdx.x * 33) % 96] + a[3];\n}",
        },
    ),
    "local": (
        "float l[8];\n"
        "for (int i = 0; i < 8; i++) { l[i] = a[(gid + i) % n]; }",
        {
            "warp": "out[gid] = l[3] + l[threadIdx.x % 8];",
            "rows": "out[gid] = l[(gid * 3 + blockIdx.x) % 8];",
            "general": "if (threadIdx.x % 3 == 0) {\n"
            "    l[threadIdx.x % 8] = 2.0f;\n    out[gid] = l[5];\n}",
        },
    ),
    "shared": (
        "__shared__ float s[64];\n__shared__ float t[4][16];",
        {
            "warp": "s[threadIdx.x] = a[gid];\nt[1][3] = 2.5f;\n"
            "__syncthreads();\n"
            "out[gid] = s[(threadIdx.x * 4) % 64] + s[7] + t[1][3];",
            "rows": "s[(gid * 7) % 64] = a[gid];\n__syncthreads();\n"
            "out[gid] = s[(gid * 3) % 64] + t[blockIdx.x % 4][threadIdx.x % 16];",
            "general": "if (threadIdx.x % 3 == 0) { s[threadIdx.x] = a[gid]; }\n"
            "__syncthreads();\n"
            "if (threadIdx.x % 2 == 0) { out[gid] = s[(threadIdx.x + 3) % 64]; }",
        },
    ),
    "const": (
        "",
        {
            "warp": "out[gid] = lut[5] + lut[threadIdx.x % 16];",
            "rows": "out[gid] = lut[(gid + blockIdx.x) % 16] + lut[blockIdx.x % 16];",
            "general": "if (threadIdx.x % 3 == 0) { out[gid] = lut[threadIdx.x % 16]; }",
        },
    ),
    "tex": (
        "",
        {
            "warp": "out[gid] = tex1Dfetch(tex, threadIdx.x) + tex1Dfetch(tex, 7);",
            "rows": "out[gid] = tex1Dfetch(tex, (gid * 5) % 256);",
            "general": "if (threadIdx.x % 3 == 0) { out[gid] = tex1Dfetch(tex, gid); }",
        },
    ),
}

_CONSTS = {
    "lut": np.arange(16, dtype=np.float32) * 1.5,
    "tex": np.linspace(-3.0, 3.0, 256).astype(np.float32),
}


def _hook_source(hook: str, variant: str) -> str:
    prologue, bodies = _HOOK_KERNELS[hook]
    lines = [_SIG, _GID, prologue, bodies[variant], "}"]
    return "\n".join(line for line in lines if line) + "\n"


def _hook_args(n: int) -> dict:
    return {
        "out": np.zeros(n, dtype=np.float32),
        "a": (np.arange(n, dtype=np.float32) - 40.0) * 0.75,
        "n": n,
    }


def _assert_same_as_interp(src, grid, block, args_fn, **kwargs):
    """Bytes and stats (unprofiled), then the per-line profile and block
    costs (profiled), of megablock against interp.  Returns the unprofiled
    megablock result."""
    results = []
    for profile in (False, True):
        ref = run_kernel(
            src, grid, block, args_fn(), backend="interp", profile=profile,
            **kwargs,
        )
        got = run_kernel(
            src, grid, block, args_fn(), backend="megablock", profile=profile,
            **kwargs,
        )
        assert got.megablock_fallback is None
        for name, buf in ref.gmem.buffers().items():
            assert buf.data.tobytes() == got.gmem.buffers()[name].data.tobytes(), name
        assert ref.stats == got.stats
        if profile:
            assert not ref.profile.diff_lines(got.profile)
            assert ref.profile.blocks == got.profile.blocks
        results.append(got)
    return results[0]


@pytest.mark.parametrize("block", [32, 64])
@pytest.mark.parametrize("variant", ["warp", "rows", "general"])
@pytest.mark.parametrize("hook", sorted(_HOOK_KERNELS))
def test_memory_hook_paths_match_interp(hook, variant, block, mb_paths):
    """Each hook, at block-invariant and row-varying indices under the full
    mask and inside a divergent branch, one warp per block and two
    (flattened): megablock equals interp, and the access took the path the
    variant names (the profiled launches all take the general path)."""
    grid = 3
    n = grid * block
    src = _hook_source(hook, variant)
    _assert_same_as_interp(
        src, grid, block, lambda: _hook_args(n), const_arrays=_CONSTS
    )
    mb_paths.clear()
    run_kernel(
        src, grid, block, _hook_args(n), backend="megablock", const_arrays=_CONSTS
    )
    assert mb_paths[(hook, variant)] > 0, dict(mb_paths)
    if variant != "general":
        assert mb_paths[(hook, "general")] == 0, dict(mb_paths)


def test_full_mask_store_casts_float_to_int():
    """Stores convert with ``astype`` on every space: truncation toward
    zero, negative values included."""
    src = """
    __global__ void k(int* iout, const float* a, int n) {
        int gid = blockIdx.x * blockDim.x + threadIdx.x;
        __shared__ int si[32];
        int li[4];
        si[threadIdx.x] = a[gid] * 2.5f;
        li[1] = a[gid] * -1.75f;
        __syncthreads();
        iout[gid] = a[gid] * 3.7f;
        iout[gid + n] = si[(threadIdx.x + 1) % 32] + li[1];
    }
    """
    n = 96

    def args():
        return {
            "iout": np.zeros(2 * n, dtype=np.int32),
            "a": np.linspace(-50.0, 50.0, n).astype(np.float32),
            "n": n,
        }

    got = _assert_same_as_interp(src, 3, 32, args)
    a = args()["a"]
    assert np.array_equal(
        got.gmem.buffers()["iout"].data[:n], (a * np.float32(3.7)).astype(np.int32)
    )


def test_full_mask_global_store_last_writer_wins(mb_paths):
    """Block-invariant offsets with row-varying values: lanes collide
    within a warp and every block writes the same slots, so only the last
    writer in (block, lane) order may survive."""
    src = """
    __global__ void k(float* out, const float* a, int n) {
        int gid = blockIdx.x * blockDim.x + threadIdx.x;
        out[threadIdx.x % 8] = a[gid];
        out[8 + threadIdx.x % 4] = (float)blockIdx.x;
    }
    """
    grid, block = 4, 32
    n = grid * block
    got = _assert_same_as_interp(src, grid, block, lambda: _hook_args(n))
    assert mb_paths[("global", "warp")] > 0
    out = got.gmem.buffers()["out"].data
    a = _hook_args(n)["a"]
    last = (grid - 1) * block
    assert np.array_equal(out[:8], a[last + 24: last + 32])
    assert np.all(out[8:12] == grid - 1)


_OOB_KERNELS = {
    "global-warp": "out[gid] = a[threadIdx.x + 1000];",
    "global-rows": "out[gid + n] = a[gid];",
    "local-warp": "float l[8];\nl[threadIdx.x % 8] = 1.0f;\nout[gid] = l[threadIdx.x];",
    "shared-rows": "__shared__ float s[32];\ns[threadIdx.x] = 1.0f;\n"
    "__syncthreads();\nout[gid] = s[gid];",
    "const-warp": "out[gid] = lut[threadIdx.x];",
    "tex-rows": "out[gid] = tex1Dfetch(tex, gid * 3);",
}


@pytest.mark.parametrize("case", sorted(_OOB_KERNELS))
def test_full_mask_out_of_range_gives_interp_fault(case):
    """An out-of-range lane under the full mask leaves the full-mask path:
    the batched run faults, restores and reruns per block on interp, which
    raises the exact located fault."""
    src = "\n".join([_SIG, _GID, _OOB_KERNELS[case], "}"]) + "\n"
    n = 3 * 32
    ref = run_kernel(
        src, 3, 32, _hook_args(n), backend="interp", on_error="status",
        const_arrays=_CONSTS,
    )
    got = run_kernel(
        src, 3, 32, _hook_args(n), backend="megablock", on_error="status",
        const_arrays=_CONSTS,
    )
    assert ref.error is not None
    assert got.megablock_fallback == "sim-fault"
    assert got.error is not None and got.error.message == ref.error.message
    for name, buf in ref.gmem.buffers().items():
        assert buf.data.tobytes() == got.gmem.buffers()[name].data.tobytes()


@pytest.mark.parametrize("name", ["LIB", "LE"])
def test_served_kernels_skip_per_row_reductions(name, monkeypatch):
    """LIB and LE at their served sizes run every memory access under the
    full mask, so the per-row masked reductions never run.  A change that
    drops the full-mask path fails here, not only in a benchmark."""
    from repro.kernels import BENCHMARKS

    sizes = {"LIB": {"npath": 64}, "LE": {"positions": 64}}[name]
    bench = BENCHMARKS[name](**sizes)
    calls = {"_batch_txns": 0, "_batch_global_stats": 0}
    for fn_name in calls:
        orig = getattr(megablock, fn_name)

        def counted(*args, _orig=orig, _name=fn_name):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(megablock, fn_name, counted)
    result = bench.run_baseline(backend="megablock")
    assert result.megablock_fallback is None
    assert bench.check(result)
    assert calls == {"_batch_txns": 0, "_batch_global_stats": 0}
