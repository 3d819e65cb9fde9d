"""Unit tests for the batch-vectorized megablock engine internals.

The end-to-end bit-identity contract lives in
``tests/test_backend_differential.py``; this file pins down the batched
building blocks — per-row stat reductions, block-varying shuffle rejection,
and the batched memory slabs — so a regression localizes to the helper that
drifted instead of a whole-kernel diff.
"""

import numpy as np
import pytest

from repro.gpusim.errors import SimError
from repro.gpusim.launch import run_kernel
from repro.gpusim.megablock import (
    _batch_bank_replays,
    _batch_const_serialized,
    _batch_global_stats,
    _batch_txns,
    _uniform_int,
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
