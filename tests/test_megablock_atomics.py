"""Property tests for the deterministic batched atomic path.

The megablock engine lowers ``atomicAdd`` into a sort-by-address segmented
reduce (:func:`~repro.gpusim.megablock._mb_atomic_apply`).  Its contract is
*bit-exactness* against the sequential per-warp semantics: deltas fold into
each address in ascending (row, lane) order as a strict left fold — no
pairwise tree — and every lane's returned "old" value is the memory value
at the start of its own row's issue, exactly like the interpreter's
``data[offsets].copy()`` before ``np.add.at``.

The oracle below *is* that per-warp loop.  The properties drive the batch
through the collision regimes that matter: all lanes on one address, all
distinct, power-law (histogram-shaped) collisions, float32 magnitude
spreads where accumulation order changes the rounding, and integer
wrap-around.  The collision counter (``KernelStats.atomic_serializations``)
must agree between the batched ``_batch_distinct`` and the per-warp
``np.unique`` accounting, and end-to-end across both engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.launch import run_kernel
from repro.gpusim.megablock import _batch_distinct, _mb_atomic_apply

LANES = 32


def _sequential_oracle(data, addrs, mask, delta):
    """The per-warp reference: row by row, snapshot olds, then np.add.at
    (which applies colliding updates sequentially in lane order)."""
    addrs_b = np.broadcast_to(addrs, mask.shape)
    delta_b = np.broadcast_to(delta, mask.shape)
    old = np.zeros(mask.shape, dtype=data.dtype)
    for r in range(mask.shape[0]):
        m = mask[r]
        offs = addrs_b[r][m]
        old[r, m] = data[offs]
        np.add.at(data, offs, delta_b[r][m].astype(data.dtype))
    return old


def _serialization_oracle(addrs, mask):
    addrs_b = np.broadcast_to(addrs, mask.shape)
    total = 0
    for r in range(mask.shape[0]):
        offs = addrs_b[r][mask[r]]
        total += offs.size - np.unique(offs).size
    return total


def _compare(data_size, addrs, mask, delta, dtype):
    """Run batch and oracle from identical initial memory; demand bytes."""
    rng = np.random.default_rng(99)
    if np.dtype(dtype).kind == "f":
        init = rng.standard_normal(data_size).astype(dtype)
    else:
        init = rng.integers(-1000, 1000, data_size).astype(dtype)
    batch_mem = init.copy()
    oracle_mem = init.copy()
    got_old = _mb_atomic_apply(batch_mem, addrs, mask, delta)
    want_old = _sequential_oracle(oracle_mem, addrs, mask, delta)
    assert batch_mem.tobytes() == oracle_mem.tobytes(), "final memory diverged"
    assert got_old.tobytes() == want_old.tobytes(), "old values diverged"
    # _batch_distinct counts distinct addresses per row; serializations are
    # active - distinct, which must match the per-warp np.unique accounting.
    assert int(_batch_distinct(np.broadcast_to(addrs, mask.shape), mask).sum()) \
        == _distinct_count(addrs, mask)


def _distinct_count(addrs, mask):
    addrs_b = np.broadcast_to(addrs, mask.shape)
    return sum(
        np.unique(addrs_b[r][mask[r]]).size for r in range(mask.shape[0])
    )


class TestCollisionRegimes:
    """The three canonical address distributions, float32 and int32."""

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_all_same_address(self, dtype, rows):
        rng = np.random.default_rng(1)
        addrs = np.full((rows, LANES), 5, dtype=np.int64)
        mask = np.ones((rows, LANES), dtype=bool)
        delta = (rng.standard_normal((rows, LANES)) * 10).astype(np.float64)
        _compare(16, addrs, mask, delta, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    def test_all_distinct_addresses(self, dtype):
        rng = np.random.default_rng(2)
        rows = 4
        addrs = np.stack([
            rng.permutation(rows * LANES)[:LANES] for _ in range(rows)
        ]).astype(np.int64)
        mask = np.ones((rows, LANES), dtype=bool)
        delta = rng.standard_normal((rows, LANES))
        _compare(rows * LANES, addrs, mask, delta, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.int32])
    def test_power_law_collisions(self, dtype):
        """Histogram-shaped traffic: a few hot addresses, a long tail."""
        rng = np.random.default_rng(3)
        rows = 6
        addrs = np.minimum(rng.zipf(1.5, (rows, LANES)) - 1, 63).astype(np.int64)
        mask = rng.random((rows, LANES)) < 0.9
        delta = rng.standard_normal((rows, LANES))
        _compare(64, addrs, mask, delta, dtype)

    def test_empty_and_partial_masks(self):
        addrs = np.zeros((3, LANES), dtype=np.int64)
        mask = np.zeros((3, LANES), dtype=bool)
        mask[1, ::3] = True  # row 0 and 2 fully inactive
        delta = np.ones((3, LANES))
        _compare(4, addrs, mask, delta, np.float32)

    def test_float32_magnitude_spread_pinned_to_sequential(self):
        """Wildly mixed magnitudes into one address: any reassociation
        (pairwise or otherwise) changes the rounding, so bit-equality here
        proves the fold is a strict sequential left fold."""
        rng = np.random.default_rng(4)
        rows = 16
        delta = (
            rng.standard_normal((rows, LANES))
            * np.float_power(10.0, rng.integers(-6, 7, (rows, LANES)))
        )
        addrs = np.zeros((rows, LANES), dtype=np.int64)
        mask = np.ones((rows, LANES), dtype=bool)
        _compare(2, addrs, mask, delta, np.float32)

    def test_int32_wraparound(self):
        addrs = np.zeros((2, LANES), dtype=np.int64)
        mask = np.ones((2, LANES), dtype=bool)
        delta = np.full((2, LANES), 2**30, dtype=np.int64)
        _compare(2, addrs, mask, delta, np.int32)


@settings(deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 12),
    data_size=st.integers(1, 96),
    density=st.floats(0.0, 1.0),
    dtype=st.sampled_from([np.float32, np.int32]),
)
def test_batched_atomics_match_sequential_oracle(
    seed, rows, data_size, density, dtype
):
    """For any mask / address / delta combination the segmented reduce is
    byte-for-byte the sequential per-warp fold — memory and old values."""
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, data_size, (rows, LANES)).astype(np.int64)
    mask = rng.random((rows, LANES)) < density
    delta = rng.standard_normal((rows, LANES)) * 8.0
    _compare(data_size, addrs, mask, delta, dtype)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**31 - 1), hot=st.integers(1, 16))
def test_serialization_counter_matches_unique_accounting(seed, hot):
    """`_batch_distinct` (sentinel-sort) equals the per-warp np.unique
    count: serializations = active lanes - distinct addresses, per row."""
    rng = np.random.default_rng(seed)
    rows = 5
    addrs = rng.integers(0, hot, (rows, LANES)).astype(np.int64)
    mask = rng.random((rows, LANES)) < 0.8
    distinct = int(_batch_distinct(addrs, mask).sum())
    active = int(np.count_nonzero(mask))
    assert active - distinct == _serialization_oracle(addrs, mask)


# ---------------------------------------------------------------------------
# End to end: the counter and the bytes agree across both engines.
# ---------------------------------------------------------------------------

_SCATTER = """
__global__ void k(float* acc, int* old, const float* a, const int* idx, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(acc[idx[i]], a[i]);
    }
}
"""


@pytest.mark.parametrize("hot", [1, 4, 64])
def test_scatter_kernel_exact_across_engines(hot):
    n = 256
    rng = np.random.default_rng(hot)
    a = (rng.standard_normal(n) * np.float_power(10.0, rng.integers(-4, 5, n))).astype(np.float32)
    idx = rng.integers(0, hot, n).astype(np.int32)

    def args():
        return {
            "acc": np.zeros(64, dtype=np.float32),
            "old": np.zeros(n, dtype=np.int32),
            "a": a.copy(),
            "idx": idx.copy(),
            "n": n,
        }

    results = {
        be: run_kernel(_SCATTER, 8, 32, args(), backend=be)
        for be in ("interp", "megablock")
    }
    ref = results["interp"]
    got = results["megablock"]
    assert got.megablock_fallback is None
    assert got.megablock_megawarp is True
    assert (
        ref.gmem.buffers()["acc"].data.tobytes()
        == got.gmem.buffers()["acc"].data.tobytes()
    ), f"accumulator bytes diverged (hot={hot})"
    assert ref.stats == got.stats, f"stats diverged (hot={hot})"
    expected_serial = sum(
        32 - np.unique(idx[w * 32:(w + 1) * 32]).size for w in range(n // 32)
    )
    assert ref.stats.atomic_serializations == expected_serial
