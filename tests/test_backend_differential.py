"""Differential check of the two execution backends.

The tree-walking interpreter is the reference semantics; the batch-vectorized
megablock engine (:mod:`repro.gpusim.megablock`) must be **bit-identical** —
not merely allclose — on every paper benchmark, for the baseline kernel and
for at least one CUDA-NP variant each.  Outputs are compared via raw buffer bytes and the
full :class:`~repro.gpusim.stats.KernelStats` record, so a fast-path that
drifted by a ULP or double-counted a transaction fails loudly.

The megablock engine additionally promises an *observable* fallback: every
launch configuration it cannot batch exactly (fault injection, sim-faults,
sanitizers, order-sensitive atomics) must run per block on the interpreter
with the reason on :attr:`LaunchResult.megablock_fallback` — and still be
bit-identical.  A launch of one block (a one-block grid or
``sample_blocks=1``) is no such configuration: it batches like any other.  Order-free atomics (single site outside loops, or integer
adds whose old value is discarded) batch on the fast path instead, through
the deterministic segmented reduce, and BK — the one paper benchmark built
on ``atomicAdd`` — now rides it with ``megablock_megawarp`` set.
"""

import numpy as np
import pytest

from repro.gpusim.faults import FaultInjector, FaultSpec
from repro.gpusim.launch import launch, run_kernel
from repro.kernels import BENCHMARKS

ALL_NAMES = list(BENCHMARKS)

#: Every engine checked against the interpreter reference.
FAST_BACKENDS = ("megablock",)

#: Scaled-down inputs so the interp-side runs stay cheap; the kernels (and
#: therefore the lowered closures exercised) are the full paper suite.
SMALL = {
    "MC": dict(nvox=64),
    "LU": dict(matrix_dim=32),
    "LE": dict(positions=64, block=32),
    "MV": dict(width=64, height=64, block=32),
    "SS": dict(dim=64, points=32, block=32),
    "LIB": dict(npath=64, block=32),
    "CFD": dict(ncells=128, block=32),
    "BK": dict(elements=1024, block=32),  # must be a multiple of block*STRIP
    "TMV": dict(width=64, height=64, block=32),
    "NN": dict(records=128, queries=64, block=32),
}


def assert_identical(ref, got, label):
    """Bit-identical buffers and exactly equal statistics."""
    ref_bufs = ref.gmem.buffers()
    got_bufs = got.gmem.buffers()
    assert ref_bufs.keys() == got_bufs.keys()
    for name in ref_bufs:
        a, b = ref_bufs[name].data, got_bufs[name].data
        assert a.dtype == b.dtype, f"{label}: buffer {name} dtype drifted"
        assert a.tobytes() == b.tobytes(), f"{label}: buffer {name} not bit-identical"
    assert ref.stats == got.stats, f"{label}: stats diverged"


@pytest.fixture(scope="module")
def benches():
    return {name: cls(**SMALL[name]) for name, cls in BENCHMARKS.items()}


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_baseline_bit_identical(benches, name, backend):
    bench = benches[name]
    ref = bench.run_baseline(backend="interp")
    got = bench.run_baseline(backend=backend)
    assert ref.backend == "interp" and got.backend == backend
    assert_identical(ref, got, f"{name} baseline [{backend}]")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_default_engine_models_like_interp(benches, name, monkeypatch):
    """The default engine reads its resource report off the cached
    lowering instead of estimating it per launch; cold and warm, the
    modeled usage, occupancy and time must equal the interp launch's."""
    monkeypatch.delenv("GPUSIM_BACKEND", raising=False)
    bench = benches[name]
    ref = bench.run_baseline(backend="interp")
    model = (ref.usage, ref.occupancy, ref.timing)
    for _ in range(2):
        got = bench.run_baseline()
        assert got.backend == "megablock"
        assert (got.usage, got.occupancy, got.timing) == model, name


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_np_variant_bit_identical(benches, name, backend):
    """At least one generated CUDA-NP variant per benchmark: the master/slave
    rewrite exercises shuffles, shared staging, and barrier placement the
    baselines do not."""
    bench = benches[name]
    config = bench.configs()[0]
    ref = bench.run_variant(config, backend="interp")
    got = bench.run_variant(config, backend=backend)
    assert_identical(ref, got, f"{name} {config.describe()} [{backend}]")


@pytest.mark.parametrize("backend", FAST_BACKENDS)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_profile_bit_identical_across_backends(benches, name, backend):
    """Per-line profiles must match exactly: the counters are attributed at
    mirrored hook points in both engines, so any drift means a hook moved."""
    bench = benches[name]
    ref = bench.run_baseline(backend="interp", profile=True)
    got = bench.run_baseline(backend=backend, profile=True)
    assert ref.profile is not None and got.profile is not None
    mismatches = ref.profile.diff_lines(got.profile)
    assert not mismatches, f"{name}: " + "; ".join(mismatches[:10])
    assert ref.profile.blocks == got.profile.blocks, f"{name}: block costs"
    assert ref.profile.total_issues > 0


# ---------------------------------------------------------------------------
# Megablock fallback ladder: every ineligible configuration names its reason
# and still produces bit-identical results through the per-block path.
# ---------------------------------------------------------------------------

_SIMPLE = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = a[i] * 2.0f + 1.0f;
}
"""

#: Single atomic site outside any loop: order-free, so it batches exactly
#: (the segmented reduce replays ascending block/warp/lane order, which is
#: precisely the sequential issue order of one statement instance).
_ATOMIC = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) atomicAdd(out[0], a[i]);
}
"""

#: Two float sites accumulating into the same buffer: sequential execution
#: interleaves them warp by warp, a flattened batch issues each statement
#: once for the whole grid — float addition is not associative, so this
#: kernel MUST take the "atomic-order" fallback to stay bit-identical.
_ATOMIC_TWO_SITE = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(out[i % 7], a[i] * 1.0001f);
        atomicAdd(out[0], a[i]);
    }
}
"""

#: A float site inside a loop: successive iterations land on the same
#: addresses in an order the batch cannot reproduce — also "atomic-order".
_ATOMIC_FLOAT_LOOP = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = i; j < n; j += gridDim.x * blockDim.x) {
        atomicAdd(out[j % 5], a[j]);
    }
}
"""

#: Integer histogram in a loop with the result discarded: modular addition
#: is order-independent, so this stays on the fast path even though the
#: loop issues the site many times.
_ATOMIC_INT_LOOP = """
__global__ void k(int* hist, const int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = i; j < n; j += gridDim.x * blockDim.x) {
        atomicAdd(hist[a[j] % 16], 1);
    }
}
"""


def _simple_args(n=128):
    rng = np.random.default_rng(11)
    return {
        "out": np.zeros(n, dtype=np.float32),
        "a": rng.standard_normal(n, dtype=np.float32),
        "n": n,
    }


class TestMegablockFallbacks:
    def _run(self, src=_SIMPLE, grid=4, **kwargs):
        return run_kernel(src, grid, 32, _simple_args(), backend="megablock", **kwargs)

    def test_eligible_launch_batches(self):
        result = self._run()
        assert result.backend == "megablock"
        assert result.megablock_fallback is None

    @pytest.mark.parametrize("how", ["grid1", "sample1"])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_one_block_launch_batches(self, benches, name, how):
        """A launch that runs a single block — a one-block grid, or
        ``sample_blocks=1`` — batches like any other: no fallback, and its
        bytes, stats, per-line profile and modeled time equal interp's."""
        bench = benches[name]

        def run(backend):
            if how == "sample1":
                return bench.run_baseline(
                    backend=backend, sample_blocks=1, profile=True
                )
            return launch(
                bench.kernel, 1, bench.block_size, bench.make_args(),
                device=bench.device, const_arrays=bench.const_arrays(),
                backend=backend, profile=True,
            )

        ref = run("interp")
        got = run("megablock")
        assert got.backend == "megablock"
        assert got.megablock_fallback is None
        assert got.stats.blocks_executed == 1
        assert_identical(ref, got, f"{name} one block [{how}]")
        assert not ref.profile.diff_lines(got.profile), name
        assert ref.profile.blocks == got.profile.blocks, name
        assert got.milliseconds == ref.milliseconds

    def test_faults(self):
        result = self._run(
            faults=FaultInjector([FaultSpec(kind="bit_flip", block=1)]),
            on_error="status",
        )
        assert result.megablock_fallback == "faults"
        ref = run_kernel(
            _SIMPLE, 4, 32, _simple_args(), backend="interp",
            faults=FaultInjector([FaultSpec(kind="bit_flip", block=1)]),
            on_error="status",
        )
        assert_identical(ref, result, "faults fallback")

    def test_any_injector_falls_back(self):
        """Every fault kind needs an interpreter hook, so even an injector
        with nothing planted runs per block."""
        result = self._run(faults=FaultInjector())
        assert result.megablock_fallback == "faults"
        assert_identical(
            run_kernel(_SIMPLE, 4, 32, _simple_args(), backend="interp"),
            result, "empty injector fallback",
        )

    @pytest.mark.parametrize("flag", ["racecheck", "initcheck"])
    def test_sanitizer(self, flag):
        result = self._run(**{flag: True})
        assert result.megablock_fallback == "sanitizer"
        ref = run_kernel(
            _SIMPLE, 4, 32, _simple_args(), backend="interp", **{flag: True}
        )
        assert_identical(ref, result, f"{flag} fallback")

    def test_order_free_atomics_batch(self):
        """A single atomic site outside any loop is order-free: the batched
        segmented reduce reproduces the sequential fold exactly, so no
        fallback fires and the whole grid flattens into one megawarp row
        block."""
        result = run_kernel(_ATOMIC, 4, 32, _simple_args(), backend="megablock")
        assert result.megablock_fallback is None
        assert result.megablock_megawarp is True
        ref = run_kernel(_ATOMIC, 4, 32, _simple_args(), backend="interp")
        assert_identical(ref, result, "order-free atomics fast path")
        assert result.stats.atomic_serializations > 0

    def test_integer_loop_atomics_batch(self):
        """Integer adds with the old value discarded commute, so even a
        looped histogram stays on the fast path."""
        n = 256
        vals = np.random.default_rng(3).integers(0, 1000, n).astype(np.int32)

        def args():
            return {"hist": np.zeros(16, dtype=np.int32), "a": vals.copy(), "n": n}

        ref = run_kernel(_ATOMIC_INT_LOOP, 4, 32, args(), backend="interp")
        got = run_kernel(_ATOMIC_INT_LOOP, 4, 32, args(), backend="megablock")
        assert got.megablock_fallback is None
        assert got.megablock_megawarp is True
        assert_identical(ref, got, "integer loop atomics fast path")

    @pytest.mark.parametrize(
        "src", [_ATOMIC_TWO_SITE, _ATOMIC_FLOAT_LOOP],
        ids=["two-site", "float-loop"],
    )
    def test_atomic_order_fallback(self, src):
        """Kernels whose atomic accumulation order the batch cannot replay
        (multiple sites or float adds in loops) fall back per block with the
        "atomic-order" reason — and remain bit-identical, float rounding
        included."""
        result = run_kernel(src, 4, 32, _simple_args(), backend="megablock")
        assert result.megablock_fallback == "atomic-order"
        assert result.megablock_megawarp is None
        ref = run_kernel(src, 4, 32, _simple_args(), backend="interp")
        assert_identical(ref, result, "atomic-order fallback")

    def test_sim_fault_restores_and_reruns_per_block(self):
        """A fault inside the batched attempt must restore the global-memory
        snapshot and rerun per block, reproducing the exact located error."""
        src = """
        __global__ void k(float* out, const float* a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i + n] = a[i];
        }
        """
        got = run_kernel(
            src, 4, 32, _simple_args(), backend="megablock", on_error="status"
        )
        assert got.megablock_fallback == "sim-fault"
        assert got.error is not None
        ref = run_kernel(
            src, 4, 32, _simple_args(), backend="interp", on_error="status"
        )
        assert ref.error is not None
        assert ref.error.message == got.error.message
        assert np.array_equal(
            ref.gmem.buffers()["out"].data, got.gmem.buffers()["out"].data
        )

    def test_fallback_is_still_bit_identical(self):
        """The observable reason never costs correctness: an ineligible
        megablock launch equals the interpreter exactly."""
        ref = run_kernel(
            _SIMPLE, 4, 32, _simple_args(), backend="interp", racecheck=True
        )
        got = self._run(racecheck=True)
        assert_identical(ref, got, "sanitizer fallback")


# ---------------------------------------------------------------------------
# BK on the fast path: the one paper benchmark built on atomicAdd.  No xfail,
# no fallback — its integer histogram passes the order-freedom analysis, so
# the megablock engine batches it (and flattens it into a megawarp) while
# staying bit-identical to the interpreter, statistics included.
# ---------------------------------------------------------------------------


class TestBKFastPath:
    @pytest.fixture(scope="class")
    def bk(self):
        # 2048 elements -> a 2-block grid, so the batch folds atomics
        # across blocks and actually exercises flattening.
        return BENCHMARKS["BK"](elements=2048, block=32)

    def test_baseline_no_fallback(self, bk):
        ref = bk.run_baseline(backend="interp")
        got = bk.run_baseline(backend="megablock")
        assert got.megablock_fallback is None
        assert got.megablock_megawarp is True
        assert_identical(ref, got, "BK baseline fast path")
        assert got.stats.atomic_insts > 0

    def test_np_variant_no_fallback(self, bk):
        config = bk.configs()[0]
        ref = bk.run_variant(config, backend="interp")
        got = bk.run_variant(config, backend="megablock")
        assert got.megablock_fallback is None
        assert got.megablock_megawarp is True
        assert_identical(ref, got, f"BK {config.describe()} fast path")

    def test_atomic_serializations_counted(self, bk):
        """The collision counter agrees across both engines."""
        results = {
            be: bk.run_baseline(backend=be) for be in ("interp", "megablock")
        }
        serial = {be: r.stats.atomic_serializations for be, r in results.items()}
        assert serial["interp"] > 0
        assert len(set(serial.values())) == 1, serial
