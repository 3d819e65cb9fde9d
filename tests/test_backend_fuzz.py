"""Randomized cross-backend differential fuzzing.

Every seeded kernel from :mod:`repro.testing.fuzzgen` must produce
bit-identical buffer bytes and exactly equal statistics on the megablock
engine as on the interpreter reference.  A failing seed is
automatically minimized so the report carries a small reproducing kernel.

The corpus size is an environment knob so CI can sweep a wider fixed-seed
range than a local ``pytest`` run:

* ``GPUSIM_FUZZ_COUNT`` — number of kernels (default 48)
* ``GPUSIM_FUZZ_SEED`` — base seed (default 20260808)
"""

import os
import re

import pytest

from repro.testing.fuzzgen import _PROLOGUE, BACKENDS, check, generate, minimize

FUZZ_COUNT = int(os.environ.get("GPUSIM_FUZZ_COUNT", "48"))
BASE_SEED = int(os.environ.get("GPUSIM_FUZZ_SEED", "20260808"))


@pytest.mark.parametrize("offset", range(FUZZ_COUNT))
def test_fuzz_kernel_differential(offset):
    seed = BASE_SEED + offset
    kern = generate(seed)
    failure = check(kern)
    if failure is None:
        return
    reduced = minimize(kern)
    reduced_failure = check(reduced) or failure
    pytest.fail(
        f"seed {seed} (grid={kern.grid}, block={kern.block}) diverged: "
        f"{failure}\nminimized to {len(reduced.chunks)} chunk(s) "
        f"({reduced_failure}):\n{reduced.source}"
    )


def test_generation_is_deterministic():
    """Same seed, same kernel — minimization and CI replay depend on it."""
    a, b = generate(BASE_SEED), generate(BASE_SEED)
    assert a.source == b.source
    assert (a.grid, a.block) == (b.grid, b.block)
    assert a.make_args()["a"].tobytes() == b.make_args()["a"].tobytes()
    assert generate(BASE_SEED + 1).source != a.source


def test_corpus_covers_every_feature():
    """The fixed-seed corpus must actually exercise the grammar: loops,
    divergent branches, shared staging with barriers, local arrays,
    shuffles, and atomics all have to appear, else the differential sweep
    silently stops testing a feature."""
    corpus = "\n".join(generate(BASE_SEED + i).source for i in range(FUZZ_COUNT))
    for feature in (
        "for (", "while (", "if (", "__shared__", "__syncthreads()",
        "__shfl", "atomicAdd(", "? ",
    ):
        assert feature in corpus, f"corpus never generated {feature!r}"


def test_corpus_is_valid_cuda_c():
    """The mini-CUDA front end accepts two things nvcc rejects, so the
    generator must avoid them itself: a float literal without a decimal
    point (``3f``), and a chunk redeclaring a prologue name (``float v0``
    after the prologue's ``int v0``).  Checked over at least CI's
    200-kernel corpus; generation is cheap."""
    prologue = {re.match(r"\w+ (\w+)", line).group(1) for line in _PROLOGUE}
    for offset in range(max(FUZZ_COUNT, 200)):
        kern = generate(BASE_SEED + offset)
        literals = re.findall(r"(?<![\w.])[\d.]+f\b", kern.source)
        bare = [lit for lit in literals if re.fullmatch(r"\d+f", lit)]
        assert not bare, f"seed {kern.seed}: float literals {bare}"
        for chunk in kern.chunks:
            declared = set(re.findall(r"\b(?:int|float)\s+(\w+)", chunk))
            assert not declared & prologue, (
                f"seed {kern.seed} redeclares {declared & prologue}:\n{chunk}"
            )


def test_corpus_reaches_both_memory_paths(mb_paths):
    """Megablock's memory hooks have a full-mask path (block-invariant or
    row-varying indices) and a general per-lane path.  The corpus must
    drive global, local and shared accesses down both, and global and
    local ones at block-invariant indices, else the differential sweep
    silently stops testing a path."""
    from repro.gpusim.launch import run_kernel

    for offset in range(FUZZ_COUNT):
        kern = generate(BASE_SEED + offset)
        run_kernel(
            kern.source, kern.grid, kern.block, kern.make_args(),
            backend="megablock", on_error="status",
        )
    for space in ("global", "local", "shared"):
        full = mb_paths[(space, "warp")] + mb_paths[(space, "rows")]
        assert full > 0, f"no full-mask {space} access"
        assert mb_paths[(space, "general")] > 0, f"no general {space} access"
    for space in ("global", "local"):
        assert mb_paths[(space, "warp")] > 0, f"no block-invariant {space} access"


def test_minimizer_reduces_to_single_chunk():
    """Against a synthetic failure predicate ('contains an atomicAdd') the
    greedy minimizer must strip every unrelated chunk and keep a kernel
    that still triggers the predicate."""
    kern = None
    for offset in range(256):
        candidate = generate(BASE_SEED + offset)
        if sum("atomicAdd(" in c for c in candidate.chunks) == 1 and len(candidate.chunks) > 2:
            kern = candidate
            break
    assert kern is not None, "no multi-chunk kernel with one atomic chunk found"
    failing = lambda k: any("atomicAdd(" in c for c in k.chunks)
    reduced = minimize(kern, failing)
    assert len(reduced.chunks) == 1
    assert "atomicAdd(" in reduced.chunks[0]
    assert failing(reduced)
    # The reduced kernel is still a valid, runnable program.
    assert check(reduced) is None


def test_minimizer_rejects_passing_kernel():
    kern = generate(BASE_SEED)
    assert check(kern) is None
    with pytest.raises(ValueError):
        minimize(kern)


def test_backends_constant_matches_launch_ladder():
    """The fuzzer compares every engine the launch path exposes besides
    the interp reference; if a new backend is added this reminds us to
    fuzz it."""
    from repro.gpusim.launch import BACKENDS as LAUNCH_BACKENDS

    assert BACKENDS == ("megablock",)
    assert set(BACKENDS) | {"interp"} == set(LAUNCH_BACKENDS)
