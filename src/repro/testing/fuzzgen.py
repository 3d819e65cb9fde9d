"""Seeded mini-CUDA kernel fuzzer for cross-backend differential testing.

:func:`generate` derives a random — but fully deterministic per seed —
kernel from a small race-free grammar: nested loops, divergent branches,
shared staging through ``__syncthreads``, local arrays, block-invariant
addressing, warp shuffles with literal widths, and global atomics (both
the order-free shapes the megablock engine batches and the
order-sensitive shapes that must take its ``"atomic-order"``
fallback).  Every generated kernel is legal by
construction: indices are reduced modulo the buffer size, each thread
writes only its own output slots (or goes through ``atomicAdd``), shared
arrays follow the write → barrier → read discipline, and barriers only
appear at top level where the whole block reaches them.

:func:`check` runs one kernel through the interpreter reference and the
megablock engine on identical inputs and demands *bit-identical* buffer bytes
plus exactly equal :class:`~repro.gpusim.stats.KernelStats`.  When a kernel
fails, :func:`minimize` greedily deletes body chunks while the failure
reproduces, returning a reduced kernel whose source is small enough to read
in a test report.

Structure note: a kernel body is a prologue (thread ids, seed scalars)
followed by independent *chunks*.  Each chunk owns uniquely-numbered
locals and is self-contained, so the minimizer can drop any subset and the
remainder still compiles — that is what makes greedy reduction sound.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional, Sequence

import numpy as np

from ..gpusim.launch import run_kernel

__all__ = ["FuzzKernel", "generate", "check", "minimize", "BACKENDS"]

#: Engines compared against the ``interp`` reference.
BACKENDS = ("megablock",)

#: Sizes of the two small buffers shared by atomic chunks.
_FACC = 8
_HIST = 16

_SIGNATURE = (
    "__global__ void fz(float* fout, int* iout, float* facc, int* ihist, "
    "const float* a, const int* b, int n)"
)

_PROLOGUE = [
    "int tid = threadIdx.x;",
    "int gid = blockIdx.x * blockDim.x + tid;",
    "float f0 = a[gid];",
    "int v0 = b[gid];",
]


@dataclasses.dataclass(frozen=True)
class FuzzKernel:
    """One generated kernel plus everything needed to launch it."""

    seed: int
    grid: int
    block: int
    chunks: tuple[str, ...]

    @property
    def nthreads(self) -> int:
        return self.grid * self.block

    @property
    def source(self) -> str:
        lines = [_SIGNATURE + " {"]
        for line in _PROLOGUE:
            lines.append("    " + line)
        for chunk in self.chunks:
            for line in chunk.splitlines():
                lines.append("    " + line)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def make_args(self) -> dict:
        """Fresh, deterministic launch arguments (regenerable per run)."""
        n = self.nthreads
        rng = np.random.default_rng(self.seed)
        return {
            "fout": np.zeros(n, dtype=np.float32),
            "iout": np.zeros(n, dtype=np.int32),
            "facc": np.zeros(_FACC, dtype=np.float32),
            "ihist": np.zeros(_HIST, dtype=np.int32),
            "a": rng.standard_normal(n).astype(np.float32),
            "b": rng.integers(0, 997, n).astype(np.int32),
            "n": n,
        }

    def replace_chunks(self, chunks: Sequence[str]) -> "FuzzKernel":
        return dataclasses.replace(self, chunks=tuple(chunks))


# ---------------------------------------------------------------------------
# Expression grammar.  Integer expressions avoid division, shifts, and any
# value-dependent control over memory safety; every array read is reduced
# modulo its length.  Float expressions may produce NaN/inf — both are
# deterministic and compared bit-for-bit.
# ---------------------------------------------------------------------------


def _iexpr(rng: random.Random, depth: int = 0) -> str:
    atoms = ["tid", "gid", "v0", str(rng.randrange(1, 64))]
    if depth >= 2 or rng.random() < 0.35:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    x = _iexpr(rng, depth + 1)
    y = _iexpr(rng, depth + 1)
    if kind == 0:
        return f"({x} {rng.choice(['+', '-', '*', '^', '&', '|'])} {y})"
    if kind == 1:
        return f"({x} % {rng.randrange(2, 33)})"
    if kind == 2:
        return f"{rng.choice(['min', 'max'])}({x}, {y})"
    if kind == 3:
        return f"b[({x} + {rng.randrange(0, 17)}) % n]"
    if kind == 4:
        return f"abs({x})"
    return f"({_icond(rng, depth + 1)} ? {x} : {y})"


def _icond(rng: random.Random, depth: int = 0) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return f"(({_iexpr(rng, depth)} & {rng.choice([1, 3, 7])}) == 0)"
    if kind == 1:
        return f"({_iexpr(rng, depth)} {rng.choice(['<', '>', '<=', '>=', '=='])} {_iexpr(rng, depth)})"
    return f"({_fexpr(rng, depth + 1)} {rng.choice(['<', '>'])} {_fexpr(rng, depth + 1)})"


def _flit(rng: random.Random) -> str:
    """A float literal; ``repr`` keeps the decimal point (``1.0f``, not the
    ``1f`` that C rejects)."""
    return f"{rng.choice([0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0])!r}f"


def _fexpr(rng: random.Random, depth: int = 0) -> str:
    atoms = ["f0", _flit(rng), f"a[(gid * {rng.randrange(1, 5)} + {rng.randrange(0, 9)}) % n]"]
    if depth >= 2 or rng.random() < 0.3:
        return rng.choice(atoms)
    kind = rng.randrange(6)
    x = _fexpr(rng, depth + 1)
    y = _fexpr(rng, depth + 1)
    if kind == 0:
        return f"({x} {rng.choice(['+', '-', '*'])} {y})"
    if kind == 1:
        return f"{rng.choice(['fminf', 'fmaxf'])}({x}, {y})"
    if kind == 2:
        return f"fabsf({x})"
    if kind == 3:
        return f"sqrtf(fabsf({x}))"
    if kind == 4:
        return f"(float)({_iexpr(rng, depth + 1)} % 97)"
    return f"({_icond(rng, depth + 1)} ? {x} : {y})"


# ---------------------------------------------------------------------------
# Chunk generators.  ``k`` numbers the chunk so its locals never collide
# with another chunk's; each returns a self-contained source fragment.  A
# local is a letter prefix plus ``k``, and no prefix is ``f`` or ``v``, so
# no chunk redeclares the prologue's ``f0`` or ``v0``.
# ---------------------------------------------------------------------------


def _accum(rng: random.Random, value: str) -> str:
    """Fold ``value`` into this thread's own output slot (race-free)."""
    if rng.random() < 0.5:
        return f"fout[gid] = fout[gid] * 0.5f + ({value});"
    return f"fout[gid] = fout[gid] + ({value});"


def _chunk_arith(rng: random.Random, k: int, block: int) -> str:
    if rng.random() < 0.5:
        return "\n".join([
            f"float t{k} = {_fexpr(rng)};",
            _accum(rng, f"t{k}"),
        ])
    return "\n".join([
        f"int u{k} = {_iexpr(rng)};",
        f"iout[gid] = (iout[gid] ^ u{k}) + {rng.randrange(1, 9)};",
    ])


def _chunk_branch(rng: random.Random, k: int, block: int) -> str:
    lines = [f"if ({_icond(rng)}) {{"]
    lines.append(f"    {_accum(rng, _fexpr(rng))}")
    if rng.random() < 0.5:
        # One nested level of divergence.
        lines.append(f"    if ({_icond(rng)}) {{")
        lines.append(f"        iout[gid] = iout[gid] + {_iexpr(rng)};")
        lines.append("    }")
    lines.append("} else {")
    lines.append(f"    iout[gid] = iout[gid] - {_iexpr(rng)};")
    lines.append("}")
    return "\n".join(lines)


def _chunk_loop(rng: random.Random, k: int, block: int) -> str:
    bound = rng.choice([str(rng.randrange(2, 6)), f"(tid % {rng.randrange(2, 6)}) + 1"])
    lines = [
        f"float s{k} = 0.0f;",
        f"for (int i{k} = 0; i{k} < {bound}; i{k} = i{k} + 1) {{",
        f"    s{k} = s{k} + a[(gid + i{k} * {rng.randrange(1, 7)}) % n] * {_flit(rng)};",
    ]
    if rng.random() < 0.4:
        # Nested inner loop with a fixed trip count.
        lines.append(f"    for (int j{k} = 0; j{k} < {rng.randrange(2, 4)}; j{k} = j{k} + 1) {{")
        lines.append(f"        s{k} = s{k} * 0.75f + (float)(j{k} + i{k});")
        lines.append("    }")
    if rng.random() < 0.35:
        lines.append(f"    if ({_icond(rng)}) {{ {rng.choice(['break;', 'continue;'])} }}")
        lines.append(f"    s{k} = s{k} + 0.125f;")
    lines.append("}")
    lines.append(_accum(rng, f"s{k}"))
    return "\n".join(lines)


def _chunk_while(rng: random.Random, k: int, block: int) -> str:
    return "\n".join([
        f"int w{k} = 0;",
        f"float h{k} = f0;",
        f"while (w{k} < (gid % {rng.randrange(3, 8)}) + 1) {{",
        f"    h{k} = h{k} * {_flit(rng)} + a[(gid * 2 + w{k}) % n];",
        f"    w{k} = w{k} + 1;",
        "}",
        _accum(rng, f"h{k}"),
    ])


def _chunk_local_array(rng: random.Random, k: int, block: int) -> str:
    size = rng.choice([2, 4, 8])
    lines = [f"float l{k}[{size}];"]
    lines.append(f"for (int i{k} = 0; i{k} < {size}; i{k} = i{k} + 1) {{")
    lines.append(f"    l{k}[i{k}] = a[(gid + i{k}) % n] * {_flit(rng)};")
    lines.append("}")
    lines.append(_accum(rng, f"l{k}[{_iexpr(rng)} % {size}]"))
    return "\n".join(lines)


def _chunk_shared(rng: random.Random, k: int, block: int) -> str:
    """Write own slot → barrier → read a rotated slot, the read sometimes
    under a divergent branch.  Race-free, and the barrier sits at top level
    so every thread in the block reaches it."""
    delta = rng.randrange(1, block)
    if rng.random() < 0.5:
        lines = [
            f"__shared__ float sh{k}[{block}];",
            f"sh{k}[tid] = {_fexpr(rng)};",
            "__syncthreads();",
            _accum(rng, f"sh{k}[(tid + {delta}) % {block}]"),
        ]
    else:
        lines = [
            f"__shared__ int si{k}[{block}];",
            f"si{k}[tid] = {_iexpr(rng)};",
            "__syncthreads();",
            f"iout[gid] = iout[gid] + si{k}[(tid + {delta}) % {block}];",
        ]
    if rng.random() < 0.5:
        lines[-1:] = [f"if ({_icond(rng)}) {{", f"    {lines[-1]}", "}"]
    return "\n".join(lines)


def _chunk_shuffle(rng: random.Random, k: int, block: int) -> str:
    width = rng.choice([4, 8, 16, 32])
    lines = [f"float x{k} = {_fexpr(rng)};"]
    kind = rng.randrange(3)
    if kind == 0:
        lines.append(f"float r{k} = __shfl(x{k}, (tid + {rng.randrange(0, width)}) % {width}, {width});")
    elif kind == 1:
        lines.append(f"float r{k} = __shfl_down(x{k}, {rng.randrange(1, width)}, {width});")
    else:
        lines.append(f"float r{k} = __shfl_up(x{k}, {rng.randrange(1, width)}, {width});")
    lines.append(_accum(rng, f"r{k}"))
    return "\n".join(lines)


def _chunk_atomic(rng: random.Random, k: int, block: int) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        # Discarded integer histogram — order-free even inside a loop.
        if rng.random() < 0.5:
            return f"atomicAdd(ihist[{_iexpr(rng)} % {_HIST}], {rng.randrange(1, 5)});"
        return "\n".join([
            f"for (int i{k} = 0; i{k} < {rng.randrange(2, 5)}; i{k} = i{k} + 1) {{",
            f"    atomicAdd(ihist[(gid + i{k}) % {_HIST}], 1);",
            "}",
        ])
    if kind == 1:
        # Float accumulate, single top-level site.  Two such chunks make a
        # multi-site kernel and exercise the "atomic-order" fallback.
        return f"atomicAdd(facc[{_iexpr(rng)} % {_FACC}], {_fexpr(rng)});"
    if kind == 2:
        # The returned old value feeds a private slot.
        return "\n".join([
            f"int o{k} = atomicAdd(ihist[{rng.randrange(0, _HIST)}], {rng.randrange(1, 4)});",
            f"iout[gid] = iout[gid] + o{k} * {rng.randrange(1, 4)};",
        ])
    # Float atomic inside a loop: order-sensitive, must fall back exactly.
    return "\n".join([
        f"for (int i{k} = 0; i{k} < {rng.randrange(2, 4)}; i{k} = i{k} + 1) {{",
        f"    atomicAdd(facc[(gid + i{k}) % {_FACC}], a[(gid + i{k}) % n]);",
        "}",
    ])


def _chunk_invariant(rng: random.Random, k: int, block: int) -> str:
    """A global read and a local store at indices built only from a loop
    counter and ``threadIdx``, sometimes under a divergent branch.  In a
    one-warp block these indices are the same in every block, the
    block-invariant addressing megablock's full-mask path reduces once."""
    size = rng.choice([2, 4, 8])
    loop = [
        f"for (int i{k} = 0; i{k} < {size}; i{k} = i{k} + 1) {{",
        f"    q{k}[(i{k} + tid) % {size}] = "
        f"a[(tid * {rng.randrange(1, 5)} + i{k}) % n] * {_flit(rng)};",
        "}",
    ]
    lines = [f"float q{k}[{size}];"]
    if rng.random() < 0.5:
        lines.append(f"if ({_icond(rng)}) {{")
        lines.extend("    " + line for line in loop)
        lines.append("}")
    else:
        lines.extend(loop)
    lines.append(_accum(rng, f"q{k}[(tid + {rng.randrange(0, size)}) % {size}]"))
    return "\n".join(lines)


_CHUNKS: tuple[Callable[[random.Random, int, int], str], ...] = (
    _chunk_arith,
    _chunk_branch,
    _chunk_loop,
    _chunk_while,
    _chunk_local_array,
    _chunk_shared,
    _chunk_shuffle,
    _chunk_atomic,
    _chunk_invariant,
)


def generate(seed: int) -> FuzzKernel:
    """Deterministically derive one fuzz kernel from ``seed``."""
    rng = random.Random(seed)
    grid = rng.choice([2, 3, 4])
    block = rng.choice([32, 64])
    nchunks = rng.randrange(3, 9)
    chunks = []
    for k in range(nchunks):
        maker = rng.choice(_CHUNKS)
        chunks.append(maker(rng, k, block))
    return FuzzKernel(seed=seed, grid=grid, block=block, chunks=tuple(chunks))


# ---------------------------------------------------------------------------
# Differential check and minimizer.
# ---------------------------------------------------------------------------


def check(kern: FuzzKernel, backends: Sequence[str] = BACKENDS) -> Optional[str]:
    """Run ``kern`` on every backend; return a divergence description or
    ``None`` when all engines are bit-identical to the interpreter."""
    ref = run_kernel(
        kern.source, kern.grid, kern.block, kern.make_args(),
        backend="interp", on_error="status",
    )
    for backend in backends:
        got = run_kernel(
            kern.source, kern.grid, kern.block, kern.make_args(),
            backend=backend, on_error="status",
        )
        ref_msg = ref.error.message if ref.error else None
        got_msg = got.error.message if got.error else None
        if ref_msg != got_msg:
            return f"[{backend}] error mismatch: {ref_msg!r} vs {got_msg!r}"
        ref_bufs = ref.gmem.buffers()
        got_bufs = got.gmem.buffers()
        for name in ref_bufs:
            if ref_bufs[name].data.tobytes() != got_bufs[name].data.tobytes():
                idx = np.nonzero(
                    ref_bufs[name].data.view(np.uint8)
                    != got_bufs[name].data.view(np.uint8)
                )[0]
                return (
                    f"[{backend}] buffer {name!r} differs "
                    f"(first byte {int(idx[0])} of {ref_bufs[name].data.nbytes})"
                )
        if ref.stats != got.stats:
            diffs = [
                f"{f}: {getattr(ref.stats, f)} != {getattr(got.stats, f)}"
                for f in ref.stats.__dataclass_fields__
                if getattr(ref.stats, f) != getattr(got.stats, f)
            ]
            return f"[{backend}] stats diverged: " + "; ".join(diffs)
    return None


def minimize(
    kern: FuzzKernel,
    failing: Optional[Callable[[FuzzKernel], bool]] = None,
) -> FuzzKernel:
    """Greedy chunk deletion: repeatedly drop any chunk whose removal keeps
    the kernel failing, until no single deletion reproduces the failure.

    Chunks are independent by construction, so every subset compiles; the
    result is the smallest kernel this (1-minimal) strategy can reach."""
    if failing is None:
        failing = lambda k: check(k) is not None
    if not failing(kern):
        raise ValueError("minimize() needs a kernel that currently fails")
    chunks = list(kern.chunks)
    shrunk = True
    while shrunk and len(chunks) > 1:
        shrunk = False
        for i in range(len(chunks)):
            candidate = kern.replace_chunks(chunks[:i] + chunks[i + 1:])
            if failing(candidate):
                chunks.pop(i)
                shrunk = True
                break
    return kern.replace_chunks(chunks)
