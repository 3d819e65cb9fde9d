"""``compile``: cold CUDA-NP compilation of never-seen kernel sources.

Each op takes one of the ten paper kernels with a seeded edit that keeps
its meaning (every local variable renamed with an op-unique suffix), so
no content-keyed cache can serve it, and runs what ``python -m repro.npc``
and a cold auto-tune pay before the first launch: ``parse_kernel`` ->
``enumerate_configs`` -> ``compile_np`` per config -> ``emit_kernel`` per
variant.  Nothing is launched inside the timed window.
"""

from __future__ import annotations

import random
import re
import time
from collections import Counter

from common import PassWindow, Tracer

#: Kernels of one pass, in Table 1 order.
KERNELS = ("MC", "LU", "LE", "MV", "SS", "LIB", "CFD", "BK", "TMV", "NN")

#: Variants per run re-launched over the full grid and checked.
CHECKED_VARIANTS = 2


def local_names(kernel) -> list[str]:
    from repro.minicuda.nodes import VarDecl, walk

    return sorted({n.name for n in walk(kernel.body) if isinstance(n, VarDecl)})


class Editor:
    """Renames a kernel's locals; the suffix is fixed-width per op."""

    def __init__(self, source: str, names: list[str]) -> None:
        self.source = source
        # Not after '.' (member access such as threadIdx.x) or inside a word.
        self.pattern = re.compile(
            r"(?<![\w.])(" + "|".join(map(re.escape, names)) + r")(?!\w)"
        )

    def edit(self, seed: int, op: int) -> str:
        tag = f"_s{seed % 10**6:06d}o{op:06d}"
        return self.pattern.sub(lambda m: m.group(1) + tag, self.source)


def _inputs() -> dict:
    from repro.kernels import BENCHMARKS
    from repro.minicuda.parser import parse_kernel

    inputs = {}
    for name in KERNELS:
        bench = BENCHMARKS[name]()
        inputs[name] = (bench, Editor(bench.source, local_names(parse_kernel(bench.source))))
    return inputs


def plan_signature(seed: int) -> list:
    """What the seed must not change: kernel order, and per kernel the
    configs its edited source enumerates."""
    from repro.minicuda.parser import parse_kernel
    from repro.npc.pipeline import enumerate_configs

    signature = []
    for name, (bench, editor) in _inputs().items():
        kernel = parse_kernel(editor.edit(seed, 0))
        signature.append(
            (name, enumerate_configs(kernel, bench.flat_block_size, bench.device))
        )
    return signature


class CompileWorkload:
    root_span = "compile.kernel"

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.engine: Counter = Counter()
        self.variants_per_kernel: dict[str, set] = {}
        self.ops_per_kernel: Counter = Counter()
        self.first_variants: dict[str, list] = {}   # traced run only
        self.kept: list[tuple] = []
        self.seen = 0
        self.ops = 0

    def setup(self) -> None:
        self.inputs = _inputs()
        self.rng = random.Random(self.seed)

    def run(self, seconds: float) -> dict:
        from repro.npc.pipeline import variant_cache_stats

        before = variant_cache_stats()
        window = PassWindow(seconds)
        for pass_index in window.passes():
            for i, name in enumerate(KERNELS):
                op = pass_index * len(KERNELS) + i
                bench, editor = self.inputs[name]
                source = editor.edit(self.seed, op)
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    variants = self._op(op, bench, source)
                except Exception as exc:
                    self.failures.append(f"op {op} {name}: {exc!r}")
                    continue
                window.op_done(i, time.perf_counter() - t0)
                self.variants_per_kernel.setdefault(name, set()).add(len(variants))
                self.ops_per_kernel[name] += 1
                if self.tracer.enabled:
                    self.first_variants.setdefault(name, variants)
                # Reservoir-sample the variants the check re-launches.
                for variant in variants:
                    self._keep((op, name, bench, variant))
        after = variant_cache_stats()
        self.tracer.count("npc.variant_cache_hits", after.hits - before.hits)
        self.tracer.count("npc.variant_cache_misses", after.misses - before.misses)
        self._count_ir_nodes()
        self.ops = window.ops
        return window.end_to_end()

    def _count_ir_nodes(self) -> None:
        """AST nodes the run emitted, counted after the window.

        An edit only renames identifiers, so every op of a kernel emits
        the same nodes as its first op; the first op's variants stand for
        all of them.
        """
        from repro.minicuda.nodes import walk

        for name, variants in self.first_variants.items():
            nodes = sum(sum(1 for _ in walk(v.kernel)) for v in variants)
            self.tracer.count("npc.ir_nodes", nodes * self.ops_per_kernel[name])

    def _keep(self, item: tuple) -> None:
        self.seen += 1
        if len(self.kept) < CHECKED_VARIANTS:
            self.kept.append(item)
        else:
            slot = self.rng.randrange(self.seen)
            if slot < CHECKED_VARIANTS:
                self.kept[slot] = item

    def _op(self, op: int, bench, source: str) -> list:
        from repro.minicuda.errors import MiniCudaError
        from repro.minicuda.parser import parse_kernel
        from repro.minicuda.pretty import emit_kernel
        from repro.npc.pipeline import compile_np, enumerate_configs

        tr = self.tracer
        variants = []
        errors = 0
        with tr.span(self.root_span, op):
            with tr.span("minicuda.parse", op):
                kernel = parse_kernel(source)
            with tr.span("npc.enumerate", op):
                configs = enumerate_configs(
                    kernel, bench.flat_block_size, bench.device
                )
            for config in configs:
                try:
                    with tr.span("npc.compile_np", op):
                        variant = compile_np(
                            kernel, bench.block_size, config, device=bench.device
                        )
                except (MiniCudaError, ValueError):
                    errors += 1
                    continue
                with tr.span("minicuda.emit", op):
                    emit_kernel(variant.kernel)
                variants.append(variant)
        tr.count("npc.variants", len(variants))
        tr.count("npc.transform_errors", errors)
        return variants

    def check(self) -> list[str]:
        """Sampled variants of edited sources must match the numpy reference
        over the full grid at default size, and every op of one kernel must
        have yielded the same number of variants."""
        from repro.npc.autotune import launch_variant

        failures = [
            f"{name}: variant counts differ between ops: {sorted(counts)}"
            for name, counts in self.variants_per_kernel.items()
            if len(counts) != 1
        ]
        for op, name, bench, variant in self.kept:
            result = launch_variant(
                variant, bench.grid, bench.make_args(), device=bench.device,
                const_arrays=bench.const_arrays(),
            )
            self.engine[("check_backend", result.backend)] += 1
            if not bench.check(result):
                failures.append(
                    f"op {op} {name} {variant.config.describe()}: "
                    "output differs from the numpy reference"
                )
        return failures
