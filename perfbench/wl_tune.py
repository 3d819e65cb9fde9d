"""``tune``: the paper-figure sweep (Fig. 10/11 ``--fast``) as single points.

Each op is one point: a kernel's baseline or one of its CUDA-NP variants,
launched at ``paper_scale(name, fast=True)`` with the sampled blocks it
returns, on the default engine.  Variants are compiled in set-up, so every
op's ``compile_np`` is a warm variant-cache hit and the op is launch work.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import Counter

from common import PassWindow, Tracer, trace_launch

#: Kernels of one pass, in Table 1 order.  MV, SS, TMV and NN are left
#: out: their four points take 6-45 s per pass against 1-4.4 s for each
#: kernel here, so they would dominate a pass and a pass would not fit in
#: a run (see README.md).
KERNELS = ("MC", "LU", "LE", "LIB", "CFD", "BK")

#: Points per kernel: the baseline, then (np_type, slave_size) variants at
#: the ``--fast`` slave sizes.
POINTS = (None, ("inter", 4), ("inter", 8), ("intra", 8))


def plan() -> list[tuple[str, object]]:
    """One pass: (kernel, point) pairs."""
    return [(name, point) for name in KERNELS for point in POINTS]


def plan_signature(seed: int) -> list:
    """The seed chooses nothing in this workload but the checked points."""
    return plan()


def np_config(point):
    from repro.npc.config import NpConfig

    np_type, slaves = point
    return NpConfig(slave_size=slaves, np_type=np_type,
                    use_shfl=np_type == "intra", padded=np_type == "intra")


def fits(bench, point) -> bool:
    return point is None or (
        bench.flat_block_size * point[1] <= bench.device.max_threads_per_block
    )


class TuneWorkload:
    root_span = "tune.point"

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.engine: Counter = Counter()
        self.checked: dict[int, tuple] = {}
        self.ops = 0

    def setup(self) -> None:
        from repro.experiments.scales import paper_scale

        benches = {}
        self.points = []     # (kernel, point, bench, sample_blocks, config)
        for name, point in plan():
            if name not in benches:
                benches[name] = paper_scale(name, fast=True)
            bench, sample = benches[name]
            if not fits(bench, point):
                continue
            config = None
            if point is not None:
                config = np_config(point)
                bench.compile_variant(config)    # cold compile: set-up work
            self.points.append((name, point, bench, sample, config))
        # One baseline and one variant are checked, from the last pass.
        rng = random.Random(self.seed)
        self.check_positions = {
            rng.choice([i for i, p in enumerate(self.points) if p[4] is None]),
            rng.choice([i for i, p in enumerate(self.points) if p[4] is not None]),
        }

    def run(self, seconds: float) -> dict:
        from repro.npc.pipeline import variant_cache_stats

        before = variant_cache_stats()
        window = PassWindow(seconds)
        for pass_index in window.passes():
            for i, (name, _point, bench, sample, config) in enumerate(self.points):
                op = pass_index * len(self.points) + i
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = self._op(op, bench, sample, config)
                    result.raise_if_failed()
                except Exception as exc:  # a faulting point fails its op
                    self.failures.append(f"op {op} {name} {config}: {exc!r}")
                    continue
                window.op_done(i, time.perf_counter() - t0)
                self.engine[("backend", result.backend)] += 1
                self.engine[("megablock_fallback", result.megablock_fallback)] += 1
                self.engine[("megablock_megawarp", result.megablock_megawarp)] += 1
                if i in self.check_positions:
                    self.checked[i] = (op, result)    # the last pass wins
        after = variant_cache_stats()
        self.tracer.count("npc.variant_cache_hits", after.hits - before.hits)
        self.tracer.count("npc.variant_cache_misses", after.misses - before.misses)
        self.ops = window.ops
        return window.end_to_end()

    def _op(self, op: int, bench, sample: int, config):
        """The calls ``run_baseline`` / ``run_variant`` make, one span each."""
        from repro.gpusim.launch import launch
        from repro.npc.autotune import launch_variant

        tr = self.tracer
        with tr.span(self.root_span, op):
            if config is None:
                kernel = bench.kernel
                with tr.span("kernels.make_args", op):
                    args = bench.make_args()
                with tr.span("gpusim.launch", op):
                    result = launch(
                        kernel, bench.grid, bench.block_size, args,
                        device=bench.device, const_arrays=bench.const_arrays(),
                        sample_blocks=sample,
                    )
            else:
                with tr.span("npc.compile_np", op):
                    variant = bench.compile_variant(config)
                kernel = variant.kernel
                with tr.span("kernels.make_args", op):
                    args = bench.make_args()
                with tr.span("gpusim.launch", op):
                    result = launch_variant(
                        variant, bench.grid, args, device=bench.device,
                        const_arrays=bench.const_arrays(), sample_blocks=sample,
                    )
        if tr.enabled and result.ok:
            trace_launch(tr, op, kernel, result, bench.device)
        return result

    def check(self) -> list[str]:
        """Checked points of the last pass must equal an interp launch bit
        for bit, and the same kernel and config must match the numpy
        reference over the full grid at default size on the default engine
        (interp is the default, so the first check alone would compare the
        engine with itself)."""
        from repro.kernels import BENCHMARKS

        failures = []
        for i, (op, got) in sorted(self.checked.items()):
            name, point, bench, sample, config = self.points[i]
            if config is None:
                ref = bench.run_baseline(sample_blocks=sample, backend="interp")
            else:
                ref = bench.run_variant(config, sample_blocks=sample, backend="interp")
            same = (
                got.gmem.buffers().keys() == ref.gmem.buffers().keys()
                and all(got.buffer(b).tobytes() == ref.buffer(b).tobytes()
                        for b in ref.gmem.buffers())
                and dataclasses.asdict(got.stats) == dataclasses.asdict(ref.stats)
                and got.timing.milliseconds == ref.timing.milliseconds
            )
            if not same:
                failures.append(f"op {op} {name} {config}: differs from interp")
            small = BENCHMARKS[name]()
            if not fits(small, point):
                failures.append(f"{name} {config}: does not fit at default size")
                continue
            full = (small.run_baseline() if config is None
                    else small.run_variant(config))
            self.engine[("check_backend", full.backend)] += 1
            if not (full.ok and small.check(full)):
                failures.append(
                    f"{name} {config}: default size differs from the numpy reference"
                )
        return failures
