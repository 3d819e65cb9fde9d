"""Figure 10 — CUDA-NP speedup over the baseline, per benchmark + GM.

Each benchmark is auto-tuned over the §4 variant space (inter/intra-warp ×
slave sizes); the best functionally-correct variant's modeled time is
compared with the baseline's.  The paper reports speedups from 1.36× to
6.69× with a geometric mean of 2.18×.
"""

from __future__ import annotations

from ..gpusim.errors import SimError
from ..kernels import BENCHMARKS
from .scales import paper_scale
from .util import ExperimentResult, geomean

FAST_SLAVE_SIZES = (4, 8)
FULL_SLAVE_SIZES = (2, 4, 8, 16, 32)


def run(fast: bool = False) -> ExperimentResult:
    """Regenerate Fig. 10: auto-tuned CUDA-NP speedups + geometric mean."""
    result = ExperimentResult(
        exp_id="fig10",
        title="Speedup of CUDA-NP over baseline (auto-tuned best variant, "
              "paper-scale grids)",
        headers=["Benchmark", "best variant", "baseline ms", "best ms", "speedup"],
    )
    sizes = FAST_SLAVE_SIZES if fast else FULL_SLAVE_SIZES
    speedups = []
    for name in BENCHMARKS:
        bench, sample = paper_scale(name, fast=fast)
        try:
            report = bench.autotune(
                configs=bench.configs(slave_sizes=sizes),
                check=False,          # sampled launches: outputs are partial
                sample_blocks=sample,
            )
            best = report.best      # RuntimeError when every variant faulted
            speedup = report.best_speedup
        except (SimError, RuntimeError) as exc:
            result.add_failure(name, exc)
            continue
        speedups.append(speedup)
        result.rows.append(
            [
                name,
                best.label,
                round(report.baseline.timing.milliseconds, 4),
                round(best.seconds * 1e3, 4),
                round(speedup, 2),
            ]
        )
    gm = geomean(speedups)
    result.rows.append(["GM", "-", "-", "-", round(gm, 2)])
    result.paper_anchors = [
        ("speedup range", "1.36x .. 6.69x",
         f"{min(speedups):.2f}x .. {max(speedups):.2f}x"),
        ("geometric mean", "2.18x", f"{gm:.2f}x"),
    ]
    result.notes.append(
        "timing uses paper-scale grids with block sampling; functional "
        "equivalence of every variant is asserted by the test suite at "
        "full-execution scale"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
