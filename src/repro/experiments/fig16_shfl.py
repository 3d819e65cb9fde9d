"""Figure 16 — __shfl vs shared memory for reduction/scan (intra-warp NP).

For every benchmark with a reduction or scan, the intra-warp variant is
compiled twice — once exchanging partials through ``__shfl`` registers,
once through shared memory — and both are normalized to the best inter-warp
version (the paper's baseline for this figure).  The paper finds __shfl
matters most for MC and LU (whose shared memory is already the occupancy
bottleneck) and is minor elsewhere.
"""

from __future__ import annotations

from ..kernels import BENCHMARKS
from ..npc.config import NpConfig
from .scales import paper_scale
from .util import ExperimentResult

SLAVE = 8
INTER_SIZES = (4, 8)


def run(fast: bool = False) -> ExperimentResult:
    """Regenerate Fig. 16: __shfl vs shared-memory reduction/scan."""
    result = ExperimentResult(
        exp_id="fig16",
        title="Intra-warp NP: __shfl vs shared-memory reduction/scan "
              "(normalized to best inter-warp)",
        headers=["Benchmark", "intra+shfl", "intra+smem", "shfl speedup over smem"],
    )
    for name in BENCHMARKS:
        bench, sample = paper_scale(name, fast=fast)
        base = bench.run_baseline(sample_blocks=sample)
        # Best inter-warp version = the figure's 1.0 reference.
        best_inter = None
        for s in INTER_SIZES:
            if bench.flat_block_size * s > bench.device.max_threads_per_block:
                continue
            res = bench.run_variant(
                NpConfig(slave_size=s, np_type="inter"), sample_blocks=sample
            )
            if best_inter is None or res.timing.seconds < best_inter:
                best_inter = res.timing.seconds
        if best_inter is None:
            continue
        try:
            t_shfl = bench.run_variant(
                NpConfig(slave_size=SLAVE, np_type="intra", use_shfl=True, padded=True),
                sample_blocks=sample,
            ).timing.seconds
            t_smem = bench.run_variant(
                NpConfig(slave_size=SLAVE, np_type="intra", use_shfl=False, padded=True),
                sample_blocks=sample,
            ).timing.seconds
        except Exception:
            continue
        result.rows.append(
            [
                name,
                round(best_inter / t_shfl, 2),
                round(best_inter / t_smem, 2),
                round(t_smem / t_shfl, 2),
            ]
        )
    shfl_gains = {row[0]: row[3] for row in result.rows}
    helped = sorted(
        (n for n, g in shfl_gains.items() if g > 1.02), key=lambda n: -shfl_gains[n]
    )
    result.paper_anchors = [
        ("__shfl helps most where shared memory is the bottleneck",
         "MC, LU", ", ".join(helped[:3]) if helped else "(none)"),
    ]
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
