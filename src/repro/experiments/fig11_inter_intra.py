"""Figure 11 — inter-warp vs intra-warp NP across slave sizes.

For every benchmark, speedup over the baseline for each (NP type,
slave_size) point, "n/a" where the resulting thread block would exceed the
device limit.  Paper findings to reproduce: LU and NN are the only
benchmarks where intra-warp wins (divergence elimination / coalescing);
everywhere else inter-warp is at least as good; more slaves is not always
better.
"""

from __future__ import annotations

from ..gpusim.errors import SimError
from ..kernels import BENCHMARKS
from ..npc.config import INTRA_WARP_SLAVE_SIZES, NpConfig
from .scales import paper_scale
from .util import ExperimentResult, describe_failure

SLAVE_SIZES = (2, 4, 8, 16, 32)


def run(fast: bool = False) -> ExperimentResult:
    """Regenerate Fig. 11: inter- vs intra-warp NP across slave sizes."""
    sizes = (4, 8) if fast else SLAVE_SIZES
    headers = ["Benchmark"]
    for np_type in ("inter", "intra"):
        for s in sizes:
            headers.append(f"{np_type}-S{s}")
    result = ExperimentResult(
        exp_id="fig11",
        title="Speedup by NP type and slave size (n/a = config not applicable)",
        headers=headers,
    )
    winners: dict[str, str] = {}
    for name in BENCHMARKS:
        bench, sample = paper_scale(name, fast=fast)
        try:
            base = bench.run_baseline(sample_blocks=sample)
        except SimError as exc:
            result.add_failure(name, exc)
            continue
        row: list[object] = [name]
        best_by_type = {"inter": 0.0, "intra": 0.0}
        for np_type in ("inter", "intra"):
            for s in sizes:
                if bench.flat_block_size * s > bench.device.max_threads_per_block:
                    row.append("n/a")
                    continue
                if np_type == "intra" and s not in INTRA_WARP_SLAVE_SIZES:
                    row.append("n/a")
                    continue
                config = NpConfig(
                    slave_size=s,
                    np_type=np_type,
                    use_shfl=(np_type == "intra"),
                    padded=(np_type == "intra"),
                )
                try:
                    res = bench.run_variant(config, sample_blocks=sample)
                except SimError as exc:
                    row.append("fault")
                    result.failures.append(
                        f"{name} {np_type}-S{s}: {describe_failure(exc)}"
                    )
                    continue
                except Exception:
                    row.append("err")
                    continue
                speedup = base.timing.seconds / res.timing.seconds
                row.append(round(speedup, 2))
                best_by_type[np_type] = max(best_by_type[np_type], speedup)
        # intra "wins" a benchmark when clearly ahead (>10%), matching the
        # paper's qualitative reading ("the difference ... is minor" cases
        # are not winners).
        winners[name] = (
            "intra" if best_by_type["intra"] > 1.1 * best_by_type["inter"] else "inter"
        )
        result.rows.append(row)
    intra_winners = sorted(n for n, t in winners.items() if t == "intra")
    result.paper_anchors = [
        (
            "benchmarks where intra-warp NP wins",
            "LU, NN",
            ", ".join(intra_winners) if intra_winners else "(none)",
        )
    ]
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
