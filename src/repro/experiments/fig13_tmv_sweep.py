"""Figure 13 — TMV vs CUBLAS across matrix widths (height fixed at 2K).

The width determines the total thread count of the baseline, so small
widths starve the GPU of TLP — exactly where CUDA-NP's extra slave threads
pay off.  Paper anchors: the baseline tracks CUBLAS, and at width 1K the
CUDA-NP version is 4.9× faster than CUBLAS.

Launches run at paper scale with block sampling (functional equivalence is
covered by the test suite at small scale).
"""

from __future__ import annotations

from ..kernels.cublas_proxy import CublasGemvT
from ..kernels.tmv import TmvBenchmark
from ..npc.config import NpConfig
from .util import ExperimentResult

FULL_WIDTHS = (1024, 2048, 4096, 8192, 16384)
FAST_WIDTHS = (256, 512, 1024)
NP_CONFIG = NpConfig(slave_size=8, np_type="inter")


def run(fast: bool = False) -> ExperimentResult:
    """Regenerate Fig. 13: TMV vs CUBLAS-proxy across matrix widths."""
    widths = FAST_WIDTHS if fast else FULL_WIDTHS
    height = 512 if fast else 2048
    sample = 2 if fast else 4
    result = ExperimentResult(
        exp_id="fig13",
        title=f"TMV sweep: widths x height={height} (modeled ms; lower is better)",
        headers=["width", "CUBLAS ms", "baseline ms", "CUDA-NP ms",
                 "NP vs CUBLAS", "NP vs baseline"],
    )
    anchor = None
    for w in widths:
        cublas = CublasGemvT(width=w, height=height, block=128)
        t_cublas = cublas.run_baseline(sample_blocks=sample).timing.seconds

        bench = TmvBenchmark(width=w, height=height, block=128)
        base = bench.run_baseline(sample_blocks=sample)
        t_base = base.timing.seconds
        t_np = bench.run_variant(NP_CONFIG, sample_blocks=sample).timing.seconds

        vs_cublas = t_cublas / t_np
        vs_base = t_base / t_np
        result.rows.append(
            [w, round(t_cublas * 1e3, 4), round(t_base * 1e3, 4),
             round(t_np * 1e3, 4), round(vs_cublas, 2), round(vs_base, 2)]
        )
        if w == 1024:
            anchor = vs_cublas
    result.paper_anchors = [
        ("baseline ~ CUBLAS", "similar", "see columns 2-3"),
    ]
    if anchor is not None:
        result.paper_anchors.append(
            ("CUDA-NP vs CUBLAS at width 1K", "4.9x", f"{anchor:.2f}x")
        )
    result.notes.append(
        "smaller widths -> fewer threads -> bigger CUDA-NP advantage "
        "(the paper's key trend)"
    )
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
