"""Figure 15 — replacing a local-memory array: global vs shared vs register.

LE and LIB are the two benchmarks with live local arrays eligible for all
three §3.3 placements.  The paper finds: global memory doesn't help (local
memory is L1-cached, global is off-chip); shared helps LIB but *hurts* LE
(LE's array is ~2× larger, so the shared footprint crushes occupancy);
register partitioning wins for both.
"""

from __future__ import annotations

from ..kernels.le import LeBenchmark
from ..kernels.lib import LibBenchmark
from ..npc.config import NpConfig
from .util import ExperimentResult

PLACEMENTS = ("global", "shared", "partition")
SLAVE = 8


def run(fast: bool = False) -> ExperimentResult:
    """Regenerate Fig. 15: global vs shared vs register replacement."""
    result = ExperimentResult(
        exp_id="fig15",
        title=f"Local-array placement comparison (inter-warp, S={SLAVE}; "
              "speedup over baseline)",
        headers=["Benchmark", "global", "shared", "register(partition)",
                 "winner"],
    )
    # Occupancy pressure only shows at scale: run a large grid with block
    # sampling (functional equivalence is covered by the unit tests).
    scale = 512 if fast else 4096
    sample = 2 if fast else 4
    ranks = {}
    for cls, kwargs in ((LeBenchmark, {"positions": scale}), (LibBenchmark, {"npath": scale})):
        bench = cls(**kwargs)
        base = bench.run_baseline(sample_blocks=sample)
        speeds = {}
        for placement in PLACEMENTS:
            config = NpConfig(
                slave_size=SLAVE,
                np_type="inter",
                local_placement=placement,  # type: ignore[arg-type]
            )
            try:
                res = bench.run_variant(config, sample_blocks=sample)
                speeds[placement] = base.timing.seconds / res.timing.seconds
            except Exception:
                speeds[placement] = None
        winner = max(
            (p for p in PLACEMENTS if speeds[p] is not None),
            key=lambda p: speeds[p],
        )
        ranks[bench.name] = (speeds, winner)
        result.rows.append(
            [
                bench.name,
                _fmt(speeds["global"]),
                _fmt(speeds["shared"]),
                _fmt(speeds["partition"]),
                winner,
            ]
        )
    result.paper_anchors = [
        ("register partitioning wins for LE and LIB", "both",
         "both" if all(w == "partition" for _, w in ranks.values()) else "no"),
    ]
    le_speeds = ranks.get("LE", ({}, ""))[0]
    if le_speeds.get("shared") and le_speeds.get("partition"):
        result.paper_anchors.append(
            ("LE: heavy shared usage hurts vs registers", "shared < register",
             "yes" if le_speeds["shared"] < le_speeds["partition"] else "no")
        )
    return result


def _fmt(v):
    return "n/a" if v is None else round(v, 2)


if __name__ == "__main__":  # pragma: no cover
    print(run().format())
