"""``repro.prof`` — Nsight/nvprof-style profiling for the simulator.

The paper's evaluation is profile-driven: Table 1 characterizes the
benchmarks and Figs. 11-16 attribute CUDA-NP's speedups to occupancy,
latency hiding and memory behaviour.  A launch reports its profile on one
record, :attr:`~repro.gpusim.launch.LaunchResult.profile`; this package
collects, renders and compares it:

- :mod:`~repro.prof.counters` — per-source-line hotspot counters and
  per-block cost records, collected by both execution backends behind
  ``launch(..., profile=True)`` and bit-identical between them;
- :mod:`~repro.prof.timeline` — a launch-timeline recorder that assigns
  each block/warp an interval from the timing model and exports Chrome
  ``trace_event`` JSON (loadable in ``chrome://tracing`` / Perfetto);
- :mod:`~repro.prof.report` — terminal flame/top-lines hotspot report;
- ``python -m repro.prof`` — CLI: ``trace out.json``, ``top``, ``diff``.
"""

from .counters import BlockCost, KernelProfile, LineCounters
from .report import top_lines_report
from .timeline import (
    build_timeline,
    chrome_trace,
    save_trace,
    serve_events,
)

__all__ = [
    "BlockCost",
    "KernelProfile",
    "LineCounters",
    "build_timeline",
    "chrome_trace",
    "save_trace",
    "serve_events",
    "top_lines_report",
]
