"""Software GPU: functional SIMT interpreter + analytical timing.

The substrate that stands in for the paper's GTX 680 / K20c hardware:

- :mod:`~repro.gpusim.device` — device specifications
- :mod:`~repro.gpusim.memory` — global/shared/local/constant memories
- :mod:`~repro.gpusim.coalescing` — transaction + bank-conflict models
- :mod:`~repro.gpusim.cache` — functional L1 + analytical capacity model
- :mod:`~repro.gpusim.interp` — warp-level interpreter (divergence masks)
- :mod:`~repro.gpusim.megablock` — batch-vectorized execution engine (default)
- :mod:`~repro.gpusim.compile` — kernel analyses + digest-keyed lowering cache
- :mod:`~repro.gpusim.occupancy` — CUDA occupancy calculator
- :mod:`~repro.gpusim.timing` — Hong–Kim MWP/CWP kernel-time model
- :mod:`~repro.gpusim.launch` — host-side launch API
- :mod:`~repro.gpusim.dynpar` — dynamic-parallelism overhead model
- :mod:`~repro.gpusim.report` — nvprof-style kernel profiles
- :mod:`~repro.gpusim.diagnostics` — located faults, sanitizer reports
- :mod:`~repro.gpusim.faults` — deterministic fault injection
- :mod:`~repro.gpusim.racecheck` — racecheck/initcheck sanitizer tools
"""

from .compile import (
    CompileCacheStats,
    clear_compile_cache,
    compile_cache_stats,
    kernel_digest,
)
from .device import FERMI, GTX680, K20C, DeviceSpec
from .diagnostics import FaultContext, FaultReport, render_report
from .errors import (
    DivergenceError,
    DynParError,
    InjectedFault,
    IntrinsicError,
    LaunchError,
    MemoryFault,
    SimError,
    SyncError,
)
from .faults import FaultInjector, FaultSpec, InjectionRecord
from .launch import LaunchResult, default_backend, launch, run_kernel
from .racecheck import Sanitizer, SanitizerFinding, SanitizerReport
from .report import compare_report, profile_report
from .occupancy import Occupancy, ResourceUsage, compute_occupancy
from .stats import KernelStats, PerWarpStats
from .timing import TimingResult, estimate_kernel_time

__all__ = [name for name in dir() if not name.startswith("_")]
