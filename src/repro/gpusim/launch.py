"""Kernel launch API: the simulator's host-side runtime.

``launch`` plays the role of ``kernel<<<grid, block>>>(args)``: it allocates
global buffers for array arguments, runs every thread block on one of the
simulator's two bit-identical engines (by default the batched megablock
engine; optionally sampling blocks for very large grids), and combines
the collected statistics with the occupancy calculator and the Hong–Kim
timing model into a :class:`LaunchResult`.

Error model (CUDA-style).  A faulting launch behaves like a sticky per-launch
device error: with ``on_error="raise"`` (the default) the enriched
:class:`~repro.gpusim.errors.SimError` — carrying a located
:class:`~repro.gpusim.diagnostics.FaultContext` — propagates to the caller;
with ``on_error="status"`` the launch *returns* and the result's
:attr:`LaunchResult.error` holds a :class:`~repro.gpusim.diagnostics.FaultReport`
the way ``cudaGetLastError`` + ``compute-sanitizer`` would describe it.
``faults`` accepts a :class:`~repro.gpusim.faults.FaultInjector` consulted at
every interpreter hook point.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

import numpy as np

from ..minicuda.nodes import Kernel, PointerType
from ..minicuda.parser import parse_kernel
from ..prof.counters import KernelProfile
from .megablock import (
    MegaProfile,
    MegablockExecutor,
    compile_megablock,
    megablock_flatten,
)
from .device import DeviceSpec, GTX680
from .diagnostics import FaultContext, FaultReport
from .errors import LaunchError, SimError
from .interp import WARP_SIZE, BlockExecutor, WarpScaffold
from .memory import ConstArray, GlobalMemory, dtype_for
from .occupancy import Occupancy, ResourceUsage, compute_occupancy
from .racecheck import Sanitizer, SanitizerReport
from .stats import KernelStats
from .timing import TimingResult, estimate_kernel_time

Dim = Union[int, tuple[int, ...]]


#: The engines a launch can name: the batched default, then the reference.
BACKENDS = ("megablock", "interp")


def default_backend() -> str:
    """The engine a launch that names none runs: ``GPUSIM_BACKEND`` when
    set, else ``"megablock"``, the fast engine.  ``"interp"`` stays the
    reference oracle, selected explicitly.  Any other value of the variable
    raises a :class:`ValueError` that names it."""
    name = os.environ.get("GPUSIM_BACKEND") or "megablock"
    if name not in BACKENDS:
        raise ValueError(
            f"GPUSIM_BACKEND must be 'megablock' or 'interp', got {name!r}"
        )
    return name


def _as_dim3(value: Dim) -> tuple[int, int, int]:
    if isinstance(value, int):
        value = (value,)
    given = tuple(int(v) for v in value)
    if len(given) > 3:
        raise LaunchError(
            f"dimensions are at most 3-D, got {len(given)} components: {value!r}"
        )
    dims = given + (1, 1, 1)
    if any(v <= 0 for v in dims[:3]):
        raise LaunchError(f"dimensions must be positive, got {value!r}")
    return dims[:3]


@dataclass
class LaunchResult:
    """Everything a host program learns from one simulated launch.

    A *failed* launch (``on_error="status"``) still returns a result:
    :attr:`error` carries the located :class:`FaultReport`, :attr:`ok` is
    False, and the model outputs (:attr:`occupancy`, :attr:`timing`,
    :attr:`usage`) are ``None`` — like device memory after a sticky CUDA
    error, the partial statistics are retained for post-mortem only.
    """

    kernel_name: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    device: DeviceSpec
    stats: KernelStats
    occupancy: Optional[Occupancy]
    timing: Optional[TimingResult]
    usage: Optional[ResourceUsage]
    gmem: GlobalMemory
    sampled_blocks: Optional[int] = None
    #: The exact (ascending, deduplicated) linear block IDs executed when
    #: ``sample_blocks`` sampled the grid; None for a full-grid launch.
    sampled_block_ids: Optional[tuple[int, ...]] = None
    #: Execution backend that ran the launch: "megablock" or "interp".
    backend: str = "interp"
    #: Why a megablock launch (the default engine) executed its blocks one
    #: at a time on the interp reference engine instead of as one batch;
    #: None when batching ran or interp was selected.  One of: "faults",
    #: "sanitizer" (the launch needs a per-block hook that only
    #: the interpreter implements; racecheck, initcheck and synccheck all
    #: report this one), "atomic-order" (the kernel uses atomics
    #: but cannot flatten the warp axis, so the batch could not reproduce
    #: sequential atomic order — see
    #: :func:`~repro.gpusim.megablock.megablock_flatten`), "sim-fault" (the
    #: batched attempt raised, global memory was restored from the launch
    #: snapshot, and the per-block rerun reproduced the exact semantics).
    #: :attr:`backend` stays "megablock" either way.
    megablock_fallback: Optional[str] = None
    #: Whether the batched megablock run folded the warp axis into the batch
    #: (megawarp: one ``(blocks × warps, lanes)`` stack, the only mode that
    #: executes atomics).  True/False when the batched engine ran, None when
    #: it fell back or another engine was selected.
    megablock_megawarp: Optional[bool] = None
    #: Per-line/per-block hotspot counters, when the launch ran with
    #: ``profile=True`` (None otherwise).  Bit-identical across the two
    #: engines.
    profile: Optional[KernelProfile] = None
    error: Optional[FaultReport] = None
    #: Racecheck/initcheck findings, when the launch ran under
    #: ``racecheck=True`` / ``initcheck=True`` (None otherwise).  Present
    #: even on a failed launch: findings before the fault are retained.
    sanitizer: Optional[SanitizerReport] = None
    #: Host wall-clock milliseconds the ``launch()`` call took, in the
    #: process that ran it (the simulation's cost, not the modeled GPU
    #: time in :attr:`timing`).
    wall_ms: Optional[float] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """True when the launch ran to completion without a fault."""
        return self.error is None

    def raise_if_failed(self) -> None:
        """Re-raise the captured fault (no-op on a successful launch)."""
        if self.error is not None:
            raise SimError(self.error.message, ctx=self.error.ctx)

    def buffer(self, name: str) -> np.ndarray:
        """Final contents of the global buffer bound to parameter ``name``."""
        if name not in self.gmem:
            if self.error is not None:
                raise SimError(
                    f"buffer {name!r} unavailable: launch failed with "
                    f"{self.error.summary()}",
                    ctx=self.error.ctx,
                )
            raise KeyError(name)
        return self.gmem[name].data

    @property
    def total_blocks(self) -> int:
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def threads_per_block(self) -> int:
        bx, by, bz = self.block
        return bx * by * bz

    @property
    def total_warps(self) -> int:
        return self.total_blocks * math.ceil(self.threads_per_block / WARP_SIZE)

    @property
    def milliseconds(self) -> float:
        self.raise_if_failed()
        assert self.timing is not None
        return self.timing.milliseconds


def launch(
    kernel: Kernel,
    grid: Dim,
    block: Dim,
    args: Mapping[str, Union[np.ndarray, int, float]],
    device: DeviceSpec = GTX680,
    const_arrays: Optional[Mapping[str, np.ndarray]] = None,
    sample_blocks: Optional[int] = None,
    on_error: str = "raise",
    faults=None,
    synccheck: bool = False,
    racecheck: bool = False,
    initcheck: bool = False,
    backend: Optional[str] = None,
    profile: bool = False,
) -> LaunchResult:
    """Simulate one kernel launch.

    ``args`` maps parameter names to numpy arrays (allocated as global
    buffers; the result exposes their final contents) or scalars.
    ``const_arrays`` binds texture references / constant buffers accessed by
    name inside the kernel.  ``sample_blocks`` runs only that many evenly
    spaced blocks and extrapolates the statistics — functional output is then
    partial, so use it for timing-only studies.

    ``on_error="raise"`` (default) propagates simulator faults as located
    exceptions; ``on_error="status"`` contains them and returns a
    :class:`LaunchResult` whose :attr:`LaunchResult.error` describes the
    fault.  ``faults`` is an optional
    :class:`~repro.gpusim.faults.FaultInjector`; every injector needs the
    interpreter's hooks, so such a launch runs one block at a time
    (``megablock_fallback="faults"``).

    ``synccheck=True`` enables strict barrier validation (the analogue of
    ``compute-sanitizer --tool synccheck``): every non-exited lane must be
    active at each ``__syncthreads``, and all warps must wait at the same
    textual barrier.  The default matches pre-Volta hardware, where a
    warp's arrival at any barrier counts — behaviour the paper's generated
    master/slave kernels (barriers under divergent ``if``) depend on.  Only
    the interpreter implements the check, so a synccheck launch runs one
    block at a time (``megablock_fallback="sanitizer"``).

    ``racecheck=True`` / ``initcheck=True`` run the launch under the
    :mod:`~repro.gpusim.racecheck` sanitizer (the analogues of
    ``compute-sanitizer --tool racecheck`` / ``--tool initcheck``): shared
    write/read hazards between warps not ordered by a barrier, and reads of
    never-written shared or local elements, are collected — without aborting
    the launch — into :attr:`LaunchResult.sanitizer`.

    ``backend`` selects the execution engine: ``"megablock"`` (the
    batch-vectorized engine of :mod:`repro.gpusim.megablock`, which runs
    every block of the grid at once and falls back to the interpreter, one
    block at a time, with the reason on
    :attr:`LaunchResult.megablock_fallback`) or ``"interp"`` (the
    tree-walking interpreter, the reference oracle).  ``None`` means
    :func:`default_backend`: ``GPUSIM_BACKEND`` when set, else
    ``"megablock"``.  Both produce bit-identical results.

    ``profile=True`` collects per-source-line hotspot counters and
    per-block cost records into :attr:`LaunchResult.profile` (a
    :class:`~repro.prof.counters.KernelProfile`); see :mod:`repro.prof`
    for the Chrome-trace exporter and terminal reports.  Profiles are
    bit-identical across backends.

    Every launch runs in the calling process.
    """
    started = time.perf_counter()
    if on_error not in ("raise", "status"):
        raise ValueError(f"on_error must be 'raise' or 'status', got {on_error!r}")
    backend_name = backend if backend is not None else default_backend()
    if backend_name not in BACKENDS:
        raise ValueError(
            f"backend must be 'megablock' or 'interp', got {backend_name!r}"
        )

    stats = KernelStats()
    sanitizer = (
        Sanitizer(racecheck=racecheck, initcheck=initcheck)
        if (racecheck or initcheck)
        else None
    )
    gmem = GlobalMemory()
    grid3: tuple[int, int, int] = (1, 1, 1)
    block3: tuple[int, int, int] = (1, 1, 1)
    executed = 0
    total_blocks = 1
    shared_bytes = 0
    sampled_ids: Optional[tuple[int, ...]] = None
    megablock_fallback: Optional[str] = None
    megablock_megawarp: Optional[bool] = None
    prof_obj = KernelProfile(kernel=kernel.name) if profile else None
    try:
        grid3 = _as_dim3(grid)
        block3 = _as_dim3(block)
        threads_per_block = block3[0] * block3[1] * block3[2]
        if threads_per_block > device.max_threads_per_block:
            raise LaunchError(
                f"block {block3} has {threads_per_block} threads; device limit is "
                f"{device.max_threads_per_block}"
            )

        # --- bind arguments ------------------------------------------------
        base_env: dict = {}
        param_names = {p.name for p in kernel.params}
        missing = param_names - set(args)
        if missing:
            raise LaunchError(f"missing kernel arguments: {sorted(missing)}")
        extra = set(args) - param_names
        if extra:
            raise LaunchError(f"unknown kernel arguments: {sorted(extra)}")
        for param in kernel.params:
            value = args[param.name]
            if isinstance(param.type, PointerType):
                if not isinstance(value, np.ndarray):
                    raise LaunchError(f"parameter {param.name!r} expects an array")
                expected = dtype_for(param.type.elem.name)
                buf = gmem.alloc(param.name, np.asarray(value, dtype=expected))
                base_env[param.name] = buf
            else:
                if isinstance(value, np.ndarray):
                    raise LaunchError(f"parameter {param.name!r} expects a scalar")
                base_env[param.name] = (
                    float(value) if param.type.name == "float" else int(value)
                )
        for cname, cdata in (const_arrays or {}).items():
            base_env[cname] = ConstArray(cname, np.asarray(cdata))

        # --- fault injection: the launch itself may be dropped --------------
        if faults is not None:
            faults.begin_launch(kernel.name, grid3, block3)

        # --- compile / scaffold ---------------------------------------------
        # Both are launch-invariant: the lowered program is cached across
        # launches by source digest, the warp scaffolding is shared by every
        # block of this launch.  The program also carries the resource
        # report the occupancy model reads below, so a launch that falls
        # back still lowers it.
        program = (
            compile_megablock(kernel, profile=profile)
            if backend_name == "megablock"
            else None
        )
        scaffold = WarpScaffold(kernel, block3, grid3)

        # --- execute blocks --------------------------------------------------
        gx, gy, gz = grid3
        total_blocks = gx * gy * gz
        if sample_blocks is not None and sample_blocks < 1:
            # Guard the two divisions downstream (step spacing, stats
            # extrapolation): 0 or negative sampling is a caller bug and
            # must surface as a launch error, not a ZeroDivisionError.
            raise LaunchError(
                f"sample_blocks must be >= 1, got {sample_blocks}"
            )
        if sample_blocks is not None and sample_blocks < total_blocks:
            step = total_blocks / sample_blocks
            # Evenly spaced IDs collide after int() truncation when
            # sample_blocks doesn't divide the grid; dedupe preserving the
            # ascending generation order (dict keeps insertion order) so the
            # executed set is deterministic and documented on the result.
            block_ids = list(
                dict.fromkeys(int(i * step) for i in range(sample_blocks))
            )
            sampled_ids = tuple(block_ids)
        else:
            block_ids = list(range(total_blocks))

        # Megablock eligibility: anything needing per-block interpreter
        # hooks (fault injection, sanitizers, synccheck) runs per
        # block on interp; the reason is observable on the result.  Atomics
        # are batch-safe since the deterministic sort-by-address fold, but
        # only under the flattened (megawarp) row order — when a kernel
        # uses atomics and this launch cannot flatten, it falls back with
        # reason "atomic-order".
        mega_program = None
        if program is not None:
            if faults is not None:
                megablock_fallback = "faults"
            elif sanitizer is not None or synccheck:
                megablock_fallback = "sanitizer"
            elif program.uses_atomics and not (
                program.atomics_exact
                and megablock_flatten(
                    program,
                    scaffold.num_warps,
                    bool(scaffold.shared_decls),
                )
            ):
                megablock_fallback = "atomic-order"
            else:
                mega_program = program
        ran_megablock = False
        if mega_program is not None:
            # Batched execution is speculative: snapshot global memory,
            # run the whole block axis at once, and on ANY SimError
            # restore the snapshot and rerun per block on interp — the
            # rerun reproduces the exact located fault and semantics.
            snapshot = {
                name: buf.data.copy()
                for name, buf in gmem.buffers().items()
            }
            mb_stats = KernelStats()
            mb_prof = (
                MegaProfile(
                    kernel.name,
                    block_ids,
                    scaffold.num_warps,
                    scaffold.total_threads,
                )
                if profile
                else None
            )
            try:
                mb_executor = MegablockExecutor(
                    kernel,
                    block_ids,
                    block3,
                    grid3,
                    base_env,
                    mb_stats,
                    mega_program,
                    scaffold=scaffold,
                    profile=mb_prof,
                )
                mb_executor.run()
            except SimError:
                for name, buf in gmem.buffers().items():
                    buf.data[...] = snapshot[name]
                megablock_fallback = "sim-fault"
            else:
                stats.merge(mb_stats)
                if mb_prof is not None:
                    mb_prof.finish(prof_obj)
                shared_bytes = mb_executor.shared_bytes
                executed += len(block_ids)
                ran_megablock = True
                megablock_megawarp = mb_executor.flatten
        if not ran_megablock:
            for linear in block_ids:
                bz_i, rem = divmod(linear, gx * gy)
                by_i, bx_i = divmod(rem, gx)
                executor = BlockExecutor(
                    kernel,
                    block_idx=(bx_i, by_i, bz_i),
                    block_dim=block3,
                    grid_dim=grid3,
                    base_env=base_env,
                    stats=stats,
                    injector=faults,
                    linear_block=linear,
                    synccheck=synccheck,
                    sanitizer=sanitizer,
                    scaffold=scaffold,
                    profile=prof_obj,
                )
                executor.run()
                shared_bytes = executor.shared_bytes
                executed += 1
    except SimError as exc:
        if exc.ctx is None:
            exc.attach(
                FaultContext(
                    kernel=kernel.name,
                    grid=grid3,
                    block_dim=block3,
                    provenance=getattr(kernel, "provenance", None),
                )
            )
        if on_error == "raise":
            raise
        report = FaultReport.from_exception(exc, kernel=kernel.name)
        result = LaunchResult(
            kernel_name=kernel.name,
            grid=grid3,
            block=block3,
            device=device,
            stats=stats,
            occupancy=None,
            timing=None,
            usage=None,
            gmem=gmem,
            sampled_blocks=executed or None,
            sampled_block_ids=sampled_ids,
            backend=backend_name,
            megablock_fallback=megablock_fallback,
            megablock_megawarp=megablock_megawarp,
            profile=prof_obj,
            error=report,
            sanitizer=sanitizer.report() if sanitizer is not None else None,
        )
        result.wall_ms = (time.perf_counter() - started) * 1e3
        return result

    timing_stats = stats
    if executed < total_blocks:
        timing_stats = stats.scaled(total_blocks / executed)

    # --- resources / occupancy / timing --------------------------------------
    if program is not None:
        report = program.resources()
    else:
        from ..analysis.resources import estimate_resources

        report = estimate_resources(kernel)
    usage = ResourceUsage(
        reg_bytes_per_thread=report.reg_bytes_per_thread,
        shared_bytes_per_block=max(report.shared_bytes_per_block, shared_bytes),
        local_bytes_per_thread=report.local_bytes_per_thread,
    )
    occupancy = compute_occupancy(device, threads_per_block, usage)
    total_warps = total_blocks * math.ceil(threads_per_block / WARP_SIZE)
    timing = estimate_kernel_time(
        device, timing_stats, occupancy, usage, total_warps=total_warps
    )

    result = LaunchResult(
        kernel_name=kernel.name,
        grid=grid3,
        block=block3,
        device=device,
        stats=stats,
        occupancy=occupancy,
        timing=timing,
        usage=usage,
        gmem=gmem,
        sampled_blocks=executed if executed < total_blocks else None,
        sampled_block_ids=sampled_ids,
        backend=backend_name,
        megablock_fallback=megablock_fallback,
        megablock_megawarp=megablock_megawarp,
        profile=prof_obj,
        sanitizer=sanitizer.report() if sanitizer is not None else None,
    )
    result.wall_ms = (time.perf_counter() - started) * 1e3
    return result


def run_kernel(
    source_or_kernel: Union[str, Kernel],
    grid: Dim,
    block: Dim,
    args: Mapping[str, Union[np.ndarray, int, float]],
    **kwargs,
) -> LaunchResult:
    """Convenience wrapper: accepts kernel source text or a parsed kernel."""
    kernel = (
        parse_kernel(source_or_kernel)
        if isinstance(source_or_kernel, str)
        else source_or_kernel
    )
    return launch(kernel, grid, block, args, **kwargs)
