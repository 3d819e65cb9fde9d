"""Auto-tuning over CUDA-NP variants (paper §4, §6).

The paper: "Our compiler has an auto-tuning mechanism to select from
multiple choices, such as intra-warp NP or inter-warp NP, and different
numbers of slave threads."  Because CUDA-NP generates only a handful of
variants, exhaustive search is practical — each variant is compiled, run on
the simulator, checked against the baseline's functional output, and ranked
by modeled kernel time.  The search runs in the calling process, one
variant after another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..gpusim.device import DeviceSpec, GTX680
from ..gpusim.diagnostics import FaultReport
from ..gpusim.errors import SimError
from ..gpusim.launch import Dim, LaunchResult, launch, _as_dim3
from ..minicuda.errors import MiniCudaError
from ..minicuda.nodes import Kernel
from ..minicuda.parser import parse_kernel
from .config import CompiledVariant, NpConfig
from .pipeline import compile_np, enumerate_configs


def launch_variant(
    variant: CompiledVariant,
    grid: Dim,
    args: Mapping[str, Union[np.ndarray, int, float]],
    device: DeviceSpec = GTX680,
    **kwargs,
) -> LaunchResult:
    """Launch a compiled variant, auto-allocating its scratch buffers."""
    gx, gy, gz = _as_dim3(grid)
    full_args = variant.host_args(dict(args), gx * gy * gz)
    const_arrays = dict(kwargs.pop("const_arrays", {}) or {})
    const_arrays.update(variant.const_arrays)
    return launch(
        variant.kernel,
        grid,
        variant.block,
        full_args,
        device=device,
        const_arrays=const_arrays or None,
        **kwargs,
    )


@dataclass
class TunePoint:
    """One explored variant and its measured (modeled) performance.

    A variant can fail three ways, all of which disqualify it without
    aborting the tuning run: the compiler rejects the configuration
    (``error`` set, ``result`` None), the simulated launch faults
    (``fault`` carries the located :class:`FaultReport`), or the output
    check rejects it (``output_ok`` False).
    """

    variant: CompiledVariant
    result: Optional[LaunchResult]
    error: Optional[str] = None
    output_ok: Optional[bool] = None
    #: Located runtime fault, when the variant's launch failed.
    fault: Optional[FaultReport] = None

    @property
    def ok(self) -> bool:
        """True when this variant ran to completion and passed its check."""
        return (
            self.result is not None
            and self.result.ok
            and self.fault is None
            and self.output_ok is not False
        )

    @property
    def seconds(self) -> float:
        if not self.ok:
            return float("inf")
        return self.result.timing.seconds

    @property
    def label(self) -> str:
        return self.variant.config.describe()

    @property
    def failure(self) -> Optional[str]:
        """One-line failure description (None for a valid point)."""
        if self.fault is not None:
            return self.fault.summary()
        if self.error is not None:
            return self.error
        if self.output_ok is False:
            return "functional output check failed"
        return None


@dataclass
class AutotuneReport:
    """Everything the auto-tuner learned about one kernel."""

    kernel_name: str
    baseline: LaunchResult
    points: list[TunePoint] = field(default_factory=list)

    @property
    def valid_points(self) -> list[TunePoint]:
        return [p for p in self.points if p.ok]

    @property
    def failed_points(self) -> list[TunePoint]:
        """Variants disqualified by compile errors, runtime faults, or checks."""
        return [p for p in self.points if not p.ok]

    @property
    def best(self) -> TunePoint:
        if not self.valid_points:
            failures = "; ".join(
                f"{p.label}: {p.failure}" for p in self.failed_points
            )
            raise RuntimeError(
                f"no valid CUDA-NP variant for {self.kernel_name}"
                + (f" ({failures})" if failures else "")
            )
        return min(self.valid_points, key=lambda p: p.seconds)

    @property
    def best_speedup(self) -> float:
        return self.baseline.timing.seconds / self.best.seconds

    def speedup_of(self, point: TunePoint) -> float:
        return self.baseline.timing.seconds / point.seconds

    def summary_rows(self) -> list[tuple[str, float, float]]:
        """(variant label, modeled ms, speedup) rows, fastest first."""
        rows = [
            (p.label, p.seconds * 1e3, self.speedup_of(p))
            for p in self.valid_points
        ]
        return sorted(rows, key=lambda r: r[1])


OutputCheck = Callable[[LaunchResult], bool]


def _placeholder_variant(kernel: Kernel, block_size, config: NpConfig):
    """Stand-in variant for a config the compiler rejected."""
    return CompiledVariant(
        kernel=kernel,
        config=config,
        master_size=block_size,
        block=(block_size, config.slave_size),
    )


def autotune(
    kernel: Union[str, Kernel],
    block_size: int,
    grid: Dim,
    make_args: Callable[[], Mapping[str, Union[np.ndarray, int, float]]],
    device: DeviceSpec = GTX680,
    configs: Optional[Sequence[NpConfig]] = None,
    check_output: Optional[OutputCheck] = None,
    const_arrays: Optional[Mapping[str, np.ndarray]] = None,
    sample_blocks: Optional[int] = None,
    recombine_unrolled: bool = False,
    faults=None,
    backend: Optional[str] = None,
) -> AutotuneReport:
    """Exhaustively explore the CUDA-NP variant space for one kernel.

    ``make_args`` must return *fresh* argument arrays per call so variants
    do not see each other's outputs.  ``check_output`` receives each launch
    result and returns False to disqualify a variant (used by the test suite
    to assert functional equivalence with the baseline).

    Fault containment: every variant runs to completion of the search — a
    variant whose launch faults (or that an injected fault corrupts) is
    recorded as a disqualified :class:`TunePoint` with a located
    :class:`~repro.gpusim.diagnostics.FaultReport`, never as an aborted
    run.  The baseline is the exception: a faulting baseline raises,
    because nothing downstream is meaningful without it.  ``faults`` is an
    optional :class:`~repro.gpusim.faults.FaultInjector` threaded through
    every launch.

    ``backend`` is forwarded to every launch (baseline and variants), so
    the whole search can run on the megablock or the interp engine;
    repeated searches share the variant compile cache (see
    :func:`repro.npc.pipeline.variant_cache_stats`).
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel)
    if configs is None:
        configs = enumerate_configs(kernel, block_size, device)

    baseline = launch(
        kernel,
        grid,
        block_size,
        make_args(),
        device=device,
        const_arrays=const_arrays,
        sample_blocks=sample_blocks,
        faults=faults,
        backend=backend,
    )
    if check_output is not None and not check_output(baseline):
        raise RuntimeError(f"baseline output check failed for {kernel.name}")

    report = AutotuneReport(kernel_name=kernel.name, baseline=baseline)

    for config in configs:
        try:
            variant = compile_np(
                kernel,
                block_size,
                config,
                device=device,
                recombine_unrolled=recombine_unrolled,
            )
        except MiniCudaError as exc:
            report.points.append(
                TunePoint(
                    variant=_placeholder_variant(kernel, block_size, config),
                    result=None,
                    error=str(exc),
                )
            )
            continue
        point = _measure(
            variant, grid, make_args, device, const_arrays,
            sample_blocks, faults, backend,
        )
        if point.result is not None and point.error is None:
            point.output_ok = (
                check_output(point.result) if check_output is not None else None
            )
        report.points.append(point)

    return report


def _measure(
    variant, grid, make_args, device, const_arrays, sample_blocks, faults,
    backend,
) -> TunePoint:
    """Launch one variant on fresh arguments and wrap the outcome."""
    try:
        result = launch_variant(
            variant,
            grid,
            make_args(),
            device=device,
            const_arrays=const_arrays,
            sample_blocks=sample_blocks,
            on_error="status",
            faults=faults,
            backend=backend,
        )
    except SimError as exc:
        # Host-side plumbing (argument binding, scratch allocation) can
        # still raise before the launch is containable; capture it as a
        # disqualified point instead of aborting the whole tuning run.
        return TunePoint(
            variant=variant,
            result=None,
            error=str(exc),
            fault=FaultReport.from_exception(exc, kernel=variant.kernel.name),
        )
    if result.error is not None:
        return TunePoint(
            variant=variant,
            result=result,
            error=result.error.summary(),
            fault=result.error,
        )
    return TunePoint(variant=variant, result=result)

