"""Differential verification oracle over the CUDA-NP variant space.

The master/slave transformation must be semantics-preserving (the whole
premise of the paper): every :class:`~repro.npc.config.NpConfig` variant of
a kernel must produce the baseline's output, and — because the rewrite
routes formerly-private data through cooperative shared buffers — must do
so without shared-memory races or reads of uninitialized elements.

:func:`verify_transformations` checks both, per variant, by running the
baseline and each compiled variant under the
:mod:`~repro.gpusim.racecheck` sanitizer on the same fresh inputs and
comparing every output buffer.  :func:`cross_validate_faults` closes the
loop in the other direction: a verification harness that never fires is
worthless, so each :mod:`~repro.gpusim.faults` injection kind is planted
into a variant run and must be caught through its expected channel —
a located fault report, a sanitizer finding, a differential output
mismatch, or a performance-counter delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..gpusim.device import DeviceSpec, GTX680
from ..gpusim.diagnostics import FaultReport
from ..gpusim.errors import SimError
from ..gpusim.faults import FAULT_KINDS, FaultInjector
from ..gpusim.launch import Dim, LaunchResult, launch
from ..gpusim.racecheck import SanitizerFinding
from ..minicuda.errors import MiniCudaError
from ..minicuda.nodes import Kernel, PointerType
from ..minicuda.parser import parse_kernel
from ..npc.autotune import launch_variant
from ..npc.config import NpConfig
from ..npc.pipeline import compile_np, enumerate_configs

ArgsFactory = Callable[[], Mapping[str, Union[np.ndarray, int, float]]]


@dataclass
class VariantVerdict:
    """The oracle's judgement of one compiled variant."""

    label: str
    config: Optional[NpConfig]
    compiled: bool = True
    #: None until the launch ran; False when it faulted.
    launch_ok: Optional[bool] = None
    #: Per-output-buffer equality with the baseline (None before comparison).
    output_ok: Optional[bool] = None
    #: True when the sanitizer saw nothing (None when it did not run).
    sanitizer_ok: Optional[bool] = None
    findings: tuple[SanitizerFinding, ...] = ()
    fault: Optional[FaultReport] = None
    error: Optional[str] = None
    #: Worst absolute output deviation from the baseline, over all buffers.
    max_abs_err: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            self.compiled
            and self.launch_ok is True
            and self.output_ok is not False
            and self.sanitizer_ok is not False
        )

    def describe(self) -> str:
        if self.ok:
            return f"{self.label}: ok (max |err| {self.max_abs_err:.3g})"
        reasons = []
        if not self.compiled:
            reasons.append(f"compile failed: {self.error}")
        elif self.launch_ok is False:
            reasons.append(f"launch faulted: {self.error}")
        else:
            if self.output_ok is False:
                reasons.append(f"output mismatch (max |err| {self.max_abs_err:.3g})")
            if self.sanitizer_ok is False:
                reasons.append(
                    "sanitizer findings: "
                    + "; ".join(f.summary() for f in self.findings[:3])
                )
        return f"{self.label}: " + "; ".join(reasons)


@dataclass
class OracleReport:
    """Everything the differential oracle learned about one kernel."""

    kernel_name: str
    baseline: LaunchResult
    verdicts: list[VariantVerdict] = field(default_factory=list)

    @property
    def baseline_findings(self) -> tuple[SanitizerFinding, ...]:
        if self.baseline.sanitizer is None:
            return ()
        return self.baseline.sanitizer.findings

    @property
    def ok(self) -> bool:
        """Baseline sanitizer-clean and every variant verdict passed."""
        return not self.baseline_findings and all(v.ok for v in self.verdicts)

    @property
    def failures(self) -> list[VariantVerdict]:
        return [v for v in self.verdicts if not v.ok]

    def summary(self) -> str:
        lines = [
            f"oracle {self.kernel_name}: {len(self.verdicts)} variants, "
            f"{len(self.failures)} failing, baseline "
            + ("clean" if not self.baseline_findings else "DIRTY")
        ]
        lines.extend("  " + v.describe() for v in self.verdicts)
        return "\n".join(lines)


def _output_params(kernel: Kernel) -> list[str]:
    """Pointer parameters of the *original* kernel: the buffers whose final
    contents define the kernel's observable behaviour."""
    return [p.name for p in kernel.params if isinstance(p.type, PointerType)]


def _compare_outputs(
    params: Sequence[str],
    baseline: LaunchResult,
    result: LaunchResult,
    rtol: float,
    atol: float,
) -> tuple[bool, float]:
    ok = True
    worst = 0.0
    for name in params:
        ref = baseline.buffer(name)
        got = result.buffer(name)
        if ref.shape != got.shape:
            return False, float("inf")
        err = np.abs(got.astype(np.float64) - ref.astype(np.float64))
        if err.size:
            worst = max(worst, float(err.max()))
        if not np.allclose(got, ref, rtol=rtol, atol=atol, equal_nan=True):
            ok = False
    return ok, worst


def verify_transformations(
    kernel: Union[str, Kernel],
    block_size: Union[int, tuple[int, ...]],
    grid: Dim,
    make_args: ArgsFactory,
    *,
    configs: Optional[Sequence[NpConfig]] = None,
    device: DeviceSpec = GTX680,
    const_arrays: Optional[Mapping[str, np.ndarray]] = None,
    rtol: float = 1e-4,
    atol: float = 1e-5,
    racecheck: bool = True,
    initcheck: bool = True,
    recombine_unrolled: bool = False,
    backend: Optional[str] = None,
) -> OracleReport:
    """Differentially verify every NPC variant of ``kernel``.

    ``make_args`` must return *fresh but deterministic* arguments (same
    values each call) so baseline and variants see identical inputs.  The
    default tolerance absorbs reassociated floating-point reductions; pass
    ``rtol=0, atol=0`` to demand bit-identical outputs.  A variant that
    fails to compile, faults at launch, diverges from the baseline, or
    triggers any racecheck/initcheck finding fails its verdict (the run
    continues — the report collects every verdict).

    ``backend`` selects the gpusim execution engine for every launch; both
    backends are bit-identical, so verdicts do not depend on it.  Repeated
    verifications share the variant compile cache with the autotuner.
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel)
    flat_block = block_size
    if isinstance(flat_block, tuple):
        flat = 1
        for d in flat_block:
            flat *= d
        flat_block = flat
    if configs is None:
        configs = enumerate_configs(kernel, int(flat_block), device)

    baseline = launch(
        kernel,
        grid,
        block_size,
        make_args(),
        device=device,
        const_arrays=const_arrays,
        racecheck=racecheck,
        initcheck=initcheck,
        backend=backend,
    )
    params = _output_params(kernel)
    report = OracleReport(kernel_name=kernel.name, baseline=baseline)

    for config in configs:
        label = config.describe()
        try:
            variant = compile_np(
                kernel,
                block_size,
                config,
                device=device,
                recombine_unrolled=recombine_unrolled,
            )
        except MiniCudaError as exc:
            report.verdicts.append(
                VariantVerdict(
                    label=label, config=config, compiled=False, error=str(exc)
                )
            )
            continue
        verdict = VariantVerdict(label=label, config=config)
        try:
            result = launch_variant(
                variant,
                grid,
                make_args(),
                device=device,
                const_arrays=const_arrays,
                on_error="status",
                racecheck=racecheck,
                initcheck=initcheck,
                backend=backend,
            )
        except SimError as exc:
            verdict.launch_ok = False
            verdict.error = str(exc)
            report.verdicts.append(verdict)
            continue
        if result.error is not None:
            verdict.launch_ok = False
            verdict.fault = result.error
            verdict.error = result.error.summary()
            report.verdicts.append(verdict)
            continue
        verdict.launch_ok = True
        verdict.output_ok, verdict.max_abs_err = _compare_outputs(
            params, baseline, result, rtol, atol
        )
        if result.sanitizer is not None:
            verdict.findings = result.sanitizer.findings
            verdict.sanitizer_ok = result.sanitizer.ok
        report.verdicts.append(verdict)
    return report


def verify_benchmark(bench, configs=None, **kwargs) -> OracleReport:
    """Run the differential oracle on one paper benchmark.

    Tolerances default to the benchmark's own ``rtol``/``atol`` (documented
    per benchmark; reductions and scans reassociate under the rewrite).
    """
    kwargs.setdefault("rtol", bench.rtol)
    kwargs.setdefault("atol", bench.atol)
    kwargs.setdefault("const_arrays", bench.const_arrays())
    return verify_transformations(
        bench.kernel,
        bench.block_size,
        bench.grid,
        bench.make_args,
        configs=configs,
        device=bench.device,
        **kwargs,
    )


#: Expected detection channel per injectable fault kind.
#:
#: - ``fault``: the runtime raises a located, injected-flagged error
#:   (``skip_sync`` → SyncError at the barrier; ``*_oob`` → MemoryFault;
#:   ``drop_launch`` → InjectedFault before any thread runs — *out of
#:   scope for the sanitizer*, which never observes a dropped launch).
#: - ``differential``: silent data corruption, caught only by comparing
#:   outputs against a clean run (``bit_flip``, ``shfl_lane``).
#: - ``stats``: a pure performance fault — functional output is intact and
#:   only the coalescing counters move (``miscoalesce``).
EXPECTED_DETECTION = {
    "drop_launch": "fault",
    "global_oob": "fault",
    "shared_oob": "fault",
    "skip_sync": "fault",
    "bit_flip": "differential",
    "shfl_lane": "differential",
    "miscoalesce": "stats",
}


@dataclass
class FaultProbe:
    """Outcome of planting one fault kind into a sanitized variant run."""

    kind: str
    expected_channel: str
    observed_channel: Optional[str] = None
    fault: Optional[FaultReport] = None
    findings: tuple[SanitizerFinding, ...] = ()
    #: True when the fault actually fired (a probe that never fires is
    #: inconclusive, not a pass).
    fired: bool = False

    @property
    def detected(self) -> bool:
        return self.fired and self.observed_channel == self.expected_channel

    def describe(self) -> str:
        status = "DETECTED" if self.detected else (
            "not fired" if not self.fired else
            f"MISSED (expected {self.expected_channel}, saw {self.observed_channel})"
        )
        return f"{self.kind}: {status} via {self.observed_channel or '-'}"


def cross_validate_faults(
    kernel: Union[str, Kernel],
    block_size: Union[int, tuple[int, ...]],
    grid: Dim,
    make_args: ArgsFactory,
    config: NpConfig,
    *,
    kinds: Sequence[str] = FAULT_KINDS,
    device: DeviceSpec = GTX680,
    const_arrays: Optional[Mapping[str, np.ndarray]] = None,
    seed: int = 0,
) -> list[FaultProbe]:
    """Plant each fault kind into one sanitized variant run and classify how
    (and whether) it is detected.

    The variant is compiled once; a clean sanitized run provides the
    reference outputs and performance counters.  Each probe then re-runs the
    variant with a single-shot :class:`~repro.gpusim.faults.FaultInjector`
    and reports the channel that caught the corruption (see
    :data:`EXPECTED_DETECTION`).
    """
    if isinstance(kernel, str):
        kernel = parse_kernel(kernel)
    variant = compile_np(kernel, block_size, config, device=device)
    params = _output_params(kernel)

    def run(faults=None) -> LaunchResult:
        return launch_variant(
            variant,
            grid,
            make_args(),
            device=device,
            const_arrays=const_arrays,
            on_error="status",
            racecheck=True,
            initcheck=True,
            faults=faults,
        )

    clean = run()
    clean.raise_if_failed()

    probes: list[FaultProbe] = []
    for kind in kinds:
        injector = FaultInjector.single(kind, seed=seed)
        result = run(faults=injector)
        probe = FaultProbe(
            kind=kind,
            expected_channel=EXPECTED_DETECTION[kind],
            fired=injector.fired(kind) > 0,
        )
        if result.sanitizer is not None:
            probe.findings = result.sanitizer.findings
        if result.error is not None:
            probe.fault = result.error
            probe.observed_channel = "fault"
        elif probe.findings:
            probe.observed_channel = "sanitizer"
        else:
            same, _ = _compare_outputs(params, clean, result, 0.0, 0.0)
            if not same:
                probe.observed_channel = "differential"
            elif (
                result.stats.uncoalesced_accesses > clean.stats.uncoalesced_accesses
                or result.stats.global_transactions > clean.stats.global_transactions
            ):
                probe.observed_channel = "stats"
        probes.append(probe)
    return probes
