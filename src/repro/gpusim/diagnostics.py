"""Located fault diagnostics: structured contexts + sanitizer-style reports.

Real CUDA stacks do not unwind a host program on a device fault: the launch
goes *sticky-error*, and tools like ``compute-sanitizer`` pinpoint the
offending kernel, block, thread, and source line.  This module provides the
simulator's equivalent:

- :class:`FaultContext` — the structured "where" of one fault (kernel,
  block/thread coordinates, warp + lane, active mask, source line, memory
  space/buffer/address for memory faults);
- :class:`FaultReport` — a fault context paired with the error kind and
  message, rendered by :func:`render_report` the way compute-sanitizer
  prints ``Invalid __global__ read`` blocks.

The interpreter builds contexts at the fault site and attaches them to the
:class:`~repro.gpusim.errors.SimError` in flight; ``launch(...,
on_error="status")`` converts the enriched exception into a
:class:`FaultReport` on the returned :class:`LaunchResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


def format_mask(mask: int, width: int = 32) -> str:
    """Render an active-lane bitmask the way sanitizers do (hex, LSB=lane 0)."""
    return f"0x{mask & ((1 << width) - 1):08x}"


@dataclass(frozen=True)
class FaultContext:
    """Structured location of one simulator fault."""

    kernel: str = "?"
    grid: Optional[tuple[int, int, int]] = None
    block_dim: Optional[tuple[int, int, int]] = None
    #: Coordinates of the faulting thread block.
    block_idx: Optional[tuple[int, int, int]] = None
    #: Warp index within the block, and lane within the warp.
    warp: Optional[int] = None
    lane: Optional[int] = None
    #: ``threadIdx`` of the first faulting thread.
    thread_idx: Optional[tuple[int, int, int]] = None
    #: Bitmask of lanes active at the faulting statement (LSB = lane 0).
    active_mask: Optional[int] = None
    #: Source position of the offending statement in the kernel text.
    line: Optional[int] = None
    col: Optional[int] = None
    #: Memory-fault specifics.
    space: Optional[str] = None
    buffer: Optional[str] = None
    index: Optional[int] = None
    limit: Optional[int] = None
    address: Optional[int] = None
    #: Lanes implicated in the fault (OOB lanes, barrier-missing lanes, ...).
    lanes: tuple[int, ...] = ()
    #: Compiler provenance of generated kernels (CUDA-NP variants), so a
    #: fault in generated code points back at the source kernel.
    provenance: Optional[str] = None
    #: True when the fault was planted by :mod:`repro.gpusim.faults`.
    injected: bool = False

    def where(self) -> str:
        """One-line location summary appended to ``str(SimError)``."""
        parts = [f"kernel {self.kernel}"]
        if self.block_idx is not None:
            parts.append(f"block {self.block_idx}")
        if self.thread_idx is not None:
            parts.append(f"thread {self.thread_idx}")
        elif self.warp is not None:
            parts.append(f"warp {self.warp}")
        if self.line:
            parts.append(f"line {self.line}")
        if self.injected:
            parts.append("injected")
        return ", ".join(parts)


@dataclass(frozen=True)
class FaultReport:
    """A caught simulator fault: error kind + message + located context."""

    kind: str                     # exception class name: 'MemoryFault', ...
    message: str
    ctx: FaultContext = field(default_factory=FaultContext)

    @classmethod
    def from_exception(cls, exc: BaseException, kernel: str = "?") -> "FaultReport":
        """Build a report from a (possibly context-enriched) SimError."""
        ctx = getattr(exc, "ctx", None)
        if ctx is None:
            ctx = FaultContext(kernel=kernel)
        message = getattr(exc, "message", None) or str(exc)
        return cls(kind=type(exc).__name__, message=message, ctx=ctx)

    @property
    def injected(self) -> bool:
        return self.ctx.injected

    def summary(self) -> str:
        """One-line summary for table rows and tune-point labels."""
        return f"{self.kind}: {self.message} [{self.ctx.where()}]"

    def render(self) -> str:
        return render_report(self)


_KIND_TITLES = {
    "MemoryFault": "Invalid memory access",
    "SyncError": "Barrier error",
    "LaunchError": "Launch failure",
    "IntrinsicError": "Invalid intrinsic use",
    "DivergenceError": "Unsupported divergence",
    "InjectedFault": "Injected fault",
    # Sanitizer findings (repro.gpusim.racecheck) share the report pipeline.
    "RaceHazard": "Shared memory race hazard",
    "UninitRead": "Uninitialized memory read",
}


def render_report(report: FaultReport) -> str:
    """Render one fault the way ``compute-sanitizer`` prints its blocks."""
    ctx = report.ctx
    p = "========="  # sanitizer gutter
    lines = [f"{p} GPUSIM SANITIZER"]
    title = _KIND_TITLES.get(report.kind, report.kind)
    if ctx.space is not None and report.kind == "MemoryFault":
        # Only genuine access faults get the space-specific headline;
        # sanitizer findings carry a space too but keep their own titles.
        title = f"Invalid {ctx.space} access"
    lines.append(f"{p} {title} ({report.kind})")
    lines.append(f"{p}     {report.message}")
    lines.append(f"{p}     in kernel {ctx.kernel}" + (f" at line {ctx.line}" if ctx.line else ""))
    if ctx.thread_idx is not None or ctx.block_idx is not None:
        thread = f"thread {ctx.thread_idx}" if ctx.thread_idx is not None else "thread (?)"
        block = f"block {ctx.block_idx}" if ctx.block_idx is not None else "block (?)"
        lane = f", lane {ctx.lane}" if ctx.lane is not None else ""
        warp = f" of warp {ctx.warp}" if ctx.warp is not None else ""
        lines.append(f"{p}     by {thread}{lane}{warp} in {block}")
    if ctx.grid is not None and ctx.block_dim is not None:
        lines.append(f"{p}     grid {ctx.grid}, block dim {ctx.block_dim}")
    if ctx.active_mask is not None:
        lines.append(f"{p}     active mask {format_mask(ctx.active_mask)}")
    if ctx.space is not None:
        detail = f"{ctx.space} space"
        if ctx.buffer is not None:
            detail += f", buffer {ctx.buffer!r}"
        if ctx.index is not None:
            detail += f", element index {ctx.index}"
        if ctx.limit is not None:
            detail += f" (size {ctx.limit})"
        if ctx.address is not None:
            detail += f", address 0x{ctx.address:x}"
        lines.append(f"{p}     {detail}")
    if ctx.lanes:
        lines.append(f"{p}     implicated lanes {list(ctx.lanes)}")
    if ctx.provenance:
        lines.append(f"{p}     kernel provenance: {ctx.provenance}")
    if ctx.injected:
        lines.append(f"{p}     planted by gpusim.faults (deterministic injection)")
    lines.append(f"{p} ERROR SUMMARY: 1 error")
    return "\n".join(lines)


def lanes_to_mask(lanes: Sequence[int]) -> int:
    """Pack lane indices into an active-mask integer (LSB = lane 0)."""
    mask = 0
    for lane in lanes:
        mask |= 1 << int(lane)
    return mask
