"""compute-sanitizer-style ``racecheck`` + ``initcheck`` for the interpreter.

The CUDA-NP master/slave rewrite moves data that one thread owned into
shared buffers that a whole slave group touches cooperatively — exactly the
code shape where barrier-ordering bugs (races) and reads of never-written
shared elements creep in.  This module layers two dynamic sanitizers over
the interpreter's shared- and local-memory hook points (the same sites that
feed the per-line profile):

- **racecheck** keeps a per-shared-array, per-element *access shadow*: the
  last writing warp/lane, the source line of that write, and the barrier
  epoch it happened in (the epoch increments every time the whole thread
  block passes a ``__syncthreads``).  A write or read that touches an
  element last written by a *different warp in the same epoch* is a hazard
  (write-after-write / read-after-write): nothing ordered the two accesses.
  Lanes of one warp execute in lockstep on the simulated pre-Volta machine,
  so cross-lane accesses within a warp are ordered by instruction order —
  except two lanes storing to the same element in the *same* instruction,
  which CUDA leaves unordered and racecheck reports as a write collision.
- **initcheck** shadows shared and local arrays with a written-bitmap and
  flags any read of an element no thread has stored to.  The simulator
  zero-fills its arrays, so such reads *happen* to produce zeros here — on
  real hardware they return garbage, which is why they must be reported
  even though the functional output looks fine.

Atomics (``atomicAdd``) mark elements written but never conflict: the
hardware serializes them.

Findings are :class:`SanitizerFinding` objects rendered through the
existing :class:`~repro.gpusim.diagnostics.FaultReport` machinery;
``launch(..., racecheck=True, initcheck=True)`` collects them into a
:class:`SanitizerReport` on the :class:`~repro.gpusim.launch.LaunchResult`.
Unlike simulator faults, findings never abort the launch — like
``compute-sanitizer``, the tools observe and report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import FaultContext, FaultReport

#: Hazard labels the racecheck tool can report.
RACECHECK_HAZARDS = (
    "write-after-write",
    "read-after-write",
    "write-collision",
)

#: Hazard labels the initcheck tool can report.
INITCHECK_HAZARDS = (
    "uninitialized-shared-read",
    "uninitialized-local-read",
)

#: Shadow writer id used for atomic updates (atomics never conflict).
_ATOMIC_WRITER = -2

#: FaultReport ``kind`` per tool (feeds the render title table).
_FINDING_KINDS = {"racecheck": "RaceHazard", "initcheck": "UninitRead"}


class _SharedShadow:
    """Per-element access shadow of one shared array."""

    __slots__ = ("writer_warp", "writer_lane", "writer_epoch", "writer_line", "written")

    def __init__(self, numel: int):
        self.writer_warp = np.full(numel, -1, np.int32)
        self.writer_lane = np.full(numel, -1, np.int32)
        self.writer_epoch = np.full(numel, -1, np.int64)
        self.writer_line = np.zeros(numel, np.int32)
        self.written = np.zeros(numel, dtype=bool)


class _LocalShadow:
    """Per-lane written-bitmap of one local (per-thread) array."""

    __slots__ = ("written",)

    def __init__(self, warp_size: int, numel: int):
        self.written = np.zeros((warp_size, numel), dtype=bool)


@dataclass
class SanitizerFinding:
    """One sanitizer observation (deduplicated; ``count`` totals repeats)."""

    tool: str      # 'racecheck' | 'initcheck'
    hazard: str    # one of RACECHECK_HAZARDS / INITCHECK_HAZARDS
    message: str
    ctx: FaultContext
    count: int = 1

    def to_report(self) -> FaultReport:
        """Render through the shared fault-report machinery."""
        return FaultReport(
            kind=_FINDING_KINDS[self.tool], message=self.message, ctx=self.ctx
        )

    def summary(self) -> str:
        note = f" (x{self.count})" if self.count > 1 else ""
        return f"{self.tool} {self.hazard}: {self.message}{note}"

    def render(self) -> str:
        return self.to_report().render()


@dataclass(frozen=True)
class SanitizerReport:
    """Summary of one sanitized launch, attached to ``LaunchResult``."""

    racecheck: bool
    initcheck: bool
    findings: tuple[SanitizerFinding, ...] = ()
    #: Findings dropped after the cap (their kinds are still counted in the
    #: deduplicated findings' ``count`` fields when the site repeats).
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        """True when the enabled tools observed nothing."""
        return not self.findings and not self.suppressed

    @property
    def tools(self) -> str:
        names = [n for n, on in (("racecheck", self.racecheck),
                                 ("initcheck", self.initcheck)) if on]
        return "+".join(names) or "none"

    def counts(self) -> dict[str, int]:
        """Total occurrences per hazard label (dedup counts included)."""
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.hazard] = out.get(f.hazard, 0) + f.count
        return out

    def findings_for(self, tool: str) -> list[SanitizerFinding]:
        return [f for f in self.findings if f.tool == tool]

    def summary(self) -> str:
        if self.ok:
            return f"{self.tools}: clean"
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        extra = f", {self.suppressed} suppressed" if self.suppressed else ""
        return f"{self.tools}: {len(self.findings)} findings ({parts}{extra})"

    def render(self) -> str:
        """Full compute-sanitizer-style text of every finding."""
        p = "========="
        if self.ok:
            return f"{p} GPUSIM SANITIZER ({self.tools})\n{p} ERROR SUMMARY: 0 errors"
        blocks = [f.render() for f in self.findings]
        blocks.append(f"{p} SANITIZER SUMMARY: {self.summary()}")
        return "\n".join(blocks)


def _line(site) -> int:
    loc = site.current_loc
    return int(loc.line or 0) if loc is not None else 0


class Sanitizer:
    """Shadow-state tracker consulted at the interpreter's memory hooks.

    One instance sanitizes one launch: ``begin_block`` resets the barrier
    epoch per thread block (shared/local arrays are fresh objects per block,
    so their shadows reset naturally), ``barrier`` advances the epoch when
    every running warp of the block has arrived at a ``__syncthreads``.
    """

    def __init__(
        self,
        racecheck: bool = True,
        initcheck: bool = True,
        max_findings: int = 200,
    ):
        self.racecheck = racecheck
        self.initcheck = initcheck
        self.max_findings = max_findings
        self.epoch = 0
        self.findings: list[SanitizerFinding] = []
        self.suppressed = 0
        self._dedup: dict[tuple, SanitizerFinding] = {}

    # -- lifecycle (called by BlockExecutor) ---------------------------------

    def begin_block(self, linear_block: Optional[int] = None) -> None:
        self.epoch = 0

    def barrier(self) -> None:
        """The whole block passed a ``__syncthreads``: accesses on opposite
        sides of this point are ordered."""
        self.epoch += 1

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            racecheck=self.racecheck,
            initcheck=self.initcheck,
            findings=tuple(self.findings),
            suppressed=self.suppressed,
        )

    # -- finding emission ----------------------------------------------------

    def _emit(self, tool: str, hazard: str, message: str, ctx: FaultContext,
              key: tuple) -> None:
        prior = self._dedup.get(key)
        if prior is not None:
            prior.count += 1
            return
        if len(self.findings) >= self.max_findings:
            self.suppressed += 1
            return
        finding = SanitizerFinding(tool=tool, hazard=hazard, message=message, ctx=ctx)
        self._dedup[key] = finding
        self.findings.append(finding)

    # -- shared-memory hooks -------------------------------------------------

    def _shared(self, arr) -> _SharedShadow:
        if arr.shadow is None:
            arr.shadow = _SharedShadow(arr.numel)
        return arr.shadow

    def shared_store(self, site, arr, flat: np.ndarray, mask: np.ndarray) -> None:
        lanes = np.nonzero(mask)[0]
        if lanes.size == 0:
            return
        sh = self._shared(arr)
        f = flat[lanes].astype(np.int64)
        warp, line = site.warp_idx, _line(site)
        if self.racecheck:
            self._check_collision(site, arr, f, lanes, warp, line)
            self._check_hazard(
                site, arr, sh, f, lanes, warp, line,
                hazard="write-after-write", verb="overwrites",
            )
        sh.writer_warp[f] = warp
        sh.writer_lane[f] = lanes.astype(np.int32)
        sh.writer_epoch[f] = self.epoch
        sh.writer_line[f] = line
        sh.written[f] = True

    def shared_load(self, site, arr, flat: np.ndarray, mask: np.ndarray) -> None:
        lanes = np.nonzero(mask)[0]
        if lanes.size == 0:
            return
        sh = self._shared(arr)
        f = flat[lanes].astype(np.int64)
        warp, line = site.warp_idx, _line(site)
        if self.initcheck:
            un = ~sh.written[f]
            if un.any():
                k = int(np.nonzero(un)[0][0])
                elem, lane = int(f[k]), int(lanes[k])
                self._emit(
                    "initcheck", "uninitialized-shared-read",
                    f"uninitialized shared read: {arr.name}[{elem}] read by "
                    f"warp {warp} lane {lane} (line {line}) before any write "
                    "in this thread block",
                    site.make_context(
                        lanes=(lane,), space="shared", buffer=arr.name,
                        index=elem, limit=arr.numel,
                    ),
                    ("uninit-shared", arr.name, line),
                )
        if self.racecheck:
            self._check_hazard(
                site, arr, sh, f, lanes, warp, line,
                hazard="read-after-write", verb="reads",
            )

    def shared_atomic(self, site, arr, flat: np.ndarray, mask: np.ndarray) -> None:
        """Atomic update: marks elements written, never conflicts."""
        lanes = np.nonzero(mask)[0]
        if lanes.size == 0:
            return
        sh = self._shared(arr)
        f = flat[lanes].astype(np.int64)
        sh.writer_warp[f] = _ATOMIC_WRITER
        sh.writer_epoch[f] = self.epoch
        sh.writer_line[f] = _line(site)
        sh.written[f] = True

    def _check_hazard(self, site, arr, sh: _SharedShadow, f, lanes, warp, line,
                      *, hazard: str, verb: str) -> None:
        prev_warp = sh.writer_warp[f]
        conflict = (
            (prev_warp >= 0)
            & (prev_warp != warp)
            & (sh.writer_epoch[f] == self.epoch)
        )
        if not conflict.any():
            return
        k = int(np.nonzero(conflict)[0][0])
        elem, lane = int(f[k]), int(lanes[k])
        pw, pl = int(prev_warp[k]), int(sh.writer_lane[f[k]])
        pline = int(sh.writer_line[f[k]])
        self._emit(
            "racecheck", hazard,
            f"{hazard} hazard on shared {arr.name}[{elem}]: warp {warp} "
            f"lane {lane} (line {line}) {verb} a value stored by warp {pw} "
            f"lane {pl} (line {pline}) with no __syncthreads in between",
            site.make_context(
                lanes=(lane,), space="shared", buffer=arr.name,
                index=elem, limit=arr.numel,
            ),
            (hazard, arr.name, line, pline),
        )

    def _check_collision(self, site, arr, f, lanes, warp, line) -> None:
        if f.size < 2:
            return
        order = np.argsort(f, kind="stable")
        fs, ls = f[order], lanes[order]
        dup = np.nonzero(fs[1:] == fs[:-1])[0]
        if dup.size == 0:
            return
        i = int(dup[0])
        elem = int(fs[i + 1])
        l0, l1 = int(ls[i]), int(ls[i + 1])
        self._emit(
            "racecheck", "write-collision",
            f"unordered intra-warp write collision on shared {arr.name}"
            f"[{elem}]: lanes {l0} and {l1} of warp {warp} store to the same "
            f"element in one instruction (line {line})",
            site.make_context(
                lanes=(l0, l1), space="shared", buffer=arr.name,
                index=elem, limit=arr.numel,
            ),
            ("write-collision", arr.name, line),
        )

    # -- local-memory hooks --------------------------------------------------

    def _local(self, arr) -> _LocalShadow:
        if arr.shadow is None:
            arr.shadow = _LocalShadow(arr.warp_size, arr.numel)
        return arr.shadow

    def local_store(self, site, arr, idx: np.ndarray, mask: np.ndarray) -> None:
        lanes = np.nonzero(mask)[0]
        if lanes.size == 0:
            return
        self._local(arr).written[lanes, idx[lanes]] = True

    def local_load(self, site, arr, idx: np.ndarray, mask: np.ndarray) -> None:
        if not self.initcheck:
            return
        lanes = np.nonzero(mask)[0]
        if lanes.size == 0:
            return
        sh = self._local(arr)
        elems = idx[lanes].astype(np.int64)
        un = ~sh.written[lanes, elems]
        if not un.any():
            return
        k = int(np.nonzero(un)[0][0])
        elem, lane = int(elems[k]), int(lanes[k])
        line = _line(site)
        self._emit(
            "initcheck", "uninitialized-local-read",
            f"uninitialized local read: {arr.name}[{elem}] read by warp "
            f"{site.warp_idx} lane {lane} (line {line}) before that thread "
            "wrote it",
            site.make_context(
                lanes=(lane,), space="local", buffer=arr.name,
                index=elem, limit=arr.numel,
            ),
            ("uninit-local", arr.name, line),
        )
