"""Deterministic, seedable fault injection for the GPU simulator.

The hardened runtime is only trustworthy if every fault class it claims to
catch is *provably* caught, located, and contained.  This module plants
faults at well-defined interpreter hook points so the test suite can assert
exactly that:

- ``drop_launch``     — the launch never starts (device rejects it);
- ``global_oob``      — one lane's global element offset is pushed out of
  bounds, so the next access trips the global-memory bounds check;
- ``shared_oob``      — same for a shared-memory access;
- ``bit_flip``        — one bit of one lane's loaded value is flipped
  (silent data corruption: caught by functional output checks);
- ``shfl_lane``       — a ``__shfl`` source lane is redirected (corrupts
  warp communication in intra-warp NP variants);
- ``skip_sync``       — one lane is withheld from a ``__syncthreads``
  barrier, which the interpreter reports as a partial-block sync;
- ``miscoalesce``     — the byte addresses fed to the coalescing model are
  scattered, forcing worst-case transaction counts (a performance fault,
  visible in the statistics rather than as an exception).

Every firing is appended to :attr:`FaultInjector.records` with a full
:class:`~repro.gpusim.diagnostics.FaultContext`, so even *silent* faults
(bit flips, shuffles, mis-coalescing) are attributable to the exact
kernel / block / warp / lane / source line after the fact.

Injection is deterministic: lane and bit choices come from a private
``random.Random(seed)`` consulted in execution order, so the same seed and
workload plant the same faults.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .diagnostics import FaultContext
from .errors import InjectedFault

#: Fault classes the injector can plant, all inside the simulated machine
#: (interpreter hooks).
FAULT_KINDS = (
    "drop_launch",
    "global_oob",
    "shared_oob",
    "bit_flip",
    "shfl_lane",
    "skip_sync",
    "miscoalesce",
)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    ``None`` filters match anything; the injector fires at the first
    matching opportunity, at most ``count`` times.  ``launch_index``
    selects the n-th launch the injector observes (0-based) — the natural
    way to target one autotune variant out of many.
    """

    kind: str
    kernel: Optional[str] = None      # exact kernel-name match
    target: Optional[str] = None      # buffer / array name (memory faults)
    launch_index: Optional[int] = None
    block: Optional[int] = None       # linear block id
    warp: Optional[int] = None
    lane: Optional[int] = None        # None -> seeded pick among active lanes
    bit: Optional[int] = None         # bit to flip (bit_flip); seeded if None
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


@dataclass(frozen=True)
class InjectionRecord:
    """One fault that actually fired, with its located context."""

    kind: str
    ctx: FaultContext
    detail: str = ""

    def summary(self) -> str:
        return f"injected {self.kind}: {self.detail} [{self.ctx.where()}]"


class FaultInjector:
    """Plants the faults described by a list of :class:`FaultSpec`.

    Pass an injector to ``launch(..., faults=injector)``; the interpreter
    consults it at each hook point.  Thread-block and warp filters, lane
    picks, and bit picks are resolved deterministically from ``seed``.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self._fired = [0] * len(self.specs)
        self._launch_index = -1  # incremented by begin_launch
        self.records: list[InjectionRecord] = []

    @classmethod
    def single(cls, kind: str, seed: int = 0, **spec_kwargs) -> "FaultInjector":
        """Convenience: an injector planting exactly one fault."""
        return cls([FaultSpec(kind=kind, **spec_kwargs)], seed=seed)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def launch_index(self) -> int:
        """Index of the launch currently executing (0-based)."""
        return self._launch_index

    def fired(self, kind: Optional[str] = None) -> int:
        """How many faults fired so far (optionally of one kind)."""
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r.kind == kind)

    def _match(self, kind: str, kernel: str, target: Optional[str] = None,
               block: Optional[int] = None, warp: Optional[int] = None):
        """First armed spec matching this site, or None."""
        for i, spec in enumerate(self.specs):
            if spec.kind != kind or self._fired[i] >= spec.count:
                continue
            if spec.kernel is not None and spec.kernel != kernel:
                continue
            if spec.target is not None and spec.target != target:
                continue
            if spec.launch_index is not None and spec.launch_index != self._launch_index:
                continue
            if spec.block is not None and block is not None and spec.block != block:
                continue
            if spec.warp is not None and warp is not None and spec.warp != warp:
                continue
            return i, spec
        return None

    def _record(self, kind: str, ctx: FaultContext, detail: str) -> None:
        self.records.append(InjectionRecord(kind=kind, ctx=ctx, detail=detail))

    def _pick_lane(self, spec: FaultSpec, mask: np.ndarray) -> Optional[int]:
        active = np.nonzero(mask)[0]
        if active.size == 0:
            return None
        if spec.lane is not None:
            return spec.lane if mask[spec.lane] else None
        return int(self._rng.choice(active.tolist()))

    def was_planted(self, exc: BaseException) -> bool:
        """Did this injector plant the corruption behind ``exc``?

        Matches the exception's structured buffer/lane fields against the
        injection log, so naturally occurring faults in the same run are not
        mislabelled as injected.
        """
        lanes = set(getattr(exc, "lanes", ()) or ())
        buffer = getattr(exc, "buffer", None)
        for r in self.records:
            if buffer is not None:
                if r.ctx.buffer == buffer and (
                    not lanes or not r.ctx.lanes or set(r.ctx.lanes) & lanes
                ):
                    return True
            elif lanes and set(r.ctx.lanes) & lanes:
                return True
        return False

    # -- hook points (called by launch / the interpreter) --------------------

    def begin_launch(self, kernel: str, grid, block) -> None:
        """Called once per launch; raises to drop the launch entirely."""
        self._launch_index += 1
        hit = self._match("drop_launch", kernel)
        if hit is None:
            return
        i, _spec = hit
        self._fired[i] += 1
        ctx = FaultContext(kernel=kernel, grid=grid, block_dim=block, injected=True)
        self._record("drop_launch", ctx, f"launch #{self._launch_index} dropped")
        raise InjectedFault(
            f"injected fault: launch of kernel {kernel!r} dropped", ctx=ctx
        )

    def corrupt_index(self, site, space: str, name: str, offsets: np.ndarray,
                      mask: np.ndarray, size: int) -> np.ndarray:
        """Push one lane's element offset out of bounds (global/shared OOB)."""
        kind = "global_oob" if space == "global" else "shared_oob"
        hit = self._match(kind, site.kernel_name, target=name,
                          block=site.linear_block, warp=site.warp_idx)
        if hit is None:
            return offsets
        i, spec = hit
        lane = self._pick_lane(spec, mask)
        if lane is None:
            return offsets
        self._fired[i] += 1
        corrupted = offsets.copy()
        corrupted[lane] = size + 0xBAD
        ctx = site.make_context(
            lanes=(lane,), space=space, buffer=name, index=int(corrupted[lane]),
            limit=size, injected=True,
        )
        self._record(kind, ctx, f"{space} offset of lane {lane} -> {int(corrupted[lane])}")
        return corrupted

    def flip_bits(self, site, space: str, name: str, values: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
        """Flip one bit of one lane's loaded value (silent corruption)."""
        hit = self._match("bit_flip", site.kernel_name, target=name,
                          block=site.linear_block, warp=site.warp_idx)
        if hit is None:
            return values
        i, spec = hit
        lane = self._pick_lane(spec, mask)
        if lane is None:
            return values
        self._fired[i] += 1
        values = np.array(values, copy=True)
        itembits = values.dtype.itemsize * 8
        bit = spec.bit if spec.bit is not None else self._rng.randrange(itembits)
        raw = values.view(np.uint32 if itembits == 32 else np.uint8)
        if itembits == 32:
            raw[lane] ^= np.uint32(1 << bit)
        else:  # pragma: no cover - only 32-bit dtypes exist in the subset
            raw[lane * values.dtype.itemsize] ^= np.uint8(1 << (bit % 8))
        ctx = site.make_context(
            lanes=(lane,), space=space, buffer=name, injected=True,
        )
        self._record("bit_flip", ctx, f"flipped bit {bit} of lane {lane} in {name!r}")
        return values

    def corrupt_shfl_lane(self, site, lane_ids: np.ndarray, width: int) -> np.ndarray:
        """Redirect one lane's ``__shfl`` source lane."""
        hit = self._match("shfl_lane", site.kernel_name,
                          block=site.linear_block, warp=site.warp_idx)
        if hit is None:
            return lane_ids
        i, spec = hit
        mask = site.current_mask
        lane = self._pick_lane(spec, mask)
        if lane is None:
            return lane_ids
        self._fired[i] += 1
        lane_ids = np.array(lane_ids, copy=True)
        original = int(lane_ids[lane])
        lane_ids[lane] = (original + 1 + self._rng.randrange(max(width - 1, 1))) % width
        ctx = site.make_context(lanes=(lane,), injected=True)
        self._record(
            "shfl_lane", ctx,
            f"lane {lane} __shfl source {original} -> {int(lane_ids[lane])}",
        )
        return lane_ids

    def sync_skip_lanes(self, site, mask: np.ndarray) -> Optional[np.ndarray]:
        """Lanes to withhold from the next ``__syncthreads`` (or None)."""
        hit = self._match("skip_sync", site.kernel_name,
                          block=site.linear_block, warp=site.warp_idx)
        if hit is None:
            return None
        i, spec = hit
        lane = self._pick_lane(spec, mask)
        if lane is None:
            return None
        self._fired[i] += 1
        skip = np.zeros_like(mask)
        skip[lane] = True
        ctx = site.make_context(lanes=(lane,), injected=True)
        self._record("skip_sync", ctx, f"lane {lane} withheld from __syncthreads")
        return skip

    def corrupt_addrs(self, site, space: str, name: str, addrs: np.ndarray,
                      mask: np.ndarray) -> np.ndarray:
        """Scatter the byte addresses seen by the coalescing model."""
        hit = self._match("miscoalesce", site.kernel_name, target=name,
                          block=site.linear_block, warp=site.warp_idx)
        if hit is None:
            return addrs
        i, _spec = hit
        self._fired[i] += 1
        # One 128-byte segment per lane: the worst case the model can see.
        scattered = addrs + np.arange(addrs.size, dtype=np.int64) * 4096
        ctx = site.make_context(space=space, buffer=name, injected=True)
        self._record("miscoalesce", ctx, f"scattered {space} addresses of {name!r}")
        return scattered
