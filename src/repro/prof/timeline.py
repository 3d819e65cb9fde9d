"""Launch-timeline recorder: block/warp intervals → Chrome trace JSON.

The simulator executes blocks one after another on the host, but the
*modeled* machine runs them concurrently across SMXs.  This module
reconstructs that modeled schedule: blocks are placed greedily onto SMX
rows in ascending id order (the way hardware distributes CTAs to the
least-loaded SMX), each with a duration proportional to its profiled
issue + transaction weight, and the whole schedule is scaled so the
makespan equals the MWP/CWP model's cycle estimate.  The result exports
as Chrome ``trace_event`` JSON — load it in ``chrome://tracing`` or
https://ui.perfetto.dev to see per-SMX lanes with one slice per block
and nested slices per warp.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True)
class BlockInterval:
    """One block's modeled residency on an SMX, in cycles."""

    block: int
    smx: int
    start: float
    end: float
    warps: int
    threads: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """Modeled block schedule for one profiled launch."""

    kernel: str
    num_smx: int
    cycles: float
    seconds: float
    intervals: List[BlockInterval] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return max((iv.end for iv in self.intervals), default=0.0)


def build_timeline(result) -> Timeline:
    """Greedy earliest-SMX schedule of a profiled :class:`LaunchResult`.

    Requires ``launch(..., profile=True)`` and a successful launch (the
    timing model must have run).  Deterministic: blocks are placed in
    ascending id order onto the least-loaded SMX, lowest index first.
    """
    profile = getattr(result, "profile", None)
    if profile is None:
        raise ValueError(
            "launch was not profiled — rerun with launch(..., profile=True)"
        )
    if result.timing is None:
        raise ValueError("launch failed; no timing estimate to scale against")

    num_smx = result.device.num_smx
    timeline = Timeline(
        kernel=result.kernel_name,
        num_smx=num_smx,
        cycles=result.timing.cycles,
        seconds=result.timing.seconds,
    )
    blocks = [profile.blocks[bid] for bid in sorted(profile.blocks)]
    if not blocks:
        return timeline

    # Greedy pass in abstract weight units.
    avail = [0.0] * num_smx
    placed = []
    for bc in blocks:
        smx = min(range(num_smx), key=lambda i: (avail[i], i))
        start = avail[smx]
        end = start + float(bc.weight)
        avail[smx] = end
        placed.append((bc, smx, start, end))

    # Scale so the makespan matches the analytical cycle estimate.
    makespan = max(end for _, _, _, end in placed)
    scale = (result.timing.cycles / makespan) if makespan > 0 else 1.0
    for bc, smx, start, end in placed:
        timeline.intervals.append(
            BlockInterval(
                block=bc.block,
                smx=smx,
                start=start * scale,
                end=end * scale,
                warps=max(bc.warps, 1),
                threads=bc.threads,
            )
        )
    return timeline


#: Trace thread id of the "serve" request-traffic row (SMX rows are
#: 0..num_smx-1; this row sits far above so new devices never collide).
SERVE_ROW = 3000


def serve_events() -> List[Dict[str, object]]:
    """Chrome instant ("i") events for the kernel server's request traffic.

    Each :class:`~repro.serve.metrics.ServeEvent` recorded by a server in
    this process (request arrivals, admissions, coalesces onto an
    in-flight launch, completions, sheds) becomes a thread-scoped instant
    on a dedicated "serve" row, in host microseconds relative to the
    first event.  Empty when no server ran.  Imported lazily, so the
    profiler never pulls in the serve layer unless it was used.
    """
    from ..serve.metrics import serve_events as _raw_events

    raw = _raw_events()
    if not raw:
        return []
    t0 = min(ev.ts for ev in raw)
    events: List[Dict[str, object]] = []
    for ev in raw:
        events.append(
            {
                "ph": "i",
                "s": "t",
                "pid": 0,
                "tid": SERVE_ROW,
                "ts": (ev.ts - t0) * 1e6,
                "name": f"{ev.kind}:{ev.tenant}" if ev.tenant else ev.kind,
                "cat": "serve",
                "args": {"tenant": ev.tenant, "key": ev.key,
                         "detail": ev.detail},
            }
        )
    return events


def chrome_trace(result) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON object for a profiled launch.

    One process ("gpusim: <kernel>"), one thread row per SMX, a complete
    ("X") event per block and nested per-warp slices inside it.  All
    timestamps are microseconds of modeled time.  When a kernel server
    handled requests in this process, a "serve" row carries the request
    lifecycle (arrive/admit/coalesce/complete/shed) in host microseconds —
    see :func:`serve_events`.
    """
    timeline = build_timeline(result)
    # Modeled cycles → microseconds of device time.
    us_per_cycle = (
        (timeline.seconds / timeline.cycles) * 1e6 if timeline.cycles > 0 else 0.0
    )

    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": f"gpusim: {timeline.kernel}"},
        }
    ]
    for smx in range(timeline.num_smx):
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": smx,
                "name": "thread_name",
                "args": {"name": f"SMX {smx}"},
            }
        )

    serve_row = serve_events()
    if serve_row:
        events.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": SERVE_ROW,
                "name": "thread_name",
                "args": {"name": "serve"},
            }
        )
        events.extend(serve_row)

    for iv in timeline.intervals:
        ts = iv.start * us_per_cycle
        dur = iv.duration * us_per_cycle
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": iv.smx,
                "ts": ts,
                "dur": dur,
                "name": f"block {iv.block}",
                "cat": "block",
                "args": {
                    "block": iv.block,
                    "warps": iv.warps,
                    "threads": iv.threads,
                    "cycles": iv.duration,
                },
            }
        )
        # Warp slices nest inside the block slice (round-robin issue means
        # warps share the interval; equal sub-slices visualize the count).
        if iv.warps > 1:
            wdur = dur / iv.warps
            for w in range(iv.warps):
                events.append(
                    {
                        "ph": "X",
                        "pid": 0,
                        "tid": iv.smx,
                        "ts": ts + w * wdur,
                        "dur": wdur,
                        "name": f"warp {w}",
                        "cat": "warp",
                        "args": {"block": iv.block, "warp": w},
                    }
                )

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "kernel": timeline.kernel,
            "modeled_cycles": timeline.cycles,
            "modeled_seconds": timeline.seconds,
            "num_smx": timeline.num_smx,
            "blocks": len(timeline.intervals),
        },
    }


def save_trace(result, path: str) -> Dict[str, object]:
    """Write the Chrome trace for ``result`` to ``path``; returns the dict."""
    trace = chrome_trace(result)
    with open(path, "w") as fh:
        json.dump(trace, fh, indent=1)
    return trace
