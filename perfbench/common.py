"""Shared pieces of the benchmark: span tracer, statistics, process facts.

Everything here runs inside a workload process (``worker.py``) except the
environment helpers, which ``run.py`` also uses to build the pinned
environment every workload process starts from.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def pinned_env() -> dict:
    """The environment every program process runs in.

    Every ``GPUSIM_*`` knob is removed, so no backend, pool, watchdog or
    cache directory leaks in from the caller's shell: the program runs on
    its default configuration with the disk cache tier off.  The hash seed
    is pinned so set iteration order, and with it every count the traced
    run reports, repeats exactly.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUSIM_")}
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + old if old else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def host_facts(seed: int) -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
    }


def proc_status_kb(pid: str, field: str) -> int:
    """One ``kB`` field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds the process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # Fields 14 and 15 of proc(5); the split above starts at field 3.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (0 < q < 100) of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


class PassWindow:
    """Timed window made of whole passes over a fixed op sequence.

    Ops cost 10-40x more for some kernels than for others, so a window cut
    mid-pass would measure a different mix of ops on a slower or faster
    host.  The window therefore always holds whole passes: after each pass
    it stops once another pass would end nearer ``seconds`` past the start
    than stopping now does.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.pass_s: list[float] = []
        self.op_s: dict[int, list[float]] = {}   # position in pass -> latencies
        self.ops = 0
        self.start = 0.0
        self.elapsed = 0.0

    def passes(self):
        self.start = time.perf_counter()
        index = 0
        while True:
            t0 = time.perf_counter()
            yield index
            now = time.perf_counter()
            self.pass_s.append(now - t0)
            self.elapsed = now - self.start
            index += 1
            if self.elapsed + self.pass_s[-1] / 2 >= self.seconds:
                return

    def op_done(self, position: int, seconds: float) -> None:
        self.ops += 1
        self.op_s.setdefault(position, []).append(seconds)

    def end_to_end(self) -> dict:
        """Throughput, and the latency of a pass at its median and tail.

        ``p50_ms`` is the latency of a pass in which every op takes its
        median time over the window's passes, ``p90_ms`` that of a pass in
        which every op takes its own 90th percentile.  Percentiles of whole
        passes would rest on the few passes a window holds; percentiles of
        all op samples would sit on the edge between two kernels' cost
        clusters, where one garbage-collection pause moves them by the gap.
        """
        return {
            "ops_per_s": self.ops / self.elapsed,
            "p50_ms": sum(percentile(v, 50) for v in self.op_s.values()) * 1e3,
            "p90_ms": sum(percentile(v, 90) for v in self.op_s.values()) * 1e3,
            "latency_samples": self.ops,
            "window_s": self.elapsed,
        }


class Tracer:
    """In-memory span recorder for the traced run.

    ``span(name, op)`` wraps one call the benchmark makes into a layer.
    Spans nest per thread; each records its name, start, end, parent span
    and op id.  A disabled tracer hands out a shared no-op context, so the
    untraced run executes the same code with nothing recorded.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []   # (id, name, start_ns, end_ns, parent, op, tid)
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._null = nullcontext()

    def span(self, name: str, op: Optional[int] = None):
        if not self.enabled:
            return self._null
        return _Span(self, name, op)

    def count(self, name: str, by: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + by

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- aggregation -------------------------------------------------------

    def totals_ms(self) -> dict[str, dict]:
        """Per span name: count, total ms and self ms (minus child spans)."""
        child_ns: dict[int, int] = {}
        for _sid, _name, start, end, parent, _op, _tid in self.spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict] = {}
        for sid, name, start, end, _parent, _op, _tid in self.spans:
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            dur = end - start
            row["count"] += 1
            row["total_ms"] += dur / 1e6
            row["self_ms"] += (dur - child_ns.get(sid, 0)) / 1e6
        return out

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON (``chrome://tracing``)."""
        t0 = min((s[2] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": tid,
                "args": {"span": sid, "parent": parent, "op": op},
            }
            for sid, name, start, end, parent, op, tid in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


class _Span:
    __slots__ = ("tracer", "name", "op", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, op: Optional[int]) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.name, self.start, end, self.parent, self.op,
             threading.get_ident() % 100000)
        )


def trace_launch(tracer: Tracer, op: int, kernel, result, device) -> None:
    """Time a traced launch's inner layers and count its simulated work.

    ``launch`` recomputes ``estimate_resources`` and the occupancy plus
    timing model on every launch; spans cannot reach inside it, so this
    calls the same functions again on the launch's own kernel and stats
    and times them as ``analysis.resources`` and ``gpusim.model``.  On a
    lowering engine it also re-requests the (warm) lowered program as
    ``gpusim.lower``.  The re-invoked model must reproduce the launch's
    modeled time.  Counts launches, warp instructions, blocks and
    megablock fallbacks.
    """
    import math

    from repro.analysis.resources import estimate_resources
    from repro.gpusim.interp import WARP_SIZE
    from repro.gpusim.occupancy import ResourceUsage, compute_occupancy
    from repro.gpusim.timing import estimate_kernel_time

    if result.backend in ("compiled", "megablock"):
        from repro.gpusim.compile import compile_kernel

        with tracer.span("gpusim.lower", op):
            compile_kernel(kernel)
            if result.backend == "megablock":
                from repro.gpusim.megablock import compile_megablock

                compile_megablock(kernel)
    with tracer.span("analysis.resources", op):
        report = estimate_resources(kernel)
    tpb = result.threads_per_block
    executed = result.sampled_blocks or result.total_blocks
    with tracer.span("gpusim.model", op):
        usage = ResourceUsage(
            reg_bytes_per_thread=report.reg_bytes_per_thread,
            shared_bytes_per_block=max(
                report.shared_bytes_per_block, result.usage.shared_bytes_per_block
            ),
            local_bytes_per_thread=report.local_bytes_per_thread,
        )
        stats = result.stats
        if executed < result.total_blocks:
            stats = stats.scaled(result.total_blocks / executed)
        occupancy = compute_occupancy(device, tpb, usage)
        timing = estimate_kernel_time(
            device, stats, occupancy, usage,
            total_warps=result.total_blocks * math.ceil(tpb / WARP_SIZE),
        )
    if timing.milliseconds != result.timing.milliseconds:
        raise AssertionError(
            f"re-invoked model gave {timing.milliseconds} ms, launch gave "
            f"{result.timing.milliseconds} ms"
        )
    tracer.count("gpusim.launches")
    tracer.count("gpusim.warp_insts", result.stats.total_insts)
    tracer.count("gpusim.blocks", executed)
    if result.megablock_fallback is not None:
        tracer.count("gpusim.fallbacks")
