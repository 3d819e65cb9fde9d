"""One workload in one fresh process: set up, time the window, check.

Started by ``run.py`` (never by hand) as::

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --trace 0|1 --t0 <CLOCK_MONOTONIC at spawn> [--setup-only]

and prints one JSON object as its last stdout line.  ``setup_s`` runs from
``--t0`` (taken by the parent just before the spawn, on the system-wide
monotonic clock) to the moment the first timed op could start.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from collections import Counter

from common import OUT_DIR, Tracer, host_facts, proc_status_kb
import layers
import wl_compile
import wl_serve
import wl_tune

WORKLOADS = {
    "tune": (wl_tune.TuneWorkload, wl_tune.plan_signature),
    "compile": (wl_compile.CompileWorkload, wl_compile.plan_signature),
    "serve": (wl_serve.ServeWorkload, wl_serve.plan_signature),
}


def engine_summary(engine: Counter) -> dict:
    """{field: {value: count}} of what actually ran."""
    out: dict = {}
    for (field, value), count in sorted(engine.items(), key=str):
        out.setdefault(field, {})[str(value)] = count
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cls, signature = WORKLOADS[args.workload]
    tracer = Tracer(bool(args.trace))
    workload = cls(args.seed, tracer)
    out: dict = {"workload": args.workload, "facts": host_facts(args.seed)}
    failures: list[str] = []
    try:
        workload.setup()
        out["setup_s"] = time.monotonic() - args.t0
        if not args.setup_only:
            out.update(workload.run(args.seconds))
            out["peak_rss_mb"] = getattr(workload, "peak_rss_mb", None) or (
                proc_status_kb("self", "VmHWM") / 1024
            )
            failures += workload.check()
            if signature(args.seed) != signature(args.seed + 1):
                failures.append("seeds change the op mix or the variants per op")
    finally:
        if hasattr(workload, "close"):
            failures += workload.close()
    failures = workload.failures + failures
    out.update(
        attempted=workload.attempted,
        failed=len(failures),
        failures=failures[:20],
        engine=engine_summary(workload.engine),
    )
    if args.trace:
        values, absent = layers.per_layer(tracer, workload.ops)
        out["per_layer"] = values
        out["absent"] = absent
        out["table"] = layers.span_table(tracer, workload.root_span)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome_trace(path)
        out["trace_file"] = str(path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
