"""CLI: profile a paper benchmark and export/inspect the results.

Subcommands:

``trace OUT.json``
    Profile one benchmark launch and write Chrome ``trace_event`` JSON —
    open it in ``chrome://tracing`` or https://ui.perfetto.dev.

``top``
    Profile one benchmark launch and print the terminal flame/top-lines
    hotspot report.

``diff``
    Profile the same benchmark on the interp reference and on megablock and
    diff the per-line counters; exits non-zero on any mismatch (the CI
    profiler smoke job runs this).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional


def _profiled_launch(name: str, backend: str):
    from ..kernels import BENCHMARKS

    bench = BENCHMARKS[name]()
    return bench, bench.run_baseline(backend=backend, profile=True)


def main(argv: Optional[list] = None) -> int:
    from ..kernels import BENCHMARKS

    parser = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="Profile simulator launches: Chrome traces, hotspot "
        "reports, backend differential checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument(
            "--benchmark",
            default="MV",
            choices=sorted(BENCHMARKS),
            help="paper benchmark to profile (default: MV)",
        )
        p.add_argument(
            "--backend",
            default="megablock",
            choices=("interp", "megablock"),
            help="execution backend (default: megablock)",
        )

    p_trace = sub.add_parser(
        "trace", help="export a Chrome trace_event JSON timeline"
    )
    add_common(p_trace)
    p_trace.add_argument("out", help="output trace JSON path")

    p_top = sub.add_parser("top", help="print the top-lines hotspot report")
    add_common(p_top)
    p_top.add_argument(
        "--limit", type=int, default=10, help="lines to show (default: 10)"
    )

    p_diff = sub.add_parser(
        "diff",
        help="profile on interp and megablock and diff the per-line counters",
    )
    add_common(p_diff)

    args = parser.parse_args(argv)

    if args.command == "trace":
        from .timeline import save_trace

        bench, result = _profiled_launch(args.benchmark, args.backend)
        trace = save_trace(result, args.out)
        meta = trace["otherData"]
        print(
            f"{args.benchmark} [{result.backend}]: {meta['blocks']} blocks "
            f"over {meta['num_smx']} SMXs, "
            f"{meta['modeled_cycles']:.0f} modeled cycles"
        )
        print(f"wrote {args.out} — open in chrome://tracing or ui.perfetto.dev")
        return 0

    if args.command == "top":
        from .report import top_lines_report

        bench, result = _profiled_launch(args.benchmark, args.backend)
        print(top_lines_report(result.profile, bench.source, limit=args.limit))
        return 0

    # diff: the CI profiler smoke — both backends must agree bit-for-bit.
    _, ref = _profiled_launch(args.benchmark, "interp")
    _, got = _profiled_launch(args.benchmark, "megablock")
    mismatches = ref.profile.diff_lines(got.profile)
    if mismatches:
        print(
            f"{args.benchmark}: per-line profiles DIFFER between backends "
            f"({len(mismatches)} field mismatches):"
        )
        for line in mismatches[:40]:
            print(f"  {line}")
        return 1
    print(
        f"{args.benchmark}: per-line profiles bit-identical across backends "
        f"({len(ref.profile.lines)} lines, {ref.profile.total_issues} issues)"
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Output piped into e.g. `head`; the truncated report is intentional.
        sys.exit(0)
