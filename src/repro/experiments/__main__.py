"""CLI: ``python -m repro.experiments [--fast] [--chart] [--json PATH]
[ids...]``."""

import sys

from . import EXPERIMENTS, run_all

#: Every flag the CLI takes besides ``--json PATH``.
FLAGS = ("--fast", "--chart")


def main(argv: list[str]) -> int:
    json_path = None
    if "--json" in argv:
        i = argv.index("--json")
        if i + 1 >= len(argv):
            print("--json requires a path")
            return 2
        json_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    flags = [a for a in argv if a.startswith("-")]
    bad_flags = [f for f in flags if f not in FLAGS]
    if bad_flags:
        print(f"unknown flags: {bad_flags}; available: {[*FLAGS, '--json']}")
        return 2
    fast = "--fast" in flags
    chart = "--chart" in flags
    ids = [a for a in argv if not a.startswith("-")]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {sorted(EXPERIMENTS)}")
        return 2
    results = run_all(fast=fast, only=ids or None)
    if json_path is not None:
        from .report import save_json

        save_json(results, json_path)
        print(f"wrote {json_path}")
    for result in results:
        print(result.format())
        if chart and result.exp_id in ("fig10", "fig12", "fig15", "fig16"):
            from .charts import chart_fig10

            print()
            print(chart_fig10(result))
        elif chart and result.exp_id == "fig11":
            from .charts import chart_fig11

            print()
            print(chart_fig11(result))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
