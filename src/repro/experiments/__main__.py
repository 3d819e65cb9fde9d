"""CLI: ``python -m repro.experiments [--fast] [--chart] [--profile]
[--cache-dir PATH] [--json PATH] [ids...]``."""

import sys

from . import EXPERIMENTS, run_all


def _take_value(argv: list[str], flag: str) -> tuple[list[str], str | None]:
    """Pop ``flag VALUE`` out of argv; (argv, None) when absent."""
    if flag not in argv:
        return argv, None
    i = argv.index(flag)
    if i + 1 >= len(argv):
        raise SystemExit(f"{flag} requires a value")
    value = argv[i + 1]
    return argv[:i] + argv[i + 2:], value


def main(argv: list[str]) -> int:
    fast = "--fast" in argv
    chart = "--chart" in argv
    profiling = "--profile" in argv
    if profiling:
        from . import util

        util.PROFILE_LAUNCHES = True
    argv, cache_dir = _take_value(argv, "--cache-dir")
    if cache_dir is not None:
        from ..gpusim import diskcache

        diskcache.configure(cache_dir)
    json_path = None
    if "--json" in argv:
        i = argv.index("--json")
        if i + 1 >= len(argv):
            print("--json requires a path")
            return 2
        json_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
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
        if profiling:
            from ..prof import profile_names

            attached = [
                n for n in profile_names()
                if n.startswith(result.exp_id + "/")
            ]
            if attached:
                print(f"profiles attached: {', '.join(attached)}")
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
