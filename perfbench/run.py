"""Repository benchmark: ``tune``, ``compile`` and ``serve`` workloads.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the repository root (the program is imported from ``src/``).
Each workload runs in fresh processes with every ``GPUSIM_*`` variable
removed.  ``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs
the window untraced and then traced, and prints every per-layer metric,
the span table and the tracing overhead.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, REPO_ROOT, SRC_DIR, pinned_env
from layers import PER_LAYER

WORKLOADS = ("tune", "compile", "serve")
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
#: Fresh processes that only set up, besides the measured one; setup_s is
#: the median over all of them.
SETUP_PROBES = 4
#: Every run must end within this many seconds.
RUN_BUDGET_S = 175.0


class BenchError(RuntimeError):
    pass


def reap_group(pgid: int) -> None:
    """Kill whatever the worker left in its process group (a serve
    subprocess after a crash) and wait until the group is empty."""
    deadline = time.monotonic() + 10.0
    sig = signal.SIGKILL
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        sig = 0
        time.sleep(0.05)


def spawn(workload: str, seed: int, seconds: float, trace: int,
          setup_only: bool, deadline: float) -> dict:
    """Run worker.py in a fresh process; return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=pinned_env(), cwd=str(REPO_ROOT),
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload}: worker exceeded the run budget")
    finally:
        reap_group(proc.pid)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> tuple[dict, dict]:
    """(metrics, result) of one workload; metrics map name -> (value, unit)."""
    if trace:
        plain = spawn(workload, seed, seconds, 0, False, deadline)
        result = spawn(workload, seed, seconds, 1, False, deadline)
        values = dict(result["per_layer"])
        values["trace.overhead_pct"] = 100.0 * (
            1.0 - result["ops_per_s"] / plain["ops_per_s"]
        )
        result["attempted"] += plain["attempted"]
        result["failed"] += plain["failed"]
        result["failures"] = plain["failures"] + result["failures"]
        result["untraced_ops_per_s"] = plain["ops_per_s"]
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        return metrics, result
    probes = [spawn(workload, seed, 0, 0, True, deadline)
              for _ in range(SETUP_PROBES)]
    result = spawn(workload, seed, seconds, 0, False, deadline)
    for probe in probes:       # e.g. a set-up whose server did not drain
        result["failed"] += probe["failed"]
        result["failures"] += probe["failures"]
    setups = [probe["setup_s"] for probe in probes] + [result["setup_s"]]
    result["setup_samples"] = setups
    values = dict(result, setup_s=statistics.median(setups))
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return metrics, result


def report(workload: str, metrics: dict, result: dict, trace: int) -> None:
    facts = result["facts"]
    print(f"== {workload}: cpus={facts['cpus']} python={facts['python']} "
          f"numpy={facts['numpy']} seed={facts['seed']}")
    print(f"   engine: {json.dumps(result['engine'], sort_keys=True)}")
    print(f"   ops attempted={result['attempted']} failed={result['failed']} "
          f"window={result['window_s']:.2f}s "
          f"latency samples={result['latency_samples']}")
    if not trace:
        print(f"   setup samples (s): "
              + " ".join(f"{s:.3f}" for s in result["setup_samples"]))
    else:
        print(f"   traced ops_per_s={result['ops_per_s']:.4f} untraced="
              f"{result['untraced_ops_per_s']:.4f} (overhead "
              f"{metrics['trace.overhead_pct'][0]:.1f}%)")
        print(f"   chrome trace: {result['trace_file']}")
        for line in result["table"]:
            print(line)
    for name, (value, unit) in metrics.items():
        reason = result.get("absent", {}).get(name)
        note = f"   ({reason})" if reason else ""
        print(f"   {name:30s} {value:14.4f} {unit}{note}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC_DIR}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    budget = RUN_BUDGET_S * len(names)
    deadline = time.monotonic() + budget
    combined: dict = {}
    attempted = failed = 0
    for name in names:
        try:
            metrics, result = run_workload(name, args.seed, args.seconds,
                                           args.trace, deadline)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        report(name, metrics, result, args.trace)
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, (value, unit) in metrics.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            combined[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
