"""Wall-clock benchmark harness for the two execution backends.

The simulator has a *modeled* clock (:mod:`repro.gpusim.timing`) that both
backends report identically; this harness measures the other axis — how long
the simulator itself takes to run a kernel — so the batch-vectorized
megablock engine's speedup over the tree-walking interpreter has a recorded
trajectory.

``python -m repro.bench`` times each selected paper benchmark on the
interpreter and on the megablock backend (compile caches warmed first, so
the once-per-source lowering cost is excluded and recorded separately as
``compile_ms``), and writes ``BENCH_gpusim.json``.  Timings are
best-of-``repeats`` wall-clock, the two engines' launches alternating;
``speedup_megablock`` is interp/megablock per kernel, plus geometric
means.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import time
from collections import Counter
from typing import Optional, Sequence

import numpy as np

from ..kernels import BENCHMARKS

#: Kernels timed by default: the full paper suite.
DEFAULT_KERNELS = tuple(BENCHMARKS)
#: Subset used by ``--quick`` (CI smoke): one cheap and one loop-heavy kernel.
QUICK_KERNELS = ("CFD", "MC")


def _time_engines(bench, repeats: int) -> tuple[dict, object]:
    """Best-of-``repeats`` wall-clock seconds per engine, engines alternating.

    Each repeat launches interp and then megablock back to back, so a host
    slowdown lands in both engines' samples rather than in one engine's
    whole window, where it would move ``speedup_megablock``.  The collector
    is paused while the clock runs: a GC pause landing inside one backend's
    window but not another's would skew the per-kernel ratios far more than
    any real engine change.  Returns the best seconds per engine and the
    last megablock result.
    """
    best = {"interp": float("inf"), "megablock": float("inf")}
    result = None
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for backend in best:
                t0 = time.perf_counter()
                result = bench.run_baseline(backend=backend)
                best[backend] = min(best[backend], time.perf_counter() - t0)
                gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    return best, result


def _compile_split(bench) -> tuple[dict, int, str]:
    """Once-per-source compile costs, in-memory caches bypassed.

    The execute-time columns are measured with warm caches; this records the
    other half of the compile-vs-execute split explicitly so the JSON shows
    what a cold first launch would add.  Two components: the megablock
    lowering (``cache=False``) and the NP source-to-source transform over
    the kernel's full variant space (variant cache cleared first, so every
    variant compiles cold).

    Returns ``(split_ms, np_variants, variants_digest)``: the per-component
    milliseconds, how many configs compiled, and a sha256 over the emitted
    variant sources in config order (the fingerprint of the NP compiler's
    output, pinned by the committed ``BENCH_gpusim.json``).
    """
    from ..gpusim.megablock import compile_megablock
    from ..minicuda.errors import MiniCudaError
    from ..minicuda.pretty import emit_kernel
    from ..npc.pipeline import clear_variant_cache

    split = {}
    t0 = time.perf_counter()
    compile_megablock(bench.kernel, cache=False)
    split["megablock"] = round((time.perf_counter() - t0) * 1e3, 3)

    clear_variant_cache()
    configs = bench.configs()
    variants = []
    t0 = time.perf_counter()
    for config in configs:
        try:
            variants.append(bench.compile_variant(config))
        except MiniCudaError:
            continue
    split["np_transform"] = round((time.perf_counter() - t0) * 1e3, 3)
    digest = hashlib.sha256()
    for variant in variants:
        digest.update(emit_kernel(variant.kernel).encode())
    return split, len(variants), digest.hexdigest()


def _output_digest(result) -> str:
    """sha256 over a launch's final buffer bytes and modeled statistics:
    the bit-identity fingerprint of what executed, so a change that should
    only make a launch faster can be checked against the committed report.
    """
    digest = hashlib.sha256()
    for name in sorted(result.gmem.buffers()):
        buf = result.gmem.buffers()[name]
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(buf.data).tobytes())
    digest.update(repr(result.stats).encode())
    return digest.hexdigest()


def bench_kernel(name: str, repeats: int = 3, profile: bool = False) -> dict:
    """Time one benchmark on both backends; returns a JSON-ready record.

    ``profile=True`` additionally runs one *untimed* profiled launch per
    backend (profiling hooks would distort the wall-clock comparison) and
    records the profiles in the :mod:`repro.prof` registry as
    ``"bench/<name>/interp"`` / ``"bench/<name>/megablock"``.
    """
    bench = BENCHMARKS[name]()
    # Warm the kernel compile cache so lowering cost is excluded from the
    # execute columns (it is a once-per-source cost shared by every later
    # launch); the cold cost is recorded separately below.
    bench.run_baseline(backend="megablock", sample_blocks=1)
    compile_ms, np_variants, variants_digest = _compile_split(bench)

    if profile:
        from ..prof import record_profile

        for backend in ("interp", "megablock"):
            profiled = bench.run_baseline(backend=backend, profile=True)
            record_profile(
                f"bench/{name}/{backend}",
                profiled.profile,
                backend=backend,
            )

    best, mega_result = _time_engines(bench, repeats)
    interp_s, mega_s = best["interp"], best["megablock"]
    return {
        "grid": mega_result.grid,
        "block": mega_result.block,
        "compile_ms": compile_ms,
        # How many NP variants the np_transform column covers, and digests
        # of the code they emit and of the megablock launch's execution, so
        # two reports show whether the compiler or the engine changed output.
        "np_variants": np_variants,
        "variants_digest": variants_digest,
        "output_digest": _output_digest(mega_result),
        "interp_ms": round(interp_s * 1e3, 3),
        "megablock_ms": round(mega_s * 1e3, 3),
        "speedup_megablock": round(interp_s / mega_s, 3),
        "megablock_fallback": mega_result.megablock_fallback,
        # True when the whole grid ran as one flattened (blocks x warps,
        # lanes) batch — the megawarp fast path; False for per-warp-slot
        # batching; null when the launch fell back to interp.
        "megablock_megawarp": mega_result.megablock_megawarp,
    }


def _host_facts() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def run_bench(
    kernels: Sequence[str] = DEFAULT_KERNELS,
    repeats: int = 3,
    profile: bool = False,
) -> dict:
    """Benchmark ``kernels`` and return the full report dict."""
    records = {
        name: bench_kernel(name, repeats=repeats, profile=profile)
        for name in kernels
    }
    speedups = [r["speedup_megablock"] for r in records.values()]
    report = {
        "host": _host_facts(),
        "config": {
            "kernels": list(kernels),
            "repeats": repeats,
        },
        "kernels": records,
        "geomean_speedup": round(float(np.exp(np.mean(np.log(speedups)))), 3),
        "max_speedup": round(max(speedups), 3),
    }
    if profile:
        from ..prof import registry_to_json

        report["profiles"] = registry_to_json()
    return report


def compare_reports(
    fresh: dict, baseline: dict, threshold: float = 0.9
) -> tuple[bool, str]:
    """Regression gate: ``fresh`` vs a committed ``baseline`` report.

    Compares each kernel's ``speedup_megablock`` (interp over megablock;
    both columns are measured on the same host in the same run, so the
    ratio is stable where absolute milliseconds are not).  Kernels that
    fell back in either
    report are excluded from the geomean but still listed with their
    fallback reason, so a kernel silently dropping off the fast path shows
    up in the table rather than vanishing from the gate.

    Returns ``(ok, table)``: ``ok`` is False when the geomean of
    fresh/baseline ratio deltas drops below ``threshold`` (or when nothing
    is comparable); ``table`` is a readable per-kernel delta table either
    way.
    """
    rows = []
    deltas = []
    for name, rec in fresh["kernels"].items():
        base = baseline["kernels"].get(name)
        if base is None:
            rows.append((name, None, None, None, "not-in-baseline"))
            continue
        reason = None
        if rec.get("megablock_fallback") is not None:
            reason = f"fallback:{rec['megablock_fallback']}"
        elif base.get("megablock_fallback") is not None:
            reason = f"baseline-fallback:{base['megablock_fallback']}"
        elif not base.get("speedup_megablock"):
            reason = "no-baseline-ratio"
        if reason is not None:
            rows.append((
                name,
                base.get("speedup_megablock"),
                rec.get("speedup_megablock"),
                None,
                reason,
            ))
            continue
        delta = rec["speedup_megablock"] / base["speedup_megablock"]
        deltas.append(delta)
        note = "ok" if delta >= threshold else "REGRESSED"
        if rec.get("megablock_megawarp") and not base.get("megablock_megawarp"):
            note += " (now megawarp)"
        rows.append((
            name,
            base["speedup_megablock"],
            rec["speedup_megablock"],
            delta,
            note,
        ))

    lines = [
        f"{'kernel':6s} {'baseline':>9s} {'fresh':>9s} {'delta':>7s}  status"
    ]
    for name, base_r, fresh_r, delta, note in rows:
        base_txt = f"{base_r:.2f}x" if base_r else "-"
        fresh_txt = f"{fresh_r:.2f}x" if fresh_r else "-"
        delta_txt = f"{delta:.3f}" if delta is not None else "-"
        lines.append(
            f"{name:6s} {base_txt:>9s} {fresh_txt:>9s} {delta_txt:>7s}  {note}"
        )
    if not deltas:
        lines.append("no comparable kernels — gate fails")
        return False, "\n".join(lines)
    geomean = float(np.exp(np.mean(np.log(deltas))))
    ok = geomean >= threshold
    lines.append(
        f"geomean delta {geomean:.3f} vs threshold {threshold:.2f}: "
        + ("ok" if ok else "REGRESSED")
    )
    return ok, "\n".join(lines)


def _wire_args(bench) -> dict:
    """A benchmark's ``make_args()`` coerced to wire-safe values.

    numpy scalar types don't JSON-serialize; arrays pass through (the
    client base64-encodes them).
    """
    args = {}
    for name, value in bench.make_args().items():
        if isinstance(value, np.ndarray):
            args[name] = value
        elif isinstance(value, (float, np.floating)):
            args[name] = float(value)
        else:
            args[name] = int(value)
    return args


def _serve_verify(client, kernels: Sequence[str]) -> dict:
    """Served responses must be bit-identical to the reference oracle.

    One request per kernel, served on the server's default engine and
    compared byte-for-byte against an in-process ``backend="interp"``
    baseline launch on the same (deterministic, seeded) arguments.
    """
    verified = {}
    for name in kernels:
        bench = BENCHMARKS[name]()
        direct = bench.run_baseline(backend="interp")
        resp = client.launch(
            bench.source, bench.grid, bench.block_size, _wire_args(bench),
            const_arrays=bench.const_arrays(), tenant="verify",
        )
        served = type(client).arrays(resp)
        ok = set(served) == set(direct.gmem.buffers()) and all(
            np.ascontiguousarray(served[bname]).tobytes()
            == np.ascontiguousarray(buf.data).tobytes()
            for bname, buf in direct.gmem.buffers().items()
        )
        verified[name] = bool(ok)
    return verified


def run_serve_bench(
    kernels: Sequence[str] = QUICK_KERNELS,
    tenants: int = 3,
    requests: int = 20,
    duplicate_every: int = 2,
    url: Optional[str] = None,
) -> dict:
    """Closed-loop load generation against the kernel server.

    ``tenants`` client threads each issue ``requests`` launches
    back-to-back (closed loop: next request only after the response).
    Every ``duplicate_every``-th round the tenants rendezvous on a
    barrier and submit byte-identical payloads, so the server's request
    coalescing actually gets concurrent duplicates to merge; other
    rounds use per-tenant argument perturbations and stay distinct.

    With ``url=None`` an in-process :class:`~repro.serve.app.KernelServer`
    is started on an ephemeral port and drained afterwards; pass a URL to
    load an external server instead.  Returns the JSON-ready report
    (latency percentiles, throughput, server-side coalescing counters,
    per-kernel bit-identity verification).
    """
    import threading

    from ..serve.client import ServeClient, ServeError

    server = None
    server_thread = None
    if url is None:
        from ..serve.app import KernelServer

        server = KernelServer(("127.0.0.1", 0), max_inflight=max(tenants * 2, 8))
        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}"
        server_thread = threading.Thread(
            target=server.serve_forever, name="bench-serve", daemon=True
        )
        server_thread.start()

    client = ServeClient(url)
    try:
        verified = _serve_verify(client, kernels)

        payloads = []
        for name in kernels:
            bench = BENCHMARKS[name]()
            payloads.append({
                "name": name,
                "kernel": bench.source,
                "grid": bench.grid,
                "block": bench.block_size,
                "args": _wire_args(bench),
                "const_arrays": bench.const_arrays(),
            })

        stats_before = client.stats()
        barrier = threading.Barrier(tenants)
        latencies: list = [[] for _ in range(tenants)]
        failures = [0] * tenants
        served_by: list = [Counter() for _ in range(tenants)]

        def tenant_loop(tid: int) -> None:
            tenant_client = ServeClient(url)
            for i in range(requests):
                payload = payloads[i % len(payloads)]
                args = payload["args"]
                duplicate = duplicate_every and i % duplicate_every == 0
                if duplicate:
                    # Rendezvous so the identical payloads are actually
                    # concurrent — otherwise a fast server finishes each
                    # before the next arrives and nothing coalesces.
                    barrier.wait()
                else:
                    # Distinct rounds: nudge one buffer element so every
                    # (tenant, round) payload has its own coalescing key.
                    args = _perturb(args, tid, i)
                t0 = time.perf_counter()
                try:
                    client_resp = tenant_client.launch(
                        payload["kernel"], payload["grid"], payload["block"],
                        args, const_arrays=payload["const_arrays"],
                        tenant=f"tenant-{tid}",
                    )
                    assert client_resp["ok"] is True
                except (ServeError, AssertionError, OSError):
                    failures[tid] += 1
                else:
                    latencies[tid].append(time.perf_counter() - t0)
                    served_by[tid][client_resp["backend"]] += 1

        t_start = time.perf_counter()
        threads = [
            threading.Thread(target=tenant_loop, args=(tid,), daemon=True)
            for tid in range(tenants)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t_start

        stats_after = client.stats()
    finally:
        if server is not None:
            server.drain(30.0)
            server.server_close()

    all_lat = sorted(s for per in latencies for s in per)
    total = tenants * requests
    failed = sum(failures)

    def pct(p: float) -> Optional[float]:
        if not all_lat:
            return None
        idx = min(int(len(all_lat) * p), len(all_lat) - 1)
        return round(all_lat[idx] * 1e3, 3)

    before = stats_before["counters"]
    after = stats_after["counters"]
    window = {
        key: after[key] - before[key] for key in after
    }
    return {
        "host": _host_facts(),
        "config": {
            "url": url,
            "kernels": list(kernels),
            "tenants": tenants,
            "requests_per_tenant": requests,
            "duplicate_every": duplicate_every,
        },
        "verified_bit_identical": verified,
        # The engine behind every successful response, by its "backend"
        # field, next to the server's default for requests that name none.
        "default_backend": stats_after["default_backend"],
        "backends": dict(sum(served_by, Counter())),
        "requests": total,
        "failures": failed,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round((total - failed) / elapsed, 3) if elapsed else None,
        "latency_ms": {
            "p50": pct(0.50),
            "p90": pct(0.90),
            "p99": pct(0.99),
            "mean": (
                round(float(np.mean(all_lat)) * 1e3, 3) if all_lat else None
            ),
            "max": round(all_lat[-1] * 1e3, 3) if all_lat else None,
        },
        # Server-side accounting over the load window (the coalescing
        # proof: launches + coalesced == completed, coalesced > 0 when
        # duplicates rendezvoused).
        "server": window,
        "batcher": stats_after["batcher"],
        # VmHWM of the server process (this process, when the server runs
        # in-process) and of each launch worker, which runs the launches.
        "peak_rss_mb": {
            "server": stats_after["server"]["peak_rss_mb"],
            "workers": [w["peak_rss_mb"] for w in stats_after["workers"]],
        },
    }


def _perturb(args: dict, tid: int, i: int) -> dict:
    """Make one tenant's round-``i`` payload distinct from every other's."""
    out = dict(args)
    for name, value in out.items():
        if isinstance(value, np.ndarray) and value.size:
            value = value.copy()
            flat = value.reshape(-1)
            # Dtype-preserving nudge keyed to (tenant, round).
            flat[0] = flat[0] + np.asarray(1 + tid + i, dtype=value.dtype)
            out[name] = value
            break
    return out


def format_serve_report(report: dict) -> str:
    lat = report["latency_ms"]
    window = report["server"]
    verified = report["verified_bit_identical"]
    bad = [k for k, ok in verified.items() if not ok]
    lines = [
        f"serve load: {report['requests']} requests from "
        f"{report['config']['tenants']} tenants over {report['elapsed_s']}s "
        f"({report['throughput_rps']} req/s, {report['failures']} failures)",
        f"latency ms: p50={lat['p50']} p90={lat['p90']} p99={lat['p99']} "
        f"mean={lat['mean']} max={lat['max']}",
        f"server window: launches={window.get('launches')} "
        f"coalesced={window.get('coalesced')} "
        f"completed={window.get('completed')} "
        f"shed={window.get('shed_capacity', 0)}",
        f"engine: default {report['default_backend']}, responses by "
        f"backend {report['backends']}",
        f"peak RSS MB: server {report['peak_rss_mb']['server']}, "
        f"workers {report['peak_rss_mb']['workers']}",
        "bit-identity vs direct launch(): "
        + ("ALL OK" if not bad else f"MISMATCH in {bad}"),
    ]
    return "\n".join(lines)


def format_report(report: dict) -> str:
    """Readable per-kernel table."""
    lines = [
        f"{'kernel':6s} {'interp ms':>10s} "
        f"{'megablock ms':>13s} {'mw':>4s} {'speedup':>8s}"
    ]
    for name, rec in report["kernels"].items():
        mega = f"{rec['megablock_ms']:.1f}"
        if rec["megablock_fallback"] is not None:
            mega += "*"  # per-block interp fallback; see megablock_fallback
        # megawarp column: whole-grid flattened batch / per-slot / fallback
        mw = {True: "yes", False: "blk"}.get(rec.get("megablock_megawarp"), "-")
        lines.append(
            f"{name:6s} {rec['interp_ms']:10.1f} "
            f"{mega:>13s} {mw:>4s} {rec['speedup_megablock']:7.2f}x"
        )
    lines.append(
        f"geomean {report['geomean_speedup']:.2f}x   "
        f"max {report['max_speedup']:.2f}x"
    )
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Wall-clock benchmark of the simulator's two backends.",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_gpusim.json, or "
        "BENCH_serve.json with --serve)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="best-of-N timing repeats (default: 3, or 1 with --quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"CI smoke mode: kernels {', '.join(QUICK_KERNELS)}, one repeat "
        "unless --repeats is given",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="collect per-line profiles (untimed extra launches) and embed "
        "them in the output JSON",
    )
    parser.add_argument(
        "--kernels",
        nargs="+",
        metavar="NAME",
        default=None,
        help=f"subset of {', '.join(DEFAULT_KERNELS)}",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="closed-loop load generation against the kernel server "
        "(in-process on an ephemeral port unless --serve-url is given); "
        "writes throughput/latency percentiles and coalescing counters "
        "to BENCH_serve.json",
    )
    parser.add_argument(
        "--serve-url",
        default=None,
        metavar="URL",
        help="load an already-running server instead of starting one",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="concurrent client tenants for --serve (default: %(default)s)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=20,
        help="requests per tenant for --serve (default: %(default)s)",
    )
    parser.add_argument(
        "--duplicate-every",
        type=int,
        default=2,
        help="every Nth --serve round sends byte-identical concurrent "
        "payloads to exercise coalescing; 0 disables (default: %(default)s)",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="after benchmarking, gate the fresh interp/megablock speedups "
        "against --baseline and exit 1 on regression",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_gpusim.json",
        metavar="JSON",
        help="committed report to compare against (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.9,
        help="minimum allowed geomean of fresh/baseline ratio deltas "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    kernels = args.kernels or (QUICK_KERNELS if args.quick else DEFAULT_KERNELS)
    unknown = [k for k in kernels if k not in BENCHMARKS]
    if unknown:
        parser.error(f"unknown kernels: {unknown}")
    # Defaults that depend on another flag; a value given is kept as given.
    if args.repeats is None:
        args.repeats = 1 if args.quick else 3
    if args.out is None:
        args.out = "BENCH_serve.json" if args.serve else "BENCH_gpusim.json"
    for flag in ("repeats", "tenants", "requests"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag} must be >= 1, got {getattr(args, flag)}")

    if args.serve:
        report = run_serve_bench(
            kernels,
            tenants=args.tenants,
            requests=args.requests,
            duplicate_every=args.duplicate_every,
            url=args.serve_url,
        )
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(format_serve_report(report))
        print(f"wrote {args.out}")
        bad = [k for k, ok in report["verified_bit_identical"].items() if not ok]
        return 1 if bad or report["failures"] else 0

    report = run_bench(kernels, repeats=args.repeats, profile=args.profile)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(format_report(report))
    print(f"wrote {args.out}")
    if args.compare:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        ok, table = compare_reports(report, baseline, threshold=args.threshold)
        print(table)
        if not ok:
            return 1
    return 0
