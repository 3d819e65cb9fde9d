"""``serve``: the kernel server under two closed-loop callers.

``python -m repro.serve --port 0`` runs as a subprocess.  This process is
the load generator: two persistent HTTP connections (one per CPU of the
reference host), each its own tenant, each sending its next launch only
after the previous response.  Every request's argument bytes are
perturbed, so no two requests coalesce and every request launches.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

from common import (
    Tracer,
    percentile,
    pinned_env,
    proc_cpu_s,
    proc_status_kb,
    trace_launch,
)

#: Paper kernels and the constructor sizes they are served at.  Half the
#: default inputs, so a 2-CPU host completes more than 100 requests in a
#: run and the 90th percentile has ten samples beyond it.
MIX = {
    "CFD": {"ncells": 256},
    "MC": {"nvox": 128},
    "LIB": {"npath": 64},
    "LE": {"positions": 64},
}
CONNECTIONS = 2
#: Responses per run compared byte for byte with an in-process interp launch.
CHECKED_RESPONSES = 4
SERVER_START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0


def kernel_order(seed: int, conn: int, index: int) -> str:
    """Kernel of request ``index`` on connection ``conn``: rounds of one
    request per kernel, each round in a seeded order."""
    names = sorted(MIX)
    rnd, slot = divmod(index, len(names))
    return random.Random(f"order/{seed}/{conn}/{rnd}").sample(names, len(names))[slot]


def plan_signature(seed: int, rounds: int = 8) -> list:
    """What the seed must not change: requests per round and kernel mix."""
    n = len(MIX)
    return [
        sorted(kernel_order(seed, conn, r * n + s) for s in range(n))
        for conn in range(CONNECTIONS) for r in range(rounds)
    ]


def _wire(value):
    import numpy as np

    from repro.serve.protocol import encode_array

    if isinstance(value, np.ndarray):
        return encode_array(value)
    return float(value) if isinstance(value, (float, np.floating)) else int(value)


class _Reply:
    """A reply's buffers where ``GpuBenchmark.check`` expects a launch."""

    def __init__(self, reply: dict) -> None:
        self.reply = reply

    def buffer(self, name: str):
        from repro.serve.protocol import decode_array

        return decode_array(self.reply["buffers"][name], name)

    def passes(self, bench) -> bool:
        try:
            return self.reply.get("ok") is True and bench.check(self)
        except (KeyError, ValueError):    # a buffer missing or malformed
            return False


class ServeWorkload:
    root_span = "serve.request"

    def __init__(self, seed: int, tracer: Tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.engine: Counter = Counter()
        self.proc = None
        self._stdout_reader = None
        self.rest_stdout: list[str] = []
        self._stderr: list[str] = []
        self.sent: list[tuple] = []      # (id, kernel, body, status, reply)
        self.warm: dict[str, dict] = {}  # kernel -> warm-up reply
        self.ops = 0
        self._lock = threading.Lock()

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        import numpy as np

        from repro.kernels import BENCHMARKS

        self.inputs = {}
        for name, sizes in MIX.items():
            bench = BENCHMARKS[name](**sizes)
            args = bench.make_args()
            perturb = next(
                k for k, v in args.items()
                if isinstance(v, np.ndarray) and v.dtype == np.float32 and v.any()
            )
            head = {
                "kernel": bench.source,
                "grid": list(bench.grid) if isinstance(bench.grid, tuple) else bench.grid,
                "block": (list(bench.block_size)
                          if isinstance(bench.block_size, tuple) else bench.block_size),
            }
            consts = {k: _wire(np.asarray(v))
                      for k, v in (bench.const_arrays() or {}).items()}
            if consts:
                head["const_arrays"] = consts
            self.inputs[name] = (head, perturb, bench)
        self._start_server()
        # Warm-up: one request per kernel, so the timed window starts with
        # every source parsed and every lazy import done.  Its arguments
        # are the benchmark's own, so check() can hold the reply against
        # the numpy reference.
        conn = self._connect()
        try:
            for name in sorted(MIX):
                body = self._encode(name, "warmup", self.inputs[name][2].make_args())
                status, body = self._post(conn, body)
                if status != 200:
                    raise RuntimeError(f"warm-up {name}: HTTP {status}: {body[:200]!r}")
                self.warm[name] = json.loads(body)
        finally:
            conn.close()

    def _start_server(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0"],
            env=pinned_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        threading.Thread(target=self._drain_pipe, args=(self.proc.stderr, self._stderr),
                         daemon=True).start()
        first = self.proc.stdout.readline()
        if "http://" not in first:
            raise RuntimeError(f"server did not announce a URL: {first!r}")
        self._stdout_reader = threading.Thread(
            target=self._drain_pipe, args=(self.proc.stdout, self.rest_stdout),
            daemon=True)
        self._stdout_reader.start()
        self.host, port = first.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.port = int(port)
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            try:
                if self._get("/healthz").get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.05)

    @staticmethod
    def _drain_pipe(pipe, sink: list) -> None:
        for line in pipe:
            sink.append(line)

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def _get(self, path: str) -> dict:
        conn = self._connect()
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    @staticmethod
    def _post(conn, body: bytes) -> tuple[int, bytes]:
        conn.request("POST", "/v1/launch", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()

    def _body(self, name: str, tenant: str, rid: int) -> bytes:
        """Request ``rid``: kernel ``name`` on fresh arguments with one
        seeded element nudged."""
        import numpy as np

        _head, perturb, bench = self.inputs[name]
        with self.tracer.span("kernels.make_args", rid):
            values = bench.make_args()
        rng = random.Random(f"args/{self.seed}/{rid}")
        arr = values[perturb]
        arr.reshape(-1)[rng.randrange(arr.size)] += np.float32(rng.uniform(1e-3, 1e-2))
        return self._encode(name, tenant, values)

    def _encode(self, name: str, tenant: str, values: dict) -> bytes:
        payload = dict(self.inputs[name][0], tenant=tenant,
                       args={k: _wire(v) for k, v in values.items()})
        return json.dumps(payload).encode()

    # -- timed window ------------------------------------------------------

    def run(self, seconds: float) -> dict:
        latencies: list[float] = []
        before = self._get("/statz")
        cpu0 = proc_cpu_s(self.proc.pid)
        start = time.perf_counter()
        stop_at = start + seconds
        ends = []

        def connection(conn: int) -> None:
            tr = self.tracer
            client = self._connect()
            index = 0
            try:
                while time.perf_counter() < stop_at:
                    rid = conn * 1_000_000 + index
                    name = kernel_order(self.seed, conn, index)
                    with self._lock:
                        self.attempted += 1
                    t0 = time.perf_counter()
                    try:
                        with tr.span(self.root_span, rid):
                            with tr.span("serve.client_encode", rid):
                                body = self._body(name, f"conn{conn}", rid)
                            status, raw = self._post(client, body)
                            reply = json.loads(raw)
                    except (OSError, http.client.HTTPException, ValueError) as exc:
                        with self._lock:
                            self.failures.append(f"request {rid} {name}: {exc!r}")
                        client.close()
                        client = self._connect()
                        index += 1
                        continue
                    elapsed = time.perf_counter() - t0
                    with self._lock:
                        tr.count("serve.requests")
                        tr.count("serve.request_bytes", len(body))
                        tr.count("serve.response_bytes", len(raw))
                        self.sent.append((rid, name, body, status, reply))
                        if status == 200 and reply.get("ok") is True:
                            latencies.append(elapsed)
                            self.engine[("serve_backend", reply.get("backend"))] += 1
                        else:
                            self.failures.append(
                                f"request {rid} {name}: HTTP {status} "
                                f"{str(reply.get('error'))[:200]}"
                            )
                    index += 1
            finally:
                client.close()
                ends.append(time.perf_counter())

        threads = [threading.Thread(target=connection, args=(c,))
                   for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        window = max(ends) - start
        cpu = proc_cpu_s(self.proc.pid) - cpu0
        after = self._get("/statz")
        self.peak_rss_mb = proc_status_kb(str(self.proc.pid), "VmHWM") / 1024
        delta = {k: after["counters"][k] - before["counters"][k]
                 for k in after["counters"]}
        cache = {k: after["kernel_cache"][k] - before["kernel_cache"][k]
                 for k in ("hits", "misses")}
        tr = self.tracer
        tr.count("serve.launches", delta["launches"])
        tr.count("serve.coalesced", delta["coalesced"])
        tr.count("serve.shed", delta["shed_breaker"] + delta["shed_capacity"])
        tr.count("serve.kernel_cache_hits", cache["hits"])
        tr.count("serve.kernel_cache_misses", cache["misses"])
        tr.count("serve.server_cpu_ms", cpu * 1e3)
        if delta["shed_breaker"] + delta["shed_capacity"] or delta["coalesced"]:
            self.failures.append(f"server shed or coalesced requests: {delta}")
        self.ops = len(latencies)
        return {
            "ops_per_s": len(latencies) / window,
            "p50_ms": percentile(latencies, 50) * 1e3,
            "p90_ms": percentile(latencies, 90) * 1e3,
            "latency_samples": len(latencies),
            "window_s": window,
        }

    # -- checks ------------------------------------------------------------

    def check(self) -> list[str]:
        """Every warm-up reply must match the numpy reference, and a seeded
        sample of responses must equal an in-process interp launch of the
        same body byte for byte; the traced run replays every body through
        the server's layers in-process and compares them all."""
        from repro.gpusim.launch import launch
        from repro.minicuda.parser import parse_kernel
        from repro.serve.protocol import parse_request

        failures = [
            f"warm-up {name}: reply differs from the numpy reference"
            for name, reply in sorted(self.warm.items())
            if not _Reply(reply).passes(self.inputs[name][2])
        ]
        ok = [s for s in self.sent if s[3] == 200]
        rng = random.Random(f"check/{self.seed}")
        for rid, name, body, _status, reply in rng.sample(ok, min(CHECKED_RESPONSES, len(ok))):
            req = parse_request(body)
            ref = launch(parse_kernel(req.source), req.grid, req.block, req.args,
                         const_arrays=req.const_arrays or None, on_error="status",
                         backend="interp")
            if not self._same(reply, ref):
                failures.append(f"request {rid} {name}: response differs from interp")
        if self.tracer.enabled:
            failures += self._replay()
        return failures

    @staticmethod
    def _same(reply: dict, result) -> bool:
        """The reply carries exactly the result's buffers, byte for byte."""
        from repro.serve.protocol import encode_array

        buffers = result.gmem.buffers()
        return result.ok and set(reply.get("buffers", {})) == set(buffers) and all(
            reply["buffers"][b]["data"] == encode_array(buf.data)["data"]
            for b, buf in buffers.items()
        )

    def _replay(self) -> list[str]:
        """Re-run the server-side layers on every body the load sent."""
        from repro.gpusim.device import GTX680
        from repro.gpusim.launch import launch
        from repro.serve.kernels import KernelCache
        from repro.serve.protocol import coalesce_key, encode_result, parse_request

        tr = self.tracer
        cache = KernelCache()
        for head, _perturb, _bench in self.inputs.values():
            # The server's warm-up parsed each source once.
            cache.get(hashlib.sha256(head["kernel"].encode()).hexdigest(), head["kernel"])
        failures = []
        for rid, name, body, status, reply in self.sent:
            if status != 200:
                continue
            with tr.span("serve.decode", rid):
                req = parse_request(body)
            with tr.span("serve.key", rid):
                key = coalesce_key(req)
            with tr.span("serve.kernel_cache", rid):
                kernel = cache.get(req.source_digest, req.source)
            with tr.span("gpusim.launch", rid):
                result = launch(kernel, req.grid, req.block, req.args,
                                const_arrays=req.const_arrays or None,
                                on_error="status")
            with tr.span("serve.encode", rid):
                json.dumps(encode_result(result, key=key, coalesced=False)).encode()
            try:
                if not self._same(reply, result):
                    raise AssertionError("replay differs from the response")
                trace_launch(tr, rid, kernel, result, GTX680)
            except AssertionError as exc:
                failures.append(f"request {rid} {name}: {exc}")
                continue
            self.engine[("replay_backend", result.backend)] += 1
            self.engine[("megablock_fallback", result.megablock_fallback)] += 1
        return failures

    # -- teardown ----------------------------------------------------------

    def close(self) -> list[str]:
        """SIGTERM the server; it must drain cleanly and leave no child."""
        if self.proc is None:
            return []
        children = self._children(self.proc.pid)
        failures = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
            failures.append("server did not exit after SIGTERM")
        if self._stdout_reader is not None:
            self._stdout_reader.join(timeout=5.0)   # it has read the last line
        if code != 0 or not any("drained cleanly" in line for line in self.rest_stdout):
            failures.append(f"server exit {code}, not a clean drain: "
                            f"{''.join(self._stderr)[-300:]!r}")
        for pid in children:
            if self._alive(pid):
                failures.append(f"server child {pid} survived the drain")
                os.kill(pid, signal.SIGKILL)
        self.proc = None
        return failures

    @staticmethod
    def _alive(pid: int) -> bool:
        """Running, not merely a zombie awaiting its new parent's reap."""
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except OSError:
            return False

    @staticmethod
    def _children(pid: int) -> list[int]:
        out = []
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    out += [int(c) for c in fh.read().split()]
        except OSError:
            pass
        return out
