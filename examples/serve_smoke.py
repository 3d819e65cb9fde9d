"""End-to-end smoke test for the multi-tenant kernel server.

Exercises the real deployment surface — a ``python -m repro.serve``
subprocess, not an in-process server object — and asserts the five
contracts the serve layer advertises:

1. **Bit-identity**: a served launch, on the server's default engine,
   returns byte-for-byte the buffers a direct in-process
   ``launch(..., backend="interp")`` produces, for all ten paper
   benchmarks.
2. **Coalescing**: concurrent byte-identical requests from three tenants
   merge into one launch; the server's own counters prove it
   (``launches + coalesced == completed`` and ``coalesced >= 1``).
3. **Keep-alive latency**: back-to-back launches of a small kernel over
   one persistent connection have a median round trip under 20 ms, well
   below the ~40 ms a delayed ACK would add (the server sets
   TCP_NODELAY), and every response carries a ``Server-Timing`` header.  ``ServeClient`` opens a
   fresh connection per request, so only this check sees that stall.
4. **A deadline cancels its launch**: a kernel that never terminates,
   sent with ``deadline_ms: 500``, is answered ``504``, and its worker is
   killed and replaced, so a normal launch on the same tenant then
   returns ``200`` within 5 s.
5. **Clean drain**: SIGTERM stops the listener, refuses new launches,
   finishes in-flight work and stops the launch workers; the process
   exits 0 (the server's own claim that the drain was clean), and no
   worker pid that ``/statz`` listed is still alive.

Load shedding (``503`` + ``Retry-After`` past the in-flight cap) is
covered over real HTTP by ``tests/test_serve.py``.

Run:  PYTHONPATH=src python examples/serve_smoke.py
"""

import concurrent.futures
import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from repro.bench import _serve_verify, _wire_args
from repro.kernels import BENCHMARKS
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import encode_array

STARTUP_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 60.0
TENANTS = 3
KEEP_ALIVE_LAUNCHES = 10
#: A delayed ACK holds a response back for about 40 ms; a small launch
#: itself takes a few.
KEEP_ALIVE_MEDIAN_MS = 20.0
SCALE = """
__global__ void scale(float* x, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) x[i] = a * x[i];
}
"""
SPIN = """
__global__ void spin(float* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    while (n > 0) { x[i] += 1.0f; }
}
"""
#: The spinning launch's deadline, and how soon after its 504 the same
#: tenant's next launch must be answered.
SPIN_DEADLINE_MS = 500
FREED_WITHIN_S = 5.0


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_ready(client: ServeClient, proc: subprocess.Popen) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server died during startup (rc={proc.returncode})")
        try:
            if client.health()["ok"]:
                return
        except (ServeError, OSError):
            time.sleep(0.1)
    raise RuntimeError("server did not become healthy in time")


def check_bit_identity(client: ServeClient) -> None:
    verified = _serve_verify(client, tuple(BENCHMARKS))
    bad = [name for name, ok in verified.items() if not ok]
    assert not bad, f"served buffers differ from direct interp launch(): {bad}"
    print(f"[1/5] bit-identity vs direct interp launch(): "
          f"all {len(verified)} benchmarks OK")


def check_coalescing(client: ServeClient, url: str) -> None:
    bench = BENCHMARKS["MC"]()

    def duplicate_round():
        barrier = threading.Barrier(TENANTS)

        def one(tid: int):
            tenant = ServeClient(url)
            barrier.wait()
            # Byte-identical payloads, released simultaneously: one
            # launches, the rest should ride it.
            return tenant.launch(
                bench.source, bench.grid, bench.block_size,
                _wire_args(bench), const_arrays=bench.const_arrays(),
                tenant=f"smoke-{tid}",
            )

        with concurrent.futures.ThreadPoolExecutor(TENANTS) as pool:
            return [f.result()
                    for f in [pool.submit(one, t) for t in range(TENANTS)]]

    # Coalescing needs the followers to arrive while the leader is still
    # in flight; over HTTP that is probabilistic, so retry a few rounds
    # before declaring it broken.  The counter *invariant* must hold on
    # every round regardless.
    before = client.stats()["counters"]
    dup, coalesced = [], 0
    for _ in range(5):
        dup = duplicate_round()
        after = client.stats()["counters"]
        window = {k: after[k] - before[k]
                  for k in ("launches", "coalesced", "completed")}
        assert window["launches"] + window["coalesced"] == window["completed"], (
            window)
        coalesced = window["coalesced"]
        if coalesced >= 1:
            break
        before = after
    assert coalesced >= 1, "no coalescing observed in 5 concurrent rounds"
    blobs = {
        b"".join(np.ascontiguousarray(a).tobytes()
                 for _, a in sorted(ServeClient.arrays(r).items()))
        for r in dup
    }
    assert len(blobs) == 1, "coalesced fan-out responses were not identical"

    # A distinct (perturbed) request must NOT coalesce with anything.
    distinct_args = _wire_args(bench)
    first = next(k for k, v in distinct_args.items()
                 if isinstance(v, np.ndarray))
    distinct_args[first] = distinct_args[first].copy()
    distinct_args[first].flat[0] += np.asarray(1, distinct_args[first].dtype)
    before = client.stats()["counters"]
    client.launch(
        bench.source, bench.grid, bench.block_size, distinct_args,
        const_arrays=bench.const_arrays(), tenant="smoke-distinct",
    )
    after = client.stats()["counters"]
    assert after["coalesced"] == before["coalesced"], (
        "perturbed payload coalesced with a duplicate")
    print(f"[2/5] coalescing: {coalesced} of {TENANTS} concurrent duplicates "
          f"rode one launch; fan-out bit-identical; distinct payload did not "
          f"coalesce")


def check_keep_alive(port: int) -> None:
    n = 256
    body = json.dumps({
        "tenant": "smoke-keep-alive", "kernel": SCALE, "grid": 4, "block": 64,
        "args": {"x": encode_array(np.arange(n, dtype=np.float32)),
                 "a": 2.0, "n": n},
    }).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    round_trips = []
    try:
        # One unmeasured launch parses the source.
        for i in range(KEEP_ALIVE_LAUNCHES + 1):
            t0 = time.perf_counter()
            conn.request("POST", "/v1/launch", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            reply = json.loads(resp.read())
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            assert resp.status == 200 and reply["ok"], (resp.status, reply)
            timing = resp.getheader("Server-Timing")
            assert timing and "total;dur=" in timing, (
                f"response {i} has no Server-Timing header")
            if i:
                round_trips.append(elapsed_ms)
    finally:
        conn.close()
    median = statistics.median(round_trips)
    assert median < KEEP_ALIVE_MEDIAN_MS, (
        f"keep-alive round trip median {median:.1f} ms "
        f"(limit {KEEP_ALIVE_MEDIAN_MS} ms): responses wait on delayed ACKs")
    print(f"[3/5] keep-alive: {KEEP_ALIVE_LAUNCHES} launches over one "
          f"connection, median round trip {median:.1f} ms; every response "
          f"carries Server-Timing")


def worker_pids(client: ServeClient) -> set:
    return {worker["pid"] for worker in client.stats()["workers"]}


def check_deadline_cancels(client: ServeClient) -> set:
    """Returns every worker pid /statz listed along the way."""
    pids = worker_pids(client)
    t0 = time.perf_counter()
    try:
        client.launch(SPIN, 1, 32, {"x": np.zeros(32, dtype=np.float32),
                                    "n": 1},
                      tenant="smoke-spin", deadline_ms=SPIN_DEADLINE_MS)
    except ServeError as exc:
        assert exc.status == 504, (exc.status, exc.body)
    else:
        raise AssertionError("a kernel that never terminates returned")
    waited_ms = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    reply = client.launch(SCALE, 1, 32, {"x": np.ones(32, dtype=np.float32),
                                         "a": 2.0, "n": 32},
                          tenant="smoke-spin")
    freed_s = time.perf_counter() - t0
    assert reply["ok"] and freed_s < FREED_WITHIN_S, (
        f"the tenant's next launch took {freed_s:.1f} s after the 504")
    pids |= worker_pids(client)
    print(f"[4/5] deadline: spinning launch answered 504 after "
          f"{waited_ms:.0f} ms; the same tenant's next launch returned 200 "
          f"in {freed_s * 1e3:.0f} ms")
    return pids


def check_sigterm_drain(client: ServeClient, proc: subprocess.Popen,
                        pids: set) -> None:
    bench = BENCHMARKS["MC"]()
    # One more launch, so the drain follows a served tenant's launch.
    client.launch(
        bench.source, bench.grid, bench.block_size, _wire_args(bench),
        const_arrays=bench.const_arrays(), tenant="smoke-drain",
    )
    pids |= worker_pids(client)

    proc.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=DRAIN_TIMEOUT_S)
    assert rc == 0, f"server exited {rc} (unclean drain)"
    alive = sorted(pid for pid in pids if is_alive(pid))
    assert not alive, f"launch workers outlived the drain: {alive}"
    print(f"[5/5] SIGTERM drain: exit 0 (clean drain); none of the "
          f"{len(pids)} worker pids /statz listed is alive")


def is_alive(pid: int) -> bool:
    """Running, not merely a zombie awaiting its reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def main() -> int:
    port = free_port()
    url = f"http://127.0.0.1:{port}"
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", str(port)],
        env=env,
    )
    client = ServeClient(url)
    try:
        wait_ready(client, proc)
        check_bit_identity(client)
        check_coalescing(client, url)
        check_keep_alive(port)
        pids = check_deadline_cancels(client)
        check_sigterm_drain(client, proc, pids)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print("serve smoke: ALL OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
