"""Kernel-server tests: protocol, coalescing, admission control, drain."""

import base64
import http.client
import json
import os
import signal
import socket
import statistics
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.stream import Event, Stream
from repro.kernels import BENCHMARKS
from repro.minicuda.parser import parse_kernel
from repro.serve import (
    KernelServer,
    ProtocolError,
    ServeClient,
    ServeError,
    clear_serve_events,
    coalesce_key,
    decode_array,
    encode_array,
    parse_request,
)
from repro.serve.app import MAX_BODY_BYTES
from repro.serve.batcher import CoalescingBatcher

SAXPY = """
__global__ void saxpy(float* x, float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) y[i] = a * x[i] + y[i];
}
"""

OOB = """
__global__ void oob(float* x, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    x[i + n] = 1.0f;
}
"""

#: Never terminates: only cancelling (killing its worker) ends it.
SPIN = """
__global__ void spin(float* x, int n) {
    int i = threadIdx.x;
    while (n > 0) { x[i] += 1.0f; }
}
"""


def _payload(n=256, a=2.0, tenant="t"):
    x = np.arange(n, dtype=np.float32)
    y = np.ones(n, dtype=np.float32)
    return {
        "tenant": tenant,
        "kernel": SAXPY,
        "grid": (n + 63) // 64,
        "block": 64,
        "args": {"x": x, "y": y, "a": a, "n": n},
    }


@pytest.fixture
def server():
    srv = KernelServer(("127.0.0.1", 0), max_inflight=8)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.drain(10.0)
    srv.server_close()
    # The event deque is process-global; don't leak this server's serve
    # row into later tests' Chrome-trace exports.
    clear_serve_events()


@pytest.fixture
def client(server):
    return ServeClient(f"http://127.0.0.1:{server.server_address[1]}")


class TestProtocol:
    def test_array_round_trip(self):
        for dtype in ("float32", "float64", "int32", "int64", "uint8"):
            arr = (np.arange(17) % 5).astype(dtype).reshape((17,))
            back = decode_array(encode_array(arr), "a")
            assert back.dtype == arr.dtype
            assert np.array_equal(back, arr)

    def test_array_2d_shape_preserved(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        back = decode_array(encode_array(arr), "m")
        assert back.shape == (3, 4)
        assert np.array_equal(back, arr)

    def test_parse_validates(self):
        good = {
            "kernel": SAXPY, "grid": 4, "block": 64,
            "args": {"x": encode_array(np.zeros(4, dtype=np.float32)),
                     "n": 4},
        }
        req = parse_request(json.dumps(good).encode())
        assert req.grid == (4, 1, 1) and req.block == (64, 1, 1)
        assert isinstance(req.args["x"], np.ndarray)
        assert req.args["n"] == 4
        assert req.tenant == "default"

        for broken in (
            b"not json",
            b"[]",
            json.dumps({"kernel": "", "grid": 1, "block": 1}).encode(),
            json.dumps({"kernel": SAXPY, "grid": 1}).encode(),
            json.dumps({**good, "grid": [1, 2, 3, 4]}).encode(),
            # Every grid/block element must be an int.
            *(json.dumps({**good, field: value}).encode()
              for field in ("grid", "block")
              for value in ([[1]], ["a"], [None], [1.5], [1, [2]], True,
                            [True], 2.0)),
            json.dumps({**good, "options": {"backend": "cuda"}}).encode(),
            json.dumps({**good, "options": {"backend": "compiled"}}).encode(),
            json.dumps({**good, "options": {"deadline_ms": -1}}).encode(),
            # Deadlines must be finite (a NaN one would answer 504 at once).
            *(json.dumps({**good, "options": {"deadline_ms": value}}).encode()
              for value in ("nan", "inf", "-inf", float("nan"),
                            float("inf"), 10**400)),
            json.dumps({**good, "args": {"x": {
                "dtype": "float32", "shape": [float("inf")], "data": ""}}},
            ).encode(),
            b"[" * 100_000,                # nesting past the recursion limit
            b"1" * 5000,                   # integer literal past the digit cap
            json.dumps({**good, "tenant": ""}).encode(),
            json.dumps(
                {**good, "args": {"x": {"dtype": "float16", "data": ""}}}
            ).encode(),
        ):
            with pytest.raises(ProtocolError):
                parse_request(broken)

    def test_grid_normalization_stable_key(self):
        """`"grid": 4` and `"grid": [4]` and `[4, 1, 1]` must coalesce."""
        base = {
            "kernel": SAXPY, "block": 64,
            "args": {"x": encode_array(np.zeros(4, dtype=np.float32)),
                     "n": 4},
        }
        keys = set()
        for grid in (4, [4], [4, 1], [4, 1, 1]):
            req = parse_request(json.dumps({**base, "grid": grid}).encode())
            keys.add(coalesce_key(req))
        assert len(keys) == 1

    def test_key_ignores_tenant_and_deadline(self):
        base = {
            "kernel": SAXPY, "grid": 4, "block": 64,
            "args": {"x": encode_array(np.zeros(4, dtype=np.float32)),
                     "n": 4},
        }
        k1 = coalesce_key(parse_request(
            json.dumps({**base, "tenant": "alice"}).encode()))
        k2 = coalesce_key(parse_request(json.dumps(
            {**base, "tenant": "bob",
             "options": {"deadline_ms": 50}}).encode()))
        assert k1 == k2

    def test_key_separates_content(self):
        base = {
            "kernel": SAXPY, "grid": 4, "block": 64,
            "args": {"x": encode_array(np.zeros(4, dtype=np.float32)),
                     "n": 4},
        }
        k0 = coalesce_key(parse_request(json.dumps(base).encode()))
        variants = [
            {**base, "grid": 8},
            {**base, "args": {**base["args"], "n": 5}},
            {**base, "args": {"x": encode_array(np.ones(4, dtype=np.float32)),
                              "n": 4}},
            {**base, "options": {"backend": "interp"}},
            {**base, "options": {"profile": True}},
        ]
        for variant in variants:
            key = coalesce_key(parse_request(json.dumps(variant).encode()))
            assert key != k0, variant


class TestBatcherCoalescing:
    def test_concurrent_duplicates_share_one_launch(self):
        """Deterministic coalescing: park the stream, pile N identical
        requests onto the batcher, release — exactly one launch, N-1
        followers, every result the same object."""
        kernel = parse_kernel(SAXPY)
        stream = Stream(name="coalesce-test")
        gate = Event(name="gate")
        gate._stream_name = stream.name
        stream._enqueue(("wait", gate))

        batcher = CoalescingBatcher()
        n = 256
        results = {}
        errors = []
        started = threading.Barrier(4)

        def submit(idx):
            x = np.arange(n, dtype=np.float32)
            y = np.ones(n, dtype=np.float32)
            req = parse_request(json.dumps({
                "tenant": f"tenant-{idx}", "kernel": SAXPY,
                "grid": 4, "block": 64,
                "args": {"x": encode_array(x), "y": encode_array(y),
                         "a": 2.0, "n": n},
            }).encode())
            key = coalesce_key(req)
            started.wait()
            try:
                result, coalesced = batcher.submit(
                    req, key, stream, kernel, {}, deadline=None)
                results[idx] = (result, coalesced)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        # All four are behind the barrier -> all submitted while parked.
        time.sleep(0.3)
        gate._fired.set()
        for t in threads:
            t.join(timeout=10.0)
        stream.synchronize(timeout=5.0)
        stream.close()

        assert not errors
        assert len(results) == 4
        assert batcher.launches == 1
        assert batcher.coalesced == 3
        assert sum(1 for _, c in results.values() if c) == 3
        # Fan-out is the same LaunchResult => bit-identical by identity.
        launch_results = {id(r) for r, _ in results.values()}
        assert len(launch_results) == 1
        only = next(iter(results.values()))[0]
        expect = 2.0 * np.arange(n, dtype=np.float32) + 1.0
        assert np.array_equal(only.buffer("y"), expect)
        assert batcher.inflight() == 0  # entry retired

    def test_sequential_identical_requests_do_not_coalesce(self):
        """An entry is retired once its event fires: a later identical
        request starts a fresh launch instead of reading stale state."""
        kernel = parse_kernel(SAXPY)
        batcher = CoalescingBatcher()
        with Stream(name="seq") as stream:
            for expected_launches in (1, 2):
                req = parse_request(json.dumps(_wire_payload()).encode())
                key = coalesce_key(req)
                result, coalesced = batcher.submit(
                    req, key, stream, kernel, {}, deadline=None)
                assert result.ok and not coalesced
                assert batcher.launches == expected_launches
        assert batcher.coalesced == 0

    def test_deadline_timeout_keeps_entry_inflight(self):
        kernel = parse_kernel(SAXPY)
        stream = Stream(name="stuck")
        gate = Event(name="gate")
        gate._stream_name = stream.name
        stream._enqueue(("wait", gate))
        batcher = CoalescingBatcher()
        try:
            req = parse_request(json.dumps(_wire_payload()).encode())
            key = coalesce_key(req)
            with pytest.raises(TimeoutError, match="deadline"):
                batcher.submit(req, key, stream, kernel, {},
                               deadline=time.monotonic() + 0.1)
            assert batcher.inflight() == 1  # still running; not retired
        finally:
            gate._fired.set()
            stream.synchronize(timeout=5.0)
            stream.close()


def _park(stream: Stream) -> Event:
    """Park ``stream``'s worker on an event that has not fired yet; set the
    returned event's ``_fired`` to release it."""
    gate = Event(name="gate")
    gate._stream_name = stream.name
    stream._enqueue(("wait", gate))
    return gate


def _wire_payload(n=256, a=2.0, tenant="t"):
    x = np.arange(n, dtype=np.float32)
    y = np.ones(n, dtype=np.float32)
    return {
        "tenant": tenant, "kernel": SAXPY,
        "grid": (n + 63) // 64, "block": 64,
        "args": {"x": encode_array(x), "y": encode_array(y),
                 "a": a, "n": n},
    }


class TestServerHTTP:
    def test_launch_matches_direct(self, client):
        n = 256
        x = np.arange(n, dtype=np.float32)
        y = np.ones(n, dtype=np.float32)
        resp = client.launch(SAXPY, 4, 64,
                             {"x": x, "y": y, "a": 2.0, "n": n})
        assert resp["ok"] and resp["version"] == 1
        out = ServeClient.arrays(resp)
        assert np.array_equal(out["y"], 2.0 * x + 1.0)
        assert np.array_equal(out["x"], x)
        assert resp["stats"]["blocks_executed"] == 4
        assert resp["timing_ms"] is not None
        assert resp["coalesced"] is False

    def test_paper_benchmark_bit_identical(self, client):
        """A served paper benchmark must return byte-for-byte the buffers
        a direct launch() on the reference interpreter produces."""
        bench = BENCHMARKS["MC"]()
        direct = bench.run_baseline(backend="interp")
        args = {}
        for name, value in bench.make_args().items():
            args[name] = value if isinstance(value, np.ndarray) else (
                float(value) if isinstance(value, (float, np.floating))
                else int(value))
        resp = client.launch(bench.source, bench.grid, bench.block_size,
                             args, const_arrays=bench.const_arrays())
        served = ServeClient.arrays(resp)
        for name, buf in direct.gmem.buffers().items():
            assert served[name].tobytes() == np.ascontiguousarray(
                buf.data).tobytes(), name

    def test_default_engine_served_bit_identical_to_interp(
        self, client, monkeypatch
    ):
        """A request naming no backend runs on megablock (and /statz says
        so); its buffers and stats equal an interp launch of the same body."""
        monkeypatch.delenv("GPUSIM_BACKEND", raising=False)
        bench = BENCHMARKS["CFD"](ncells=128, block=32)
        args = {}
        for name, value in bench.make_args().items():
            args[name] = value if isinstance(value, np.ndarray) else (
                float(value) if isinstance(value, (float, np.floating))
                else int(value))
        body = (bench.source, bench.grid, bench.block_size, args)
        const = bench.const_arrays()
        default = client.launch(*body, const_arrays=const)
        interp = client.launch(*body, const_arrays=const, backend="interp")
        assert default["backend"] == "megablock"
        assert default["megablock_fallback"] is None
        assert interp["backend"] == "interp"
        assert default["buffers"] == interp["buffers"]
        assert default["stats"] == interp["stats"]
        assert default["timing_ms"] == interp["timing_ms"]
        assert client.stats()["default_backend"] == "megablock"

    def test_concurrent_duplicates_coalesce_bit_identical(self, server, client):
        """Three tenants post identical payloads through a barrier; the
        kernel is big enough that the followers arrive mid-launch, so the
        server merges them — and every response decodes to the same bytes."""
        n = 1 << 15
        payload = _wire_payload(n=n)
        barrier = threading.Barrier(3)
        responses = {}

        def hit(tenant):
            tenant_client = ServeClient(client.base_url)
            body = dict(payload, tenant=tenant)
            barrier.wait()
            responses[tenant] = tenant_client._request(
                "POST", "/v1/launch", body)

        before = client.stats()["counters"]
        threads = [threading.Thread(target=hit, args=(f"tenant-{i}",))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        after = client.stats()["counters"]

        assert len(responses) == 3
        blobs = set()
        for resp in responses.values():
            assert resp["ok"]
            blobs.add(ServeClient.arrays(resp)["y"].tobytes())
        assert len(blobs) == 1, "coalesced fan-out was not bit-identical"
        window_launches = after["launches"] - before["launches"]
        window_coalesced = after["coalesced"] - before["coalesced"]
        window_completed = after["completed"] - before["completed"]
        assert window_completed == 3
        assert window_launches + window_coalesced == 3
        assert window_coalesced >= 1, "no request coalesced"

    def test_capacity_shed(self, server, client):
        """With the admission semaphore exhausted, requests shed 503."""
        for _ in range(server.max_inflight):
            assert server._admission.acquire(blocking=False)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.launch(SAXPY, 4, 64, _payload()["args"])
            assert excinfo.value.status == 503
            assert excinfo.value.body["kind"] == "shed-capacity"
            assert excinfo.value.retry_after is not None
        finally:
            for _ in range(server.max_inflight):
                server._admission.release()
        assert client.launch(SAXPY, 4, 64, _payload()["args"])["ok"]

    def test_deadline_expiry_504(self, server, client):
        """Park the tenant's stream so its launch cannot run; the request's
        own deadline must surface as 504 without wedging the server."""
        gate = _park(server.tenants.get("slowpoke").stream)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.launch(SAXPY, 4, 64, _payload()["args"],
                              tenant="slowpoke", deadline_ms=200)
            assert excinfo.value.status == 504
            assert excinfo.value.body["kind"] == "deadline"
            assert client.stats()["counters"]["timeouts"] == 1
        finally:
            gate._fired.set()

    def test_contained_fault_is_422_with_report(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.launch(OOB, 1, 32,
                          {"x": np.zeros(32, dtype=np.float32), "n": 32})
        assert excinfo.value.status == 422
        body = excinfo.value.body
        assert body["ok"] is False
        assert "out of range" in body["error"]["message"]

    def test_malformed_request_400(self, server, client):
        # A non-int grid element or source that does not parse is answered
        # and counted, not a dropped connection, and nothing is queued.
        bodies = ({"kernel": ""}, {"kernel": SAXPY, "grid": [[1]],
                                   "block": 64},
                  {"kernel": SAXPY, "grid": 1, "block": 64,
                   "options": {"backend": "compiled"}},
                  {"kernel": "__global__ void k(float* x) { x[0] = ; }",
                   "grid": 1, "block": 1,
                   "args": {"x": encode_array(np.zeros(1, np.float32))}})
        before = client.stats()["counters"]
        for body in bodies:
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/v1/launch", body)
            assert excinfo.value.status == 400
            assert excinfo.value.body["kind"] == "protocol"
        assert excinfo.value.body["error"]["message"] == (
            "ParseError: [1:38] unexpected token ';'")
        after = client.stats()["counters"]
        assert after["errors"] - before["errors"] == len(bodies)
        assert after["completed"] == before["completed"]
        assert server.batcher.snapshot()["launches"] == 0

    def test_unknown_path_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_healthz_and_statz_shape(self, client):
        client.launch(SAXPY, 4, 64, _payload()["args"], tenant="alice")
        health = client.health()
        assert health["ok"]
        assert {"inflight", "max_inflight", "counters"} <= set(health)
        stats = client.stats()
        assert stats["counters"]["completed"] >= 1
        # Kept at 0 for readers of the old counter set (perfbench).
        assert stats["counters"]["shed_breaker"] == 0
        assert {"hits", "misses"} <= set(stats["kernel_cache"])
        assert "alice" in stats["tenants"]
        assert stats["tenants"]["alice"]["stream"] == "tenant-alice"
        assert stats["batcher"]["launches"] >= 1
        kinds = [e["kind"] for e in stats["events"]]
        assert "arrive" in kinds and "admit" in kinds and "complete" in kinds

    def test_profile_round_trip(self, client):
        """The body carries the profile; the server registers no copy."""
        from repro.prof import profile_names

        resp = client.launch(SAXPY, 4, 64, _payload()["args"],
                             tenant="prof", profile=True)
        assert resp["profile"]["kernel"] == "saxpy"
        assert resp["profile"]["lines"]
        assert "profile_name" not in resp
        assert [n for n in profile_names() if n.startswith("serve/")] == []

    def test_idle_tenant_threads_exit(self, client):
        """20 new tenant names leave no thread behind once idle."""
        from repro.gpusim.stream import IDLE_LINGER_S

        before = client.stats()["server"]["threads"]
        for i in range(20):
            client.launch(SAXPY, 4, 64, _wire_args_n(64), tenant=f"idle{i}")
        deadline = time.monotonic() + IDLE_LINGER_S + 10.0
        while (client.stats()["server"]["threads"] > before
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert client.stats()["server"]["threads"] <= before
        resp = client.launch(SAXPY, 4, 64, _wire_args_n(64), tenant="idle0")
        assert resp["ok"]

    def test_per_tenant_streams_fifo(self, server, client):
        """Each tenant's requests run on its own named stream."""
        client.launch(SAXPY, 4, 64, _payload()["args"], tenant="a")
        client.launch(SAXPY, 4, 64, _payload()["args"], tenant="b")
        tenants = client.stats()["tenants"]
        assert tenants["a"]["stream"] == "tenant-a"
        assert tenants["b"]["stream"] == "tenant-b"

    def test_counter_invariant(self, client):
        for i in range(3):
            client.launch(SAXPY, 4, 64, _wire_args_n(128 + i), tenant="inv")
        counters = client.stats()["counters"]
        assert (counters["launches"] + counters["coalesced"]
                == counters["completed"])
        assert counters["admitted"] >= counters["completed"]

    def test_drain_refuses_new_tenants(self, server, client):
        client.launch(SAXPY, 4, 64, _payload()["args"], tenant="early")
        assert server.tenants.close_all(5.0)
        with pytest.raises(RuntimeError, match="draining|closed"):
            server.tenants.get("latecomer")

    def test_drain_finishes_within_timeout(self, server):
        """Two parked tenant streams share one drain deadline: drain(0.5)
        reports False promptly instead of waiting for either worker."""
        gates = [_park(server.tenants.get(name).stream)
                 for name in ("stuck-a", "stuck-b")]
        verdict = []
        drainer = threading.Thread(
            target=lambda: verdict.append(server.drain(0.5)), daemon=True
        )
        try:
            t0 = time.monotonic()
            drainer.start()
            drainer.join(timeout=5.0)
            elapsed = time.monotonic() - t0
            assert not drainer.is_alive(), "drain(0.5) blocked past 5 s"
            assert verdict == [False]
            assert elapsed < 2.0
        finally:
            for gate in gates:
                gate._fired.set()

    def test_drain_without_serve_forever_returns(self):
        """A server whose loop never started has nothing to shut down:
        drain() must not wait for serve_forever to exit."""
        srv = KernelServer(("127.0.0.1", 0))
        verdict = []
        drainer = threading.Thread(
            target=lambda: verdict.append(srv.drain(0.5)), daemon=True
        )
        try:
            t0 = time.monotonic()
            drainer.start()
            drainer.join(timeout=3.0)
            elapsed = time.monotonic() - t0
            assert not drainer.is_alive(), "drain(0.5) blocked past 3 s"
            assert verdict == [True]
            assert elapsed < 2.0
            # The drain closed the tenant registry all the same, and a
            # loop started after it returns at once.
            with pytest.raises(RuntimeError, match="draining|closed"):
                srv.tenants.get("latecomer")
            loop = threading.Thread(target=srv.serve_forever, daemon=True)
            loop.start()
            loop.join(timeout=3.0)
            assert not loop.is_alive(), "serve_forever ran after a drain"
        finally:
            srv.server_close()

    @pytest.mark.parametrize("length, status, kind", [
        ("abc", 400, "protocol"),
        ("-5", 400, "protocol"),
        ("1e3", 400, "protocol"),
        (str(MAX_BODY_BYTES + 1), 413, "error"),
    ])
    def test_bad_content_length_refused(self, server, client, length,
                                        status, kind):
        """A Content-Length that is not a non-negative decimal integer is
        answered 400 (one past the cap, 413) and counted as an error, not
        a dropped connection."""
        before = client.stats()["counters"]
        with socket.create_connection(server.server_address[:2],
                                      timeout=10.0) as sock:
            sock.sendall(
                b"POST /v1/launch HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n{}")
            resp = http.client.HTTPResponse(sock)
            resp.begin()
            body = json.loads(resp.read())
        assert resp.status == status
        assert body["kind"] == kind
        # The unread body must not be parsed as a next request.
        assert resp.getheader("Connection") == "close"
        # A refused launch still reports the server time it took.
        assert resp.getheader("Server-Timing").startswith("total;dur=")
        after = client.stats()["counters"]
        assert after["requests"] - before["requests"] == 1
        assert after["errors"] - before["errors"] == 1


class TestKeepAlive:
    """Responses on a persistent connection leave without waiting for the
    client's delayed ACK (the server sets TCP_NODELAY)."""

    @staticmethod
    def _round_trips(server, count):
        body = json.dumps(_wire_payload()).encode()
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=30.0)
        out = []
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                conn.request("POST", "/v1/launch", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                out.append(((time.perf_counter() - t0) * 1e3, resp, payload))
        finally:
            conn.close()
        return out

    def test_back_to_back_launches_do_not_stall(self, server):
        # One unmeasured request first: the kernel cache and the tenant
        # stream start cold.
        trips = self._round_trips(server, 13)[1:]
        assert all(resp.status == 200 and payload["ok"]
                   for _, resp, payload in trips)
        median = statistics.median(ms for ms, _, _ in trips)
        assert median < 20.0, f"keep-alive round trip median {median:.1f} ms"

    def test_server_timing_header(self, server):
        for round_trip, resp, _ in self._round_trips(server, 3):
            header = resp.getheader("Server-Timing")
            assert header is not None
            phases = {}
            for entry in header.split(","):
                name, dur = entry.strip().split(";")
                assert dur.startswith("dur=")
                phases[name] = float(dur[len("dur="):])
            assert list(phases) == ["decode", "admit", "kernel_cache",
                                    "launch", "execute", "encode", "total"]
            assert all(ms >= 0.0 for ms in phases.values()), phases
            # The worker's own launch() time sits inside the server's wait.
            assert phases["execute"] <= phases["launch"]
            assert phases["total"] >= sum(
                phases[name] for name in
                ("decode", "admit", "kernel_cache", "launch", "encode"))
            assert phases["total"] <= round_trip


def _wire_args_n(n):
    x = np.arange(n, dtype=np.float32)
    y = np.ones(n, dtype=np.float32)
    return {"x": x, "y": y, "a": 2.0, "n": n}


def _spin_args():
    return {"x": np.zeros(32, dtype=np.float32), "n": 1}


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def _busy_pids(server):
    with server.workers._cond:
        idle = {w.pid for w in server.workers._idle}
        return [w.pid for w in server.workers._workers if w.pid not in idle]


def _alive(pid):
    """Running, not merely a zombie awaiting its reap."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestLaunchWorkers:
    """Served launches run on forked worker processes, which a deadline or
    a drain can kill."""

    def test_launch_runs_in_a_worker_process(self, server, client):
        client.launch(SAXPY, 4, 64, _payload()["args"], tenant="pid")
        workers = client.stats()["workers"]
        assert len(workers) == len(os.sched_getaffinity(0))
        assert sum(w["launches"] for w in workers) == 1
        for worker in workers:
            assert worker["pid"] != os.getpid()
            with open(f"/proc/{worker['pid']}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            assert ppid == os.getpid()
            assert worker["peak_rss_mb"] > 0 and worker["cpu_ms"] >= 0

    def test_killed_worker_fails_its_launch_and_is_replaced(self, server,
                                                             client):
        outcome = []

        def spin():
            try:
                client.launch(SPIN, 1, 32, _spin_args(), tenant="victim")
            except ServeError as exc:
                outcome.append(exc)

        spinner = threading.Thread(target=spin, daemon=True)
        spinner.start()
        _wait_for(lambda: _busy_pids(server))
        [pid] = _busy_pids(server)
        os.kill(pid, signal.SIGKILL)
        spinner.join(timeout=10.0)
        assert not spinner.is_alive()
        [exc] = outcome
        assert exc.status == 500
        message = exc.body["error"]["message"]
        assert f"launch worker {pid} was killed by signal 9 (SIGKILL)" in message
        assert "'tenant-victim' queue position 1" in message
        # The tenant's next launch runs on a fresh worker.
        assert client.launch(SAXPY, 4, 64, _payload()["args"],
                             tenant="victim")["ok"]
        workers = client.stats()["workers"]
        assert pid not in [w["pid"] for w in workers]
        assert sum(w["replacements"] for w in workers) == 1
        assert not _alive(pid)

    def test_last_expiring_waiter_cancels_a_coalesced_launch(self, server,
                                                             client):
        """Two waiters on one launch: the first deadline leaves it running,
        the second cancels it, and an identical request then launches
        afresh instead of joining the cancelled entry."""
        statuses = {}

        def wait(tenant, deadline_ms):
            try:
                client.launch(SPIN, 1, 32, _spin_args(), tenant=tenant,
                              deadline_ms=deadline_ms)
            except ServeError as exc:
                statuses[tenant] = exc.status

        first = threading.Thread(target=wait, args=("first", 1000))
        first.start()
        _wait_for(lambda: _busy_pids(server))
        [pid] = _busy_pids(server)
        second = threading.Thread(target=wait, args=("second", 2500))
        second.start()
        _wait_for(lambda: server.batcher.snapshot()["coalesced"] == 1)
        first.join(timeout=10.0)
        assert statuses == {"first": 504}
        assert _busy_pids(server) == [pid], "the first expiry stopped it"
        second.join(timeout=10.0)
        assert statuses == {"first": 504, "second": 504}
        _wait_for(lambda: sum(w["replacements"]
                              for w in client.stats()["workers"]) == 1)
        assert not _alive(pid)

        wait("third", 300)
        assert statuses["third"] == 504
        assert server.batcher.snapshot()["launches"] == 2
        assert server.batcher.snapshot()["coalesced"] == 1

    def test_queued_launch_whose_waiter_gave_up_is_skipped(self, server,
                                                           client):
        stream = server.tenants.get("parked").stream
        gate = _park(stream)
        try:
            with pytest.raises(ServeError) as excinfo:
                client.launch(SAXPY, 4, 64, _payload()["args"],
                              tenant="parked", deadline_ms=200)
            assert excinfo.value.status == 504
        finally:
            gate._fired.set()
        stream.synchronize(timeout=10.0)
        assert sum(w["launches"] for w in client.stats()["workers"]) == 0
        assert client.launch(SAXPY, 4, 64, _payload()["args"],
                             tenant="parked")["ok"]
        assert sum(w["launches"] for w in client.stats()["workers"]) == 1

    def test_more_tenants_than_workers_stress(self, server, client):
        """Six tenants share the workers under a short switch interval:
        every request is answered, every launch ran on exactly one worker,
        and every worker is idle again afterwards."""
        errors = []

        def tenant(tid):
            tenant_client = ServeClient(client.base_url)
            for i in range(4):
                # Rounds 0 and 2 send the same bytes from every tenant.
                n = 64 if i % 2 == 0 else 64 + 8 * tid + i
                try:
                    resp = tenant_client.launch(SAXPY, 1, 64, _wire_args_n(n),
                                                tenant=f"s{tid}")
                    assert resp["ok"]
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=tenant, args=(t,))
                       for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        counters = client.stats()["counters"]
        assert counters["completed"] == 24
        assert counters["launches"] + counters["coalesced"] == 24
        workers = client.stats()["workers"]
        assert sum(w["launches"] for w in workers) == counters["launches"]
        assert _busy_pids(server) == []

    def test_drain_kills_a_stuck_worker(self):
        """A drain that times out on a running launch still leaves no
        worker behind, and the stuck request is answered."""
        srv = KernelServer(("127.0.0.1", 0))
        loop = threading.Thread(target=srv.serve_forever, daemon=True)
        loop.start()
        client = ServeClient(f"http://127.0.0.1:{srv.server_address[1]}")
        pids = [w["pid"] for w in client.stats()["workers"]]
        outcome = []

        def spin():
            try:
                client.launch(SPIN, 1, 32, _spin_args(), tenant="stuck")
            except ServeError as exc:
                outcome.append(exc.status)

        spinner = threading.Thread(target=spin, daemon=True)
        try:
            spinner.start()
            _wait_for(lambda: _busy_pids(srv))
            assert srv.drain(0.5) is False
            spinner.join(timeout=10.0)
            assert outcome == [500]
            assert not any(_alive(pid) for pid in pids)
        finally:
            srv.server_close()


class TestStartupBackendCheck:
    """A bad ``GPUSIM_BACKEND``, admission cap or port stops a
    :class:`KernelServer` before it binds its port, instead of answering
    every launch with a 500 or 503."""

    @staticmethod
    def _forbid_bind(monkeypatch):
        def no_bind(self):
            raise AssertionError("server bound a port despite a bad setting")

        monkeypatch.setattr(KernelServer, "server_bind", no_bind)

    @pytest.mark.parametrize("value", ["compiledd", "compiled"])
    def test_bad_backend_exits_before_binding(
        self, value, monkeypatch, capsys
    ):
        from repro.serve import __main__ as serve_main

        monkeypatch.setenv("GPUSIM_BACKEND", value)
        self._forbid_bind(monkeypatch)
        assert serve_main.main(["--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "GPUSIM_BACKEND" in err and repr(value) in err
        assert "'megablock'" in err and "'interp'" in err

    def test_in_process_server_raises_before_binding(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_BACKEND", "bogus")
        self._forbid_bind(monkeypatch)
        with pytest.raises(
            ValueError,
            match="GPUSIM_BACKEND must be 'megablock' or 'interp', got 'bogus'",
        ):
            KernelServer(("127.0.0.1", 0))

    @pytest.mark.parametrize("argv, env, named", [
        pytest.param(["--max-inflight", "0"], {}, "--max-inflight",
                     id="flag-cap-0"),
        pytest.param(["--max-inflight", "-1"], {}, "--max-inflight",
                     id="flag-cap-negative"),
        pytest.param([], {"GPUSIM_SERVE_MAX_INFLIGHT": "0"},
                     "GPUSIM_SERVE_MAX_INFLIGHT", id="env-cap-0"),
        pytest.param([], {"GPUSIM_SERVE_MAX_INFLIGHT": "abc"},
                     "GPUSIM_SERVE_MAX_INFLIGHT", id="env-cap-not-int"),
        pytest.param([], {"GPUSIM_SERVE_PORT": "abc"}, "GPUSIM_SERVE_PORT",
                     id="env-port-not-int"),
    ])
    def test_bad_cap_or_port_exits_before_binding(
        self, argv, env, named, monkeypatch, capsys
    ):
        from repro.serve import __main__ as serve_main

        for name in ("GPUSIM_SERVE_PORT", "GPUSIM_SERVE_MAX_INFLIGHT"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        self._forbid_bind(monkeypatch)
        with pytest.raises(SystemExit) as excinfo:
            serve_main.main(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("cap", [0, -1])
    def test_in_process_server_rejects_bad_cap(self, cap, monkeypatch):
        self._forbid_bind(monkeypatch)
        with pytest.raises(ValueError, match="max_inflight must be >= 1"):
            KernelServer(("127.0.0.1", 0), max_inflight=cap)


class TestKernelCacheDedupe:
    def test_parse_once_per_source(self, server, client):
        for i in range(4):
            client.launch(SAXPY, 4, 64, _wire_args_n(64), tenant=f"t{i}")
        snap = server.kernel_cache.snapshot()
        assert snap["misses"] == 1
        assert snap["hits"] >= 3


class TestServeTimeline:
    def test_serve_events_exported(self, client):
        from repro.prof.timeline import SERVE_ROW, serve_events
        from repro.serve.metrics import clear_serve_events

        clear_serve_events()
        client.launch(SAXPY, 4, 64, _wire_args_n(64), tenant="tl")
        events = serve_events()
        assert events, "no serve instants exported"
        kinds = {e["name"].split(":")[0] for e in events}
        assert {"arrive", "admit", "complete"} <= kinds
        assert all(e["tid"] == SERVE_ROW for e in events)
        assert all(e["ph"] == "i" and e["cat"] == "serve" for e in events)

    def test_chrome_trace_gains_serve_row(self, client):
        from repro.gpusim.launch import launch
        from repro.minicuda.parser import parse_kernel as _parse
        from repro.prof.timeline import SERVE_ROW, chrome_trace
        from repro.serve.metrics import clear_serve_events

        clear_serve_events()
        client.launch(SAXPY, 4, 64, _wire_args_n(64), tenant="tr")
        profiled = launch(_parse(SAXPY), 4, 64, _wire_args_n(64),
                          profile=True)
        trace = chrome_trace(profiled)
        rows = {e.get("tid") for e in trace["traceEvents"]}
        assert SERVE_ROW in rows
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert "serve" in names


# -- parse_request fuzzer ----------------------------------------------------

#: Any JSON value, nested a few levels deep (NaN and the infinities
#: included: Python's json module reads and writes them).
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

#: Array objects that are malformed in every field the decoder reads.
_array = st.fixed_dictionaries(
    {},
    optional={
        "dtype": st.sampled_from(
            ["float32", "int32", "uint8", "float16", "bool"]) | _json,
        "shape": st.lists(st.integers(-3, 70) | _json, max_size=4) | _json,
        "data": st.binary(max_size=24).map(
            lambda b: base64.b64encode(b).decode()) | st.text(max_size=12)
        | _json,
    },
)

_dim = st.integers(-2, 70) | st.lists(st.integers(-2, 70) | _json, max_size=5) | _json

_payloads = st.fixed_dictionaries(
    {},
    optional={
        "kernel": st.just(SAXPY) | _json,
        "grid": _dim,
        "block": _dim,
        "tenant": st.text(max_size=6) | _json,
        "args": st.dictionaries(st.text(max_size=4),
                                _array | st.integers() | st.floats() | _json,
                                max_size=4) | _json,
        "const_arrays": st.dictionaries(st.text(max_size=4), _array,
                                        max_size=2) | _json,
        "options": st.fixed_dictionaries({}, optional={
            "backend": st.sampled_from(["interp", "compiled", "megablock"])
            | _json,
            "deadline_ms": st.floats() | st.integers() | st.text(max_size=6)
            | _json,
            "profile": _json,
        }) | _json,
    },
) | _json


def _assert_parses_or_rejects(body: bytes) -> None:
    try:
        req = parse_request(body)
    except ProtocolError:
        return
    assert isinstance(req.grid, tuple) and isinstance(req.block, tuple)
    assert req.deadline_ms is None or req.deadline_ms > 0


class TestProtocolFuzz:
    """Arbitrary payloads may only ever yield a request or a
    ProtocolError (HTTP 400) — never another exception."""

    @settings(max_examples=400)
    @given(_payloads)
    def test_json_payloads(self, payload):
        _assert_parses_or_rejects(json.dumps(payload).encode())

    @settings(max_examples=150)
    @given(st.binary(max_size=64))
    def test_raw_bytes(self, body):
        _assert_parses_or_rejects(body)
