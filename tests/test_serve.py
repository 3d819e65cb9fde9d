"""Kernel-server tests: protocol, coalescing, admission control, drain."""

import base64
import dataclasses
import http.client
import itertools
import json
import os
import signal
import socket
import statistics
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.errors import LaunchError
from repro.kernels import BENCHMARKS
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
from repro.serve.batcher import TENANT_CAPACITY, CoalescingBatcher, Draining
from repro.serve.workers import KernelSource, LaunchWorkers

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


@pytest.fixture
def batcher():
    dispatcher = CoalescingBatcher(LaunchWorkers())
    yield dispatcher
    dispatcher.drain(10.0)


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
        longest = "t" * 128
        assert parse_request(json.dumps(
            {**good, "tenant": longest}).encode()).tenant == longest
        one_day = {**good, "options": {"deadline_ms": 86_400_000}}
        assert parse_request(
            json.dumps(one_day).encode()).deadline_ms == 86_400_000

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
            # Deadlines must be finite (a NaN one would answer 504 at once)
            # and at most one day.
            *(json.dumps({**good, "options": {"deadline_ms": value}}).encode()
              for value in ("nan", "inf", "-inf", float("nan"),
                            float("inf"), 10**400, 86_400_001)),
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
    def test_concurrent_duplicates_share_one_launch(self, batcher):
        """Deterministic coalescing: a spinning launch holds the tenant, so
        the first of four identical requests queues behind it and the other
        three join it: one launch, three followers, every result the same
        object."""
        spinner, _ = _hold(batcher, "hol")
        n = 256
        results = {}

        def submit(idx):
            tenant = "hol" if idx == 0 else f"tenant-{idx}"
            results[idx] = _submit(batcher, _wire_payload(n=n, tenant=tenant))

        leader = threading.Thread(target=submit, args=(0,))
        leader.start()
        _wait_for(lambda: batcher.inflight() == 2)
        followers = [threading.Thread(target=submit, args=(i,))
                     for i in (1, 2, 3)]
        for t in followers:
            t.start()
        _wait_for(lambda: batcher.coalesced == 3)
        _kill_spinner(batcher)
        for t in (spinner, leader, *followers):
            t.join(timeout=10.0)
            assert not t.is_alive()

        assert len(results) == 4
        assert batcher.launches == 2  # the spinner and the leader
        assert batcher.coalesced == 3
        assert [c for _, c in results.values()].count(True) == 3
        # Fan-out is the same LaunchResult => bit-identical by identity.
        launch_results = {id(r) for r, _ in results.values()}
        assert len(launch_results) == 1
        only = results[0][0]
        expect = 2.0 * np.arange(n, dtype=np.float32) + 1.0
        assert np.array_equal(only.buffer("y"), expect)
        assert batcher.inflight() == 0  # entry retired

    def test_sequential_identical_requests_do_not_coalesce(self, batcher):
        """A settled entry leaves the map at once: a later identical
        request starts a fresh launch instead of reading stale state."""
        for expected_launches in (1, 2):
            result, coalesced = _submit(batcher, _wire_payload())
            assert result.ok and not coalesced
            assert batcher.launches == expected_launches
        assert batcher.coalesced == 0

    def test_deadline_timeout_keeps_entry_inflight(self, batcher):
        """A waiter whose deadline passes leaves a launch that another
        request still waits on: the entry stays in flight, and the
        follower gets its result once the launch runs."""
        spinner, _ = _hold(batcher, "stuck")
        outcome = {}

        def wait(name, deadline):
            try:
                outcome[name] = _submit(
                    batcher, _wire_payload(tenant="stuck"), deadline)
            except TimeoutError as exc:
                outcome[name] = exc

        leader = threading.Thread(
            target=wait, args=("leader", time.monotonic() + 1.0))
        leader.start()
        _wait_for(lambda: batcher.inflight() == 2)
        follower = threading.Thread(target=wait, args=("follower", None))
        follower.start()
        _wait_for(lambda: batcher.coalesced == 1)
        leader.join(timeout=10.0)
        assert isinstance(outcome["leader"], TimeoutError)
        assert "deadline" in str(outcome["leader"])
        assert batcher.inflight() == 2  # the spinner and the entry
        _kill_spinner(batcher)
        for t in (spinner, follower):
            t.join(timeout=10.0)
            assert not t.is_alive()
        result, coalesced = outcome["follower"]
        assert result.ok and coalesced
        assert batcher.inflight() == 0

    @pytest.mark.parametrize("seconds", [3e6, 1e10],
                             ids=["pipe-wait", "lock-wait"])
    def test_a_wait_that_raises_leaves_nothing_behind(self, batcher, seconds):
        """A deadline too far away for the pipe's poll() (24.8 days) or for
        a lock's timeout makes the waiter's own wait raise.  The launch
        fails, but its worker is not left busy and its entry does not stay
        at the head of its tenant's queue: the tenant's next launch runs."""
        with pytest.raises(OverflowError):
            _submit(batcher, _wire_payload(tenant="far"),
                    time.monotonic() + seconds)
        assert batcher.inflight() == 0 and not batcher._queues
        assert _busy_pids(batcher._workers) == []
        result, coalesced = _submit(batcher, _wire_payload(n=64, tenant="far"),
                                    time.monotonic() + 10.0)
        assert result.ok and not coalesced
        assert _busy_pids(batcher._workers) == []

    def test_request_already_late_takes_no_worker(self, batcher):
        """A waiter whose deadline has passed before its launch could start
        leaves without sending the job: nothing runs, no worker is killed
        or forked, and the tenant's next launch runs."""
        with pytest.raises(TimeoutError):
            _submit(batcher, _wire_payload(tenant="late"),
                    time.monotonic() - 1.0)
        assert batcher.inflight() == 0 and not batcher._queues
        workers = batcher._workers.snapshot()
        assert sum(w["launches"] for w in workers) == 0
        assert sum(w["replacements"] for w in workers) == 0
        result, _ = _submit(batcher, _wire_payload(tenant="late"))
        assert result.ok


class TestTenantState:
    def test_tenant_state_stays_bounded(self):
        """2,000 new tenant names and then 2,000 more go through the
        dispatcher's tenant bookkeeping (on workers that answer at once, so
        no process or thread starts): the second batch retains almost
        nothing, and only the most recent tenants are listed."""
        done = SimpleNamespace(error=None)

        class InstantWorkers:
            def acquire(self):
                return self

            def start(self, worker, *job):
                pass

            def wait(self, worker, timeout):
                return True

            def result(self, worker, where):
                return done

        batcher = CoalescingBatcher(InstantWorkers())
        req = parse_request(json.dumps(_wire_payload(n=64)).encode())
        key = coalesce_key(req)

        def churn(first):
            for i in range(first, first + 2000):
                batcher.submit(dataclasses.replace(req, tenant=f"t{i}"),
                               key, None, {})

        tracemalloc.start()
        try:
            churn(0)
            before = tracemalloc.get_traced_memory()[0]
            churn(2000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024, f"{grown} bytes retained by 2,000 tenants"
        tenants = batcher.tenants()
        assert len(tenants) == TENANT_CAPACITY
        assert "t3999" in tenants and "t0" not in tenants
        assert tenants["t3999"] == {"requests": 1, "launches": 1,
                                    "coalesced": 0, "errors": 0}
        assert batcher.inflight() == 0 and not batcher._queues


#: Distinct spinning launches (never coalesced with one another).
_SPINS = itertools.count(1)


def _submit(batcher, payload, deadline=None):
    req = parse_request(json.dumps(payload).encode())
    return batcher.submit(req, coalesce_key(req),
                          KernelSource(req.source_digest, req.source), {},
                          deadline=deadline)


def _hold(batcher, tenant, seconds=None):
    """Queue a launch that never ends on ``tenant``, so the tenant's later
    launches wait behind it; its deadline, ``seconds`` away, cancels it
    (without one, only killing its worker ends it).  Returns the submitting
    thread and the list the exception that ended the launch lands in."""
    outcome = []
    payload = {"tenant": tenant, "kernel": SPIN, "grid": 1, "block": 32,
               "args": {"x": encode_array(np.zeros(32, dtype=np.float32)),
                        "n": next(_SPINS)}}

    def spin():
        try:
            _submit(batcher, payload,
                    None if seconds is None else time.monotonic() + seconds)
        except Exception as exc:
            outcome.append(exc)

    before = batcher.inflight()
    thread = threading.Thread(target=spin, daemon=True)
    thread.start()
    _wait_for(lambda: batcher.inflight() > before)
    return thread, outcome


def _kill_spinner(batcher):
    """Kill the one busy worker, which fails the launch it runs."""
    _wait_for(lambda: _busy_pids(batcher._workers))
    [pid] = _busy_pids(batcher._workers)
    os.kill(pid, signal.SIGKILL)


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
        """A launch queued behind a spinning one on its tenant cannot run;
        the request's own deadline must surface as 504 without wedging the
        server."""
        spinner, _ = _hold(server.batcher, "slowpoke", 1.0)
        with pytest.raises(ServeError) as excinfo:
            client.launch(SAXPY, 4, 64, _payload()["args"],
                          tenant="slowpoke", deadline_ms=200)
        assert excinfo.value.status == 504
        assert excinfo.value.body["kind"] == "deadline"
        assert client.stats()["counters"]["timeouts"] == 1
        spinner.join(timeout=10.0)
        assert not spinner.is_alive()
        assert client.launch(SAXPY, 4, 64, _payload()["args"],
                             tenant="slowpoke")["ok"]

    def test_contained_fault_is_422_with_report(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.launch(OOB, 1, 32,
                          {"x": np.zeros(32, dtype=np.float32), "n": 32})
        assert excinfo.value.status == 422
        body = excinfo.value.body
        assert body["ok"] is False
        assert "out of range" in body["error"]["message"]
        # A failed launch leaves its tenant free for the next one.
        assert client.launch(SAXPY, 4, 64, _payload()["args"])["ok"]

    def test_malformed_request_400(self, server, client):
        # A non-int grid element or source that does not parse is answered
        # and counted, not a dropped connection, and nothing is queued.
        bodies = ({"kernel": ""}, {"kernel": SAXPY, "grid": [[1]],
                                   "block": 64},
                  {"kernel": SAXPY, "grid": 1, "block": 64,
                   "options": {"backend": "compiled"}},
                  # Tenant names are capped at 128 characters.
                  {"kernel": SAXPY, "grid": 1, "block": 64,
                   "tenant": "t" * 129},
                  # Deadlines are capped at one day: a wait on the worker's
                  # pipe cannot take 24.8 days or more.
                  *({"kernel": SAXPY, "grid": 1, "block": 64,
                     "options": {"deadline_ms": ms}} for ms in (3e9, 1e13)),
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
        # The refused requests' tenant still launches, and no worker is busy.
        assert client.launch(SAXPY, 4, 64, _payload()["args"],
                             tenant="default")["ok"]
        assert _busy_pids(server.workers) == []

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
        assert stats["tenants"]["alice"] == {
            "requests": 1, "launches": 1, "coalesced": 0, "errors": 0}
        assert stats["batcher"]["launches"] >= 1
        kinds = [e["kind"] for e in stats["events"]]
        assert "arrive" in kinds and "admit" in kinds and "complete" in kinds

    def test_profile_round_trip(self, client):
        """The body carries the profile."""
        resp = client.launch(SAXPY, 4, 64, _payload()["args"],
                             tenant="prof", profile=True)
        assert resp["profile"]["kernel"] == "saxpy"
        assert resp["profile"]["lines"]
        assert "profile_name" not in resp

    def test_idle_tenant_threads_exit(self, server):
        """20 new tenant names start no thread: over one keep-alive
        connection, the server's thread count right after them equals the
        count before."""
        conn = http.client.HTTPConnection(*server.server_address[:2],
                                          timeout=30.0)

        def call(method, path, body=None):
            conn.request(method, path, body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())

        try:
            before = call("GET", "/statz")[1]["server"]["threads"]
            for i in range(20):
                status, _ = call("POST", "/v1/launch", json.dumps(
                    _wire_payload(n=64, tenant=f"idle{i}")).encode())
                assert status == 200
            assert call("GET", "/statz")[1]["server"]["threads"] == before
        finally:
            conn.close()

    def test_per_tenant_fifo(self, server, client, monkeypatch):
        """A tenant's launches run one at a time in arrival order: B and C,
        queued behind a spinning launch, start only once its deadline
        cancelled it, C only after B finished, while another tenant's
        launch runs meanwhile."""
        workers = server.workers
        events, running = [], {}
        start, result, kill = workers.start, workers.result, workers.kill

        def spy_start(worker, kernel, grid, block, args, kwargs):
            running[worker] = args.get("a")
            events.append(("start", running[worker]))
            start(worker, kernel, grid, block, args, kwargs)

        def spy_result(worker, where):
            reply = result(worker, where)
            events.append(("done", running.pop(worker)))
            return reply

        def spy_kill(worker):
            events.append(("kill", running.pop(worker)))
            kill(worker)

        monkeypatch.setattr(workers, "start", spy_start)
        monkeypatch.setattr(workers, "result", spy_result)
        monkeypatch.setattr(workers, "kill", spy_kill)
        statuses = {}

        def send(name, kernel, args, **options):
            try:
                ServeClient(client.base_url).launch(
                    kernel, 1, 64, args, tenant="fifo", **options)
                statuses[name] = 200
            except ServeError as exc:
                statuses[name] = exc.status

        spinner = threading.Thread(target=send, args=(
            "spin", SPIN, _spin_args()), kwargs={"deadline_ms": 1500})
        spinner.start()
        _wait_for(lambda: _busy_pids(workers))
        [pid] = _busy_pids(workers)
        queued = []
        for name, a in (("B", 3.0), ("C", 4.0)):
            queued.append(threading.Thread(target=send, args=(
                name, SAXPY, dict(_wire_args_n(64), a=a))))
            queued[-1].start()
            _wait_for(lambda: server.batcher.launches == len(queued) + 1)
        others = 0
        if len(client.stats()["workers"]) >= 2:
            assert client.launch(SAXPY, 1, 64, dict(_wire_args_n(64), a=5.0),
                                 tenant="other")["ok"]
            others = 1
        # Neither B nor C started while the spinner runs.
        assert _busy_pids(workers) == [pid]
        assert sum(w["launches"] for w in client.stats()["workers"]) == others
        assert [e for e in events if e[1] != 5.0] == [("start", None)]
        for t in (spinner, *queued):
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert statuses == {"spin": 504, "B": 200, "C": 200}
        # The spinner's cancel frees its tenant before its worker is killed.
        assert ("kill", None) in events
        assert [e for e in events if e[1] != 5.0 and e[0] != "kill"] == [
            ("start", None), ("start", 3.0), ("done", 3.0), ("start", 4.0),
            ("done", 4.0)]

    def test_counter_invariant(self, client):
        for i in range(3):
            client.launch(SAXPY, 4, 64, _wire_args_n(128 + i), tenant="inv")
        counters = client.stats()["counters"]
        assert (counters["launches"] + counters["coalesced"]
                == counters["completed"])
        assert counters["admitted"] >= counters["completed"]

    def test_drain_refuses_new_tenants(self, server, client):
        """A request that reaches the dispatcher after the drain began is
        answered 503 draining, and no worker runs anything for it."""
        client.launch(SAXPY, 4, 64, _payload()["args"], tenant="early")
        assert server.batcher.drain(5.0)
        with pytest.raises(Draining):
            _submit(server.batcher, _wire_payload(tenant="latecomer"))
        with pytest.raises(ServeError) as excinfo:
            client.launch(SAXPY, 4, 64, _wire_args_n(64), tenant="latecomer")
        assert excinfo.value.status == 503
        assert excinfo.value.body["kind"] == "draining"
        assert excinfo.value.retry_after is not None
        assert sum(w["launches"] for w in client.stats()["workers"]) == 1
        assert "latecomer" not in client.stats()["tenants"]

    def test_drain_finishes_within_timeout(self, server):
        """Two tenants held by spinning launches share one drain deadline:
        drain(0.5) reports False promptly instead of waiting for either,
        and both spinners end with it."""
        spinners = [_hold(server.batcher, name, 30.0)
                    for name in ("stuck-a", "stuck-b")]
        verdict = []
        drainer = threading.Thread(
            target=lambda: verdict.append(server.drain(0.5)), daemon=True
        )
        t0 = time.monotonic()
        drainer.start()
        drainer.join(timeout=5.0)
        elapsed = time.monotonic() - t0
        assert not drainer.is_alive(), "drain(0.5) blocked past 5 s"
        assert verdict == [False]
        assert elapsed < 2.0
        for spinner, outcome in spinners:
            spinner.join(timeout=5.0)
            assert not spinner.is_alive()
            [exc] = outcome
            assert isinstance(exc, LaunchError), exc

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
            # The drain refuses launches all the same, and a loop started
            # after it returns at once.
            with pytest.raises(Draining):
                _submit(srv.batcher, _wire_payload(tenant="latecomer"))
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
        # One unmeasured request first: the kernel cache starts cold.
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


def _busy_pids(workers):
    with workers._lock:
        idle = {w.pid for w in workers._idle}
        return [w.pid for w in workers._workers if w.pid not in idle]


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
        _wait_for(lambda: _busy_pids(server.workers))
        [pid] = _busy_pids(server.workers)
        os.kill(pid, signal.SIGKILL)
        spinner.join(timeout=10.0)
        assert not spinner.is_alive()
        [exc] = outcome
        assert exc.status == 500
        message = exc.body["error"]["message"]
        assert f"launch worker {pid} was killed by signal 9 (SIGKILL)" in message
        assert "the launch of tenant 'victim' arrival 1" in message
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
        _wait_for(lambda: _busy_pids(server.workers))
        [pid] = _busy_pids(server.workers)
        second = threading.Thread(target=wait, args=("second", 2500))
        second.start()
        _wait_for(lambda: server.batcher.snapshot()["coalesced"] == 1)
        first.join(timeout=10.0)
        assert statuses == {"first": 504}
        assert _busy_pids(server.workers) == [pid], (
            "the first expiry stopped it")
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
        spinner, _ = _hold(server.batcher, "parked", 1.0)
        with pytest.raises(ServeError) as excinfo:
            client.launch(SAXPY, 4, 64, _payload()["args"],
                          tenant="parked", deadline_ms=200)
        assert excinfo.value.status == 504
        spinner.join(timeout=10.0)
        assert not spinner.is_alive()
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
        assert _busy_pids(server.workers) == []

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
            _wait_for(lambda: _busy_pids(srv.workers))
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
