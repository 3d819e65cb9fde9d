"""Kernel-server tests: protocol, coalescing, admission control, drain."""

import base64
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.resilience import get_breaker, reset_breaker
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
    srv = KernelServer(("127.0.0.1", 0), max_inflight=8, debug=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.drain(10.0)
    srv.server_close()
    reset_breaker()
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

    def test_breaker_open_sheds_with_retry_after(self, client):
        get_breaker().force_open("test")
        try:
            with pytest.raises(ServeError) as excinfo:
                client.launch(SAXPY, 4, 64, _payload()["args"])
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert excinfo.value.body["kind"] == "shed-breaker"
        finally:
            reset_breaker()
        # Closed again: requests flow.
        assert client.launch(SAXPY, 4, 64, _payload()["args"])["ok"]

    def test_debug_breaker_endpoint(self, client):
        assert client.debug_breaker("open")["breaker"] == "open"
        assert client.health()["breaker"] == "open"
        assert client.debug_breaker("reset")["breaker"] == "closed"

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
        tenant = server.tenants.get("slowpoke")
        gate = Event(name="gate")
        gate._stream_name = tenant.stream.name
        tenant.stream._enqueue(("wait", gate))
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

    def test_malformed_request_400(self, client):
        # A non-int grid element is answered, not a dropped connection.
        for body in ({"kernel": ""}, {"kernel": SAXPY, "grid": [[1]],
                                      "block": 64},
                     {"kernel": SAXPY, "grid": 1, "block": 64,
                      "options": {"backend": "compiled"}}):
            with pytest.raises(ServeError) as excinfo:
                client._request("POST", "/v1/launch", body)
            assert excinfo.value.status == 400
            assert excinfo.value.body["kind"] == "protocol"

    def test_unknown_path_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_healthz_and_statz_shape(self, client):
        client.launch(SAXPY, 4, 64, _payload()["args"], tenant="alice")
        health = client.health()
        assert health["ok"] and health["breaker"] in ("closed", "open",
                                                      "half-open")
        assert {"inflight", "max_inflight", "workers",
                "counters"} <= set(health)
        stats = client.stats()
        assert stats["counters"]["completed"] >= 1
        assert "alice" in stats["tenants"]
        assert stats["tenants"]["alice"]["stream"] == "tenant-alice"
        assert stats["batcher"]["launches"] >= 1
        kinds = [e["kind"] for e in stats["events"]]
        assert "arrive" in kinds and "admit" in kinds and "complete" in kinds

    def test_profile_round_trip(self, client):
        resp = client.launch(SAXPY, 4, 64, _payload()["args"],
                             tenant="prof", profile=True)
        assert resp["profile"] is not None
        assert resp["profile_name"] == "serve/prof/saxpy"
        from repro.prof import get_profile

        assert get_profile("serve/prof/saxpy") is not None

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


def _wire_args_n(n):
    x = np.arange(n, dtype=np.float32)
    y = np.ones(n, dtype=np.float32)
    return {"x": x, "y": y, "a": 2.0, "n": n}


class TestStartupBackendCheck:
    """A bad ``GPUSIM_BACKEND`` stops a :class:`KernelServer` before it
    binds its port, instead of answering every launch with a 500."""

    @staticmethod
    def _forbid_bind(monkeypatch):
        def no_bind(self):
            raise AssertionError("server bound a port despite a bad backend")

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


class TestKernelCacheDedupe:
    def test_parse_once_per_source(self, server, client):
        for i in range(4):
            client.launch(SAXPY, 4, 64, _wire_args_n(64), tenant=f"t{i}")
        snap = server.kernel_cache.snapshot()
        assert snap["misses"] == 1
        assert snap["hits"] >= 3

    def test_disk_tier_round_trip(self, tmp_path):
        from repro.gpusim import diskcache
        from repro.serve.kernels import KernelCache

        diskcache.configure(tmp_path / "cache")
        try:
            import hashlib

            digest = hashlib.sha256(SAXPY.encode()).hexdigest()
            first = KernelCache()
            kernel = first.get(digest, SAXPY)
            assert kernel.name == "saxpy"
            # A fresh cache (new process analogue) rehydrates from disk.
            second = KernelCache()
            again = second.get(digest, SAXPY)
            assert again.name == "saxpy"
            assert second.snapshot()["disk_hits"] == 1
        finally:
            diskcache.reset_configuration()


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
