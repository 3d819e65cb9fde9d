"""The multi-tenant kernel server: HTTP front end over the simulator.

``KernelServer`` is a stdlib :class:`~http.server.ThreadingHTTPServer`
(one handler thread per connection — no third-party framework) exposing:

- ``POST /v1/launch`` — simulate one kernel launch (see
  :mod:`repro.serve.protocol` for the JSON schema).  Identical concurrent
  requests are coalesced into one execution; each tenant's launches run
  in FIFO order on its own stream.
- ``GET /healthz`` — liveness: breaker state, pool worker health,
  in-flight count.
- ``GET /statz`` — the default engine and full counters: server,
  per-tenant, batcher, kernel cache, disk cache, breaker.
- ``POST /debug/breaker`` — (only with ``debug=True``) force the circuit
  breaker open or reset it, so breaker-aware shedding is testable
  without crashing real workers.

Admission control happens before any simulator work:

1. circuit breaker *open* → ``503`` with ``Retry-After`` (the worker
   pool is known-unhealthy; shedding beats queueing);
2. in-flight cap (``max_inflight``) reached → ``503`` with
   ``Retry-After``;
3. otherwise the request is admitted and carries its own
   ``deadline_ms`` — expiry returns ``504`` without cancelling the
   underlying launch (a coalesced sibling may still be waiting on it).

Faulting launches are *contained*, CUDA-style: the kernel runs with
``on_error="status"`` and a located fault comes back as ``422`` with the
full :class:`~repro.gpusim.diagnostics.FaultReport` summary in the body.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..gpusim import pool as gpupool
from ..gpusim.launch import default_backend
from ..gpusim.resilience import get_breaker
from ..prof.registry import record_profile
from . import metrics
from .batcher import CoalescingBatcher
from .kernels import KernelCache
from .protocol import (
    ProtocolError,
    coalesce_key,
    encode_result,
    error_body,
    parse_request,
)
from .tenants import TenantRegistry

#: Default seconds clients are told to back off when the server sheds.
RETRY_AFTER_S = 1

#: Request bodies past this size are refused outright (64 MiB of base64
#: covers every paper benchmark with room to spare).
MAX_BODY_BYTES = 64 * 1024 * 1024


class KernelServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning all serve-layer state."""

    daemon_threads = True

    def __init__(self, address, *, max_inflight: int = 32,
                 debug: bool = False) -> None:
        # A bad GPUSIM_BACKEND raises its ValueError here, before the
        # socket binds, instead of failing every launch with a 500.
        default_backend()
        super().__init__(address, ServeHandler)
        self.max_inflight = max_inflight
        self.debug = debug
        self.counters = metrics.ServeCounters()
        self.batcher = CoalescingBatcher()
        self.tenants = TenantRegistry()
        self.kernel_cache = KernelCache()
        self.started = time.monotonic()
        self._admission = threading.BoundedSemaphore(max_inflight)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, drain streams, drain the pool.

        Returns True when every tenant stream and every pool worker wound
        down cleanly within ``timeout`` — the server process should exit
        non-zero otherwise, so orphaned workers are an observable failure.
        """
        self.shutdown()
        streams_clean = self.tenants.close_all(timeout)
        pool_clean = gpupool.drain_pool(timeout)
        return streams_clean and pool_clean


class ServeHandler(BaseHTTPRequestHandler):
    server: KernelServer
    protocol_version = "HTTP/1.1"

    # Quiet by default: per-request stderr lines are noise under load.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing ------------------------------------------------------------

    def _send(self, code: int, body: bytes,
              extra_headers: Optional[dict] = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _send_json(self, code: int, obj: dict,
                   extra_headers: Optional[dict] = None) -> None:
        self._send(code, json.dumps(obj).encode(), extra_headers)

    def _read_body(self) -> Optional[bytes]:
        length = self.headers.get("Content-Length")
        if length is None:
            self._send(411, error_body("Content-Length is required"))
            return None
        length = int(length)
        if length > MAX_BODY_BYTES:
            self._send(413, error_body(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"))
            return None
        return self.rfile.read(length)

    # -- GET: health + stats -------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            # Reading pool internals (not get_pool()) on purpose: a health
            # probe must never be what spawns the worker pool.
            workers = (
                gpupool._POOL.health() if gpupool._POOL is not None else []
            )
            self._send_json(200, {
                "ok": True,
                "uptime_s": round(time.monotonic() - self.server.started, 3),
                "breaker": get_breaker().state,
                "inflight": self.server.batcher.inflight(),
                "max_inflight": self.server.max_inflight,
                "workers": workers,
                "counters": self.server.counters.snapshot(),
            })
        elif self.path == "/statz":
            from ..gpusim.diskcache import get_disk_cache

            disk = get_disk_cache()
            self._send_json(200, {
                # The engine a request without options.backend runs on.
                "default_backend": default_backend(),
                "counters": self.server.counters.snapshot(),
                "tenants": self.server.tenants.snapshot(),
                "batcher": self.server.batcher.snapshot(),
                "kernel_cache": self.server.kernel_cache.snapshot(),
                "disk_cache": None if disk is None else str(disk.root),
                "breaker": {
                    "state": get_breaker().state,
                    "trips": get_breaker().trips,
                },
                "events": [
                    {"ts": e.ts, "kind": e.kind, "tenant": e.tenant,
                     "key": e.key, "detail": e.detail}
                    for e in metrics.serve_events()[-64:]
                ],
            })
        else:
            self._send(404, error_body(f"unknown path {self.path!r}"))

    # -- POST: launch + debug ------------------------------------------------

    def do_POST(self) -> None:
        if self.path == "/v1/launch":
            self._handle_launch()
        elif self.path == "/debug/breaker":
            self._handle_debug_breaker()
        else:
            self._send(404, error_body(f"unknown path {self.path!r}"))

    def _handle_debug_breaker(self) -> None:
        if not self.server.debug:
            self._send(403, error_body(
                "debug endpoints are disabled (start with --debug)"))
            return
        body = self._read_body()
        if body is None:
            return
        try:
            action = json.loads(body.decode()).get("action")
        except (ValueError, AttributeError):
            action = None
        breaker = get_breaker()
        if action == "open":
            breaker.force_open("debug endpoint")
        elif action == "reset":
            breaker.reset()
        else:
            self._send(400, error_body('"action" must be "open" or "reset"'))
            return
        self._send_json(200, {"ok": True, "breaker": breaker.state})

    def _handle_launch(self) -> None:
        server = self.server
        counters = server.counters
        counters.bump("requests")
        body = self._read_body()
        if body is None:
            counters.bump("errors")
            return

        try:
            req = parse_request(body)
        except ProtocolError as exc:
            counters.bump("errors")
            self._send(400, error_body(str(exc), kind="protocol"))
            return
        metrics.record_event("arrive", tenant=req.tenant,
                             detail=f"{len(body)}B")

        # Admission gate 1: known-unhealthy worker pool -> shed.
        breaker = get_breaker()
        if breaker.state == "open":
            counters.bump("shed_breaker")
            metrics.record_event("shed", tenant=req.tenant,
                                 detail="breaker-open")
            self._send(
                503,
                error_body("circuit breaker is open; retry shortly",
                           kind="shed-breaker"),
                {"Retry-After": str(RETRY_AFTER_S)},
            )
            return

        # Admission gate 2: bounded concurrency.
        if not server._admission.acquire(blocking=False):
            counters.bump("shed_capacity")
            metrics.record_event("shed", tenant=req.tenant,
                                 detail="capacity")
            self._send(
                503,
                error_body(
                    f"server is at its in-flight limit "
                    f"({server.max_inflight}); retry shortly",
                    kind="shed-capacity"),
                {"Retry-After": str(RETRY_AFTER_S)},
            )
            return

        try:
            self._admitted_launch(req)
        finally:
            server._admission.release()

    def _admitted_launch(self, req) -> None:
        server = self.server
        counters = server.counters
        counters.bump("admitted")
        key = coalesce_key(req)
        metrics.record_event("admit", tenant=req.tenant, key=key)

        try:
            tenant = server.tenants.get(req.tenant)
        except RuntimeError as exc:  # registry closed: draining
            counters.bump("errors")
            self._send(503, error_body(str(exc), kind="draining"),
                       {"Retry-After": str(RETRY_AFTER_S)})
            return
        tenant.bump("requests")

        kernel = server.kernel_cache.get(req.source_digest, req.source)
        launch_kwargs = {}
        if req.backend is not None:
            launch_kwargs["backend"] = req.backend
        if req.profile:
            launch_kwargs["profile"] = True
        deadline = (
            time.monotonic() + req.deadline_ms / 1000.0
            if req.deadline_ms is not None else None
        )

        try:
            result, coalesced = server.batcher.submit(
                req, key, tenant.stream, kernel, launch_kwargs,
                deadline=deadline,
            )
        except TimeoutError as exc:
            counters.bump("timeouts")
            tenant.bump("errors")
            self._send(504, error_body(str(exc), kind="deadline"))
            return
        except Exception as exc:  # parse/arg errors surface located
            counters.bump("errors")
            tenant.bump("errors")
            self._send(500, error_body(f"{type(exc).__name__}: {exc}"))
            return

        tenant.bump("coalesced" if coalesced else "launches")
        counters.bump("coalesced" if coalesced else "launches")

        profile_name = None
        if req.profile and result.profile is not None:
            profile_name = f"serve/{req.tenant}/{result.kernel_name}"
            record_profile(profile_name, result.profile,
                           tenant=req.tenant, key=key[:16])

        body = encode_result(result, key=key, coalesced=coalesced,
                             profile_name=profile_name)
        counters.bump("completed")
        metrics.record_event(
            "complete", tenant=req.tenant, key=key,
            detail="coalesced" if coalesced else "launched",
        )
        if result.error is not None:
            counters.bump("errors")
            tenant.bump("errors")
            self._send_json(422, body)
        else:
            self._send_json(200, body)
