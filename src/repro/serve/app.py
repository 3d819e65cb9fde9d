"""The multi-tenant kernel server: HTTP front end over the simulator.

``KernelServer`` is a stdlib :class:`~http.server.ThreadingHTTPServer`
(one handler thread per connection — no third-party framework) exposing:

- ``POST /v1/launch`` — simulate one kernel launch (see
  :mod:`repro.serve.protocol` for the JSON schema).  The handler thread
  runs its own launch through the dispatcher
  (:mod:`repro.serve.batcher`): identical concurrent requests are
  coalesced into one execution, each tenant's launches run in FIFO order,
  and every launch runs on one of the server's forked launch workers
  (:mod:`repro.serve.workers`), one per CPU the server may use.
- ``GET /healthz`` — liveness: uptime, in-flight count, counters.
- ``GET /statz`` — the default engine and full counters: server,
  per-tenant (the most recently submitting tenants only), batcher, kernel
  cache, and the peak RSS, CPU time and thread count of the server
  process and of each launch worker.

Admission control happens before any simulator work: once the in-flight
cap (``max_inflight``) is reached, requests are shed with ``503`` and
``Retry-After``.  Kernel source that does not parse is answered ``400``
before anything is queued.  An admitted request carries its own
``deadline_ms``; expiry returns ``504``.  When the last request waiting
on a launch (coalesced siblings included) gives up, the launch is
cancelled: skipped if still queued, its worker killed and replaced if
running, so the tenant's next launch can start.  A request that reaches
the dispatcher after a drain began is answered ``503``.

Faulting launches are *contained*, CUDA-style: the kernel runs with
``on_error="status"`` and a located fault comes back as ``422`` with the
full :class:`~repro.gpusim.diagnostics.FaultReport` summary in the body.
A worker that dies answers ``500`` naming its pid and signal.

Every ``/v1/launch`` response carries a ``Server-Timing`` header with the
server's own milliseconds per phase (``decode``, ``admit``,
``kernel_cache``, ``launch``, ``execute``, ``encode`` and ``total``), so a
client can tell time spent in the server from time spent on the wire.
``admit`` is the in-flight acquire and ``coalesce_key``; ``kernel_cache``
is the server's parse check of the source.  ``execute`` is the worker's
own time in ``launch()``, so ``launch`` − ``execute`` is the wait for the
tenant's turn, a free worker and the pipe.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..gpusim.launch import default_backend
from ..minicuda.errors import MiniCudaError
from . import metrics
from .batcher import CoalescingBatcher, Draining
from .kernels import KernelCache
from .protocol import (
    ProtocolError,
    coalesce_key,
    encode_result,
    error_body,
    parse_request,
)
from .workers import KernelSource, LaunchWorkers, process_usage

#: Default seconds clients are told to back off when the server sheds.
RETRY_AFTER_S = 1

#: Request bodies past this size are refused outright (64 MiB of base64
#: covers every paper benchmark with room to spare).
MAX_BODY_BYTES = 64 * 1024 * 1024


class KernelServer(ThreadingHTTPServer):
    """ThreadingHTTPServer owning all serve-layer state."""

    daemon_threads = True

    def __init__(self, address, *, max_inflight: int = 32) -> None:
        # A bad GPUSIM_BACKEND or admission cap raises its ValueError here,
        # before the socket binds, instead of failing every launch.
        default_backend()
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        # Fork the launch workers before the socket binds and before any
        # server thread exists.
        self.workers = LaunchWorkers()
        try:
            super().__init__(address, ServeHandler)
        except BaseException:
            self.workers.close()
            raise
        self.max_inflight = max_inflight
        self.counters = metrics.ServeCounters()
        self.batcher = CoalescingBatcher(self.workers)
        # Parses each source once in the server too, so source that does
        # not parse is refused before it is queued.
        self.kernel_cache = KernelCache()
        self.started = time.monotonic()
        self._admission = threading.BoundedSemaphore(max_inflight)
        # Whether serve_forever ran, and whether a drain began: shutdown()
        # waits for a loop to exit, so it must not run without one.
        self._loop_lock = threading.Lock()
        self._loop_started = False
        self._drained = False

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        with self._loop_lock:
            if self._drained:
                return
            self._loop_started = True
        super().serve_forever(poll_interval)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop accepting, refuse new launches, wait for
        the queued and running ones, then stop the launch workers.

        ``timeout`` bounds the wait.  Returns True when nothing was left
        queued or running within it; the server process should exit
        non-zero otherwise, so a stuck launch is an observable failure.
        Either way no worker outlives the drain: one still running a
        launch is killed, and its request is answered ``500``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._loop_lock:
            self._drained = True
            loop_started = self._loop_started
        if loop_started:
            self.shutdown()
        return self.batcher.drain(
            None if deadline is None else max(deadline - time.monotonic(), 0.0)
        )

    def server_close(self) -> None:
        """Close the listening socket, refuse new launches and stop the
        launch workers at once (a drain, if one ran, already did)."""
        super().server_close()
        self.batcher.drain(0.0)


class ServeHandler(BaseHTTPRequestHandler):
    server: KernelServer
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every connection: a response goes out as two writes
    # (headers, then body), and with Nagle's algorithm on, a keep-alive
    # client's delayed ACK held the body back for about 40 ms.
    disable_nagle_algorithm = True
    # Phase -> ms of the /v1/launch request being answered (None
    # otherwise); _send reports it as the Server-Timing header and clears it.
    _phases: Optional[dict] = None

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
        if self._phases is not None:
            self._phases["total"] = _ms_since(self._started)
            self.send_header("Server-Timing", ", ".join(
                f"{name};dur={ms:.3f}" for name, ms in self._phases.items()))
            self._phases = None
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _phase(self, name: str, since: float) -> float:
        """Add the milliseconds from ``since`` to now to phase ``name`` (a
        phase keeps the header position of its first addition); return
        now, the start of the next phase."""
        now = time.perf_counter()
        self._phases[name] = self._phases.get(name, 0.0) + (now - since) * 1e3
        return now

    def _send_json(self, code: int, obj: dict,
                   extra_headers: Optional[dict] = None) -> None:
        self._send(code, json.dumps(obj).encode(), extra_headers)

    def _read_body(self) -> Optional[bytes]:
        length = self.headers.get("Content-Length")
        if length is None:
            self._send(411, error_body("Content-Length is required"))
            return None
        # The body is left unread below, so the connection closes: its
        # bytes must not be parsed as the next request.
        length = length.strip()
        if not (length.isascii() and length.isdigit()):
            self._send(400, error_body(
                f"Content-Length must be a non-negative decimal integer, "
                f"got {length!r}", kind="protocol"),
                {"Connection": "close"})
            return None
        length = int(length)
        if length > MAX_BODY_BYTES:
            self._send(413, error_body(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"),
                {"Connection": "close"})
            return None
        return self.rfile.read(length)

    # -- GET: health + stats -------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self._send_json(200, {
                "ok": True,
                "uptime_s": round(time.monotonic() - self.server.started, 3),
                "inflight": self.server.batcher.inflight(),
                "max_inflight": self.server.max_inflight,
                "counters": self.server.counters.snapshot(),
            })
        elif self.path == "/statz":
            self._send_json(200, {
                # The engine a request without options.backend runs on.
                "default_backend": default_backend(),
                "counters": self.server.counters.snapshot(),
                "tenants": self.server.batcher.tenants(),
                "batcher": self.server.batcher.snapshot(),
                "kernel_cache": self.server.kernel_cache.snapshot(),
                "server": dict(pid=os.getpid(), **process_usage(os.getpid())),
                "workers": self.server.workers.snapshot(),
                "events": [
                    {"ts": e.ts, "kind": e.kind, "tenant": e.tenant,
                     "key": e.key, "detail": e.detail}
                    for e in metrics.serve_events()[-64:]
                ],
            })
        else:
            self._send(404, error_body(f"unknown path {self.path!r}"))

    # -- POST: launch ---------------------------------------------------------

    def do_POST(self) -> None:
        if self.path == "/v1/launch":
            self._handle_launch()
        else:
            self._send(404, error_body(f"unknown path {self.path!r}"))

    def _handle_launch(self) -> None:
        self._started = time.perf_counter()
        self._phases = {}
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
        mark = self._phase("decode", self._started)
        metrics.record_event("arrive", tenant=req.tenant,
                             detail=f"{len(body)}B")

        # Admission: bounded concurrency.
        admitted = server._admission.acquire(blocking=False)
        mark = self._phase("admit", mark)
        if not admitted:
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
            self._admitted_launch(req, mark)
        finally:
            server._admission.release()

    def _admitted_launch(self, req, mark: float) -> None:
        """Launch an admitted request; the ``admit`` phase goes on from
        ``mark``."""
        server = self.server
        counters = server.counters
        counters.bump("admitted")
        key = coalesce_key(req)
        metrics.record_event("admit", tenant=req.tenant, key=key)
        mark = self._phase("admit", mark)

        try:
            server.kernel_cache.get(req.source_digest, req.source)
        except MiniCudaError as exc:
            self._phase("kernel_cache", mark)
            counters.bump("errors")
            self._send(400, error_body(f"{type(exc).__name__}: {exc}",
                                       kind="protocol"))
            return
        started = self._phase("kernel_cache", mark)

        # The engine is resolved here, per request: a worker's environment
        # is the server's as it stood at the fork.
        launch_kwargs = {"backend": req.backend or default_backend()}
        if req.profile:
            launch_kwargs["profile"] = True
        deadline = (
            time.monotonic() + req.deadline_ms / 1000.0
            if req.deadline_ms is not None else None
        )
        try:
            result, coalesced = server.batcher.submit(
                req, key, KernelSource(req.source_digest, req.source),
                launch_kwargs, deadline=deadline,
            )
        except Draining as exc:
            counters.bump("errors")
            self._send(503, error_body(str(exc), kind="draining"),
                       {"Retry-After": str(RETRY_AFTER_S)})
            return
        except TimeoutError as exc:
            counters.bump("timeouts")
            self._send(504, error_body(str(exc), kind="deadline"))
            return
        except Exception as exc:  # parse/arg errors surface located
            counters.bump("errors")
            self._send(500, error_body(f"{type(exc).__name__}: {exc}"))
            return

        self._phases["launch"] = _ms_since(started)
        self._phases["execute"] = result.wall_ms
        counters.bump("coalesced" if coalesced else "launches")

        started = time.perf_counter()
        body = json.dumps(encode_result(
            result, key=key, coalesced=coalesced)).encode()
        self._phases["encode"] = _ms_since(started)
        counters.bump("completed")
        metrics.record_event(
            "complete", tenant=req.tenant, key=key,
            detail="coalesced" if coalesced else "launched",
        )
        if result.error is not None:
            counters.bump("errors")
            self._send(422, body)
        else:
            self._send(200, body)


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3
