"""``python -m repro.serve`` — run the multi-tenant kernel server.

Environment knobs (flags override):

- ``GPUSIM_SERVE_PORT`` — listen port (default 8642);
- ``GPUSIM_SERVE_MAX_INFLIGHT`` — admission cap on concurrently executing
  requests (default 32; excess requests are shed with 503 + Retry-After);
- ``GPUSIM_BACKEND`` — the engine of requests that name none: megablock
  (default) or interp.  Any other value stops the server with a non-zero
  exit before it binds its port.

SIGTERM and SIGINT both trigger a graceful drain: stop accepting, finish
in-flight launches, close every tenant stream, retire every pool worker.
The process exits 0 only when the drain was clean — a SIGKILLed straggler
worker makes the exit code 1, so "no orphaned workers" is checkable from
the outside.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from ..gpusim.launch import default_backend
from .app import KernelServer

DEFAULT_PORT = 8642
DEFAULT_MAX_INFLIGHT = 32
DRAIN_TIMEOUT_S = 30.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant kernel server over the GPU simulator.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int,
        default=int(os.environ.get("GPUSIM_SERVE_PORT") or DEFAULT_PORT),
        help="listen port (default: $GPUSIM_SERVE_PORT or 8642)",
    )
    parser.add_argument(
        "--max-inflight", type=int,
        default=int(os.environ.get("GPUSIM_SERVE_MAX_INFLIGHT")
                    or DEFAULT_MAX_INFLIGHT),
        help="admission cap; excess requests get 503 + Retry-After "
             "(default: $GPUSIM_SERVE_MAX_INFLIGHT or 32)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="activate the persistent disk cache tier at this directory",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="enable POST /debug/breaker (force-open/reset the breaker)",
    )
    args = parser.parse_args(argv)

    try:
        default_backend()
    except ValueError as exc:
        print(f"repro.serve: {exc}", file=sys.stderr, flush=True)
        return 2

    if args.cache_dir:
        from ..gpusim import diskcache

        diskcache.configure(args.cache_dir)

    server = KernelServer(
        (args.host, args.port),
        max_inflight=args.max_inflight,
        debug=args.debug,
    )
    host, port = server.server_address[:2]

    drained = {}
    drain_started = threading.Event()

    def _drain(signum, frame):
        # Idempotent: a second signal while draining is ignored rather
        # than re-entering shutdown.
        if drain_started.is_set():
            return
        drain_started.set()
        # shutdown() must not run on the serve_forever thread; hand the
        # drain to a helper so the handler returns promptly.
        def run():
            drained["clean"] = server.drain(DRAIN_TIMEOUT_S)
        threading.Thread(target=run, name="serve-drain", daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)

    print(f"repro.serve listening on http://{host}:{port} "
          f"(max_inflight={args.max_inflight}"
          f"{', debug' if args.debug else ''})", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        if not drain_started.is_set():
            drain_started.set()
            drained["clean"] = server.drain(DRAIN_TIMEOUT_S)
        server.server_close()

    # serve_forever returned => a drain ran (signal) or is running; wait
    # for its verdict before choosing the exit code.
    for _ in range(int(DRAIN_TIMEOUT_S * 10)):
        if "clean" in drained:
            break
        threading.Event().wait(0.1)
    clean = drained.get("clean", False)
    print(f"repro.serve drained {'cleanly' if clean else 'UNCLEAN'}",
          flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
