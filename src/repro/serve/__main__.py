"""``python -m repro.serve`` — run the multi-tenant kernel server.

Environment knobs (flags override):

- ``GPUSIM_SERVE_PORT`` — listen port (default 8642);
- ``GPUSIM_SERVE_MAX_INFLIGHT`` — admission cap on concurrently executing
  requests (default 32, at least 1; excess requests are shed with 503 +
  Retry-After);
- ``GPUSIM_BACKEND`` — the engine of requests that name none: megablock
  (default) or interp.

A bad setting (a non-integer port or cap, a port outside 0..65535, a cap
below 1, an unknown backend) stops the server with exit code 2 before it
binds its port, with a message that names the flag or variable.

SIGTERM and SIGINT both trigger a graceful drain: stop accepting, finish
in-flight launches, close every tenant stream, stop the launch workers.
The process exits 0 only when the drain was clean — a launch still
running when the drain timeout expires makes the exit code 1, so a stuck
stream is checkable from the outside; its worker is killed all the same,
so no process outlives the server.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from .app import KernelServer

DEFAULT_PORT = 8642
DEFAULT_MAX_INFLIGHT = 32
DRAIN_TIMEOUT_S = 30.0


def _setting(parser, flag_value, flag, env, default) -> tuple[int, str]:
    """``(value, source)``: the flag's value, else the environment
    variable's, else ``default``; ``source`` names the flag or variable.

    A non-integer variable exits 2 through ``parser.error``, naming it
    (argparse already does the same for a non-integer flag).
    """
    if flag_value is not None:
        return flag_value, flag
    raw = os.environ.get(env)
    if not raw:
        return default, env
    try:
        return int(raw), env
    except ValueError:
        parser.error(f"{env} must be an integer, got {raw!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant kernel server over the GPU simulator.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help="listen port (default: $GPUSIM_SERVE_PORT or 8642)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None,
        help="admission cap, at least 1; excess requests get 503 + "
             "Retry-After (default: $GPUSIM_SERVE_MAX_INFLIGHT or 32)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="activate the persistent disk cache tier at this directory",
    )
    args = parser.parse_args(argv)
    port, source = _setting(parser, args.port, "--port",
                            "GPUSIM_SERVE_PORT", DEFAULT_PORT)
    if not 0 <= port <= 65535:
        parser.error(f"{source} must be in 0..65535, got {port}")
    max_inflight, source = _setting(parser, args.max_inflight,
                                    "--max-inflight",
                                    "GPUSIM_SERVE_MAX_INFLIGHT",
                                    DEFAULT_MAX_INFLIGHT)
    if max_inflight < 1:
        parser.error(f"{source} must be >= 1, got {max_inflight}")

    if args.cache_dir:
        from ..gpusim import diskcache

        # Before the server forks its launch workers, so they use it too.
        diskcache.configure(args.cache_dir)

    try:
        server = KernelServer((args.host, port), max_inflight=max_inflight)
    except ValueError as exc:  # a bad GPUSIM_BACKEND, raised before binding
        print(f"repro.serve: {exc}", file=sys.stderr, flush=True)
        return 2
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
          f"(max_inflight={max_inflight})", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        if not drain_started.is_set():
            drain_started.set()
            drained["clean"] = server.drain(DRAIN_TIMEOUT_S)

    # serve_forever returned => a drain ran (signal) or is running; wait
    # for its verdict before choosing the exit code, and only then close
    # the server, which kills any launch worker still running.
    for _ in range(int(DRAIN_TIMEOUT_S * 10)):
        if "clean" in drained:
            break
        threading.Event().wait(0.1)
    server.server_close()
    clean = drained.get("clean", False)
    print(f"repro.serve drained {'cleanly' if clean else 'UNCLEAN'}",
          flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
