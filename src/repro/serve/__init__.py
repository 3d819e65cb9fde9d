"""Multi-tenant kernel server: HTTP front end over the GPU simulator.

``python -m repro.serve`` starts a stdlib ``ThreadingHTTPServer`` that
accepts kernel-source + named-buffer launch requests, dedupes parsing by
source digest, and sheds load with ``503`` + ``Retry-After`` past its
in-flight cap.  Each handler thread runs its own launch through one
dispatcher (:mod:`repro.serve.batcher`), which coalesces identical
concurrent requests into one launch (fanning the result back to every
waiter, bit-identical), runs each tenant's launches in FIFO order, and
hands each launch to a forked launch worker.  See
:mod:`repro.serve.protocol` for the wire schema and the README's
"Serving" section for a walkthrough.
"""

from .app import KernelServer
from .batcher import CoalescingBatcher
from .client import ServeClient, ServeError
from .kernels import KernelCache
from .metrics import ServeCounters, ServeEvent, clear_serve_events, serve_events
from .protocol import (
    LaunchRequest,
    ProtocolError,
    coalesce_key,
    decode_array,
    encode_array,
    encode_result,
    parse_request,
)

__all__ = [
    "KernelServer",
    "CoalescingBatcher",
    "ServeClient",
    "ServeError",
    "KernelCache",
    "ServeCounters",
    "ServeEvent",
    "serve_events",
    "clear_serve_events",
    "LaunchRequest",
    "ProtocolError",
    "coalesce_key",
    "decode_array",
    "encode_array",
    "encode_result",
    "parse_request",
]
