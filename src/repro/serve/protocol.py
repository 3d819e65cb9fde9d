"""Wire protocol of the kernel server: JSON requests, base64 ndarrays.

A launch request is one JSON object::

    {
      "tenant": "alice",                  # optional, default "default"
      "kernel": "__global__ void k(...)", # mini-CUDA source text
      "grid":  [4, 1, 1],                 # int or up-to-3 list
      "block": 64,
      "args": {
        "x": {"dtype": "float32", "shape": [256], "data": "<base64>"},
        "n": 256                          # scalars stay plain JSON numbers
      },
      "const_arrays": { ... same encoding ... },   # optional
      "options": {                                  # all optional
        "backend": "interp",              # megablock (default) | interp
        "profile": true,                  # per-line counters in response
        "deadline_ms": 2000               # per-request completion deadline
      }
    }

A request without ``options.backend`` runs on
:func:`~repro.gpusim.launch.default_backend` (megablock unless the
server's ``GPUSIM_BACKEND`` says otherwise).  The response names the
engine that ran in its ``backend`` field and carries the final buffer
contents (same ndarray encoding), the
:class:`~repro.gpusim.stats.KernelStats` counters, the modeled
milliseconds, the megablock fallback reason, and — with
``"profile": true`` — the per-line profile.  The server keeps no copy of
a profile: it is in the response only.

Identical concurrent requests are *coalesced*: the coalescing key is a
sha256 over the canonical request content (raw kernel source digest,
normalized grid/block, backend/profile options, scalar values, and the
bytes of every array argument), so two tenants submitting the same kernel
on the same data share one simulator launch and both see bit-identical
buffers.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..gpusim.launch import BACKENDS, LaunchResult, _as_dim3
from ..gpusim.errors import LaunchError

#: Wire-format version, echoed in every response.
PROTOCOL_VERSION = 1

#: dtypes a request may carry (the simulator's universe of element types).
ALLOWED_DTYPES = ("float32", "float64", "int32", "int64", "uint8", "uint32")


class ProtocolError(ValueError):
    """Malformed request payload (maps to HTTP 400)."""


def encode_array(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def decode_array(obj, name: str = "?") -> np.ndarray:
    if not isinstance(obj, dict) or "data" not in obj:
        raise ProtocolError(
            f"array argument {name!r} must be an object with "
            "dtype/shape/data fields"
        )
    dtype = obj.get("dtype", "float32")
    if dtype not in ALLOWED_DTYPES:
        raise ProtocolError(
            f"array argument {name!r} has unsupported dtype {dtype!r}"
        )
    try:
        raw = base64.b64decode(obj["data"], validate=True)
        arr = np.frombuffer(raw, dtype=np.dtype(dtype)).copy()
        shape = obj.get("shape")
        if shape is not None:
            arr = arr.reshape([int(s) for s in shape])
    except (ValueError, TypeError, OverflowError) as exc:
        raise ProtocolError(f"array argument {name!r} is corrupt: {exc}") from None
    return arr


@dataclass
class LaunchRequest:
    """One parsed, validated launch request."""

    tenant: str
    source: str
    grid: tuple
    block: tuple
    args: Dict[str, object]                 # name -> scalar | ndarray
    const_arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    backend: Optional[str] = None
    profile: bool = False
    deadline_ms: Optional[float] = None

    @property
    def source_digest(self) -> str:
        return hashlib.sha256(self.source.encode()).hexdigest()


def parse_request(body: bytes) -> LaunchRequest:
    """Decode and validate one request body; raises :class:`ProtocolError`.

    Any malformed body, however nested or mistyped, ends in
    :class:`ProtocolError` (HTTP 400), never in another exception.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer
        # literals; RecursionError covers absurdly deep nesting.
        raise ProtocolError(f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    source = payload.get("kernel")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError('"kernel" must hold mini-CUDA source text')
    if "grid" not in payload or "block" not in payload:
        raise ProtocolError('"grid" and "block" are required')

    def dim(name):
        value = payload[name]
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in items):
            raise ProtocolError(f'"{name}" must be an int or a list of ints')
        try:
            return _as_dim3(tuple(value) if isinstance(value, list) else value)
        except LaunchError as exc:
            raise ProtocolError(f'"{name}": {exc}') from None

    grid, block = dim("grid"), dim("block")

    raw_args = payload.get("args", {})
    if not isinstance(raw_args, dict):
        raise ProtocolError('"args" must be an object')
    args: Dict[str, object] = {}
    for name, value in raw_args.items():
        if isinstance(value, bool):
            raise ProtocolError(f"argument {name!r}: booleans are not kernel scalars")
        if isinstance(value, (int, float)):
            args[name] = value
        else:
            args[name] = decode_array(value, name)

    const_arrays: Dict[str, np.ndarray] = {}
    raw_const = payload.get("const_arrays", {}) or {}
    if not isinstance(raw_const, dict):
        raise ProtocolError('"const_arrays" must be an object')
    for name, value in raw_const.items():
        const_arrays[name] = decode_array(value, name)

    options = payload.get("options", {}) or {}
    if not isinstance(options, dict):
        raise ProtocolError('"options" must be an object')
    backend = options.get("backend")
    if backend is not None and backend not in BACKENDS:
        raise ProtocolError(f"unknown backend {backend!r}")
    deadline_ms = options.get("deadline_ms")
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError, OverflowError):
            raise ProtocolError('"options.deadline_ms" must be a number') from None
        if not (math.isfinite(deadline_ms) and deadline_ms > 0):
            raise ProtocolError(
                '"options.deadline_ms" must be a positive, finite number'
            )

    tenant = payload.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError('"tenant" must be a non-empty string')

    return LaunchRequest(
        tenant=tenant,
        source=source,
        grid=grid,
        block=block,
        args=args,
        const_arrays=const_arrays,
        backend=backend,
        profile=bool(options.get("profile", False)),
        deadline_ms=deadline_ms,
    )


def coalesce_key(req: LaunchRequest) -> str:
    """Content digest identifying launches that may share one execution.

    Tenant identity and the deadline are deliberately *excluded*: two
    tenants asking for the same kernel on the same bytes get the same
    bits back, so they may share the launch.  Everything that could change
    the output — source, shape, backend, profiling, scalar values, array
    contents — is included.
    """
    digest = hashlib.sha256()
    head = {
        "v": PROTOCOL_VERSION,
        "source": req.source_digest,
        "grid": list(req.grid),
        "block": list(req.block),
        "backend": req.backend,
        "profile": req.profile,
    }
    digest.update(json.dumps(head, sort_keys=True).encode())
    for name in sorted(req.args):
        value = req.args[name]
        digest.update(name.encode())
        if isinstance(value, np.ndarray):
            digest.update(str(value.dtype).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    for name in sorted(req.const_arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(req.const_arrays[name]).tobytes())
    return digest.hexdigest()


def encode_result(
    result: LaunchResult,
    *,
    key: str,
    coalesced: bool,
) -> dict:
    """JSON-ready response body for one completed launch."""
    import dataclasses

    body = {
        "version": PROTOCOL_VERSION,
        "ok": result.ok,
        "kernel": result.kernel_name,
        "key": key,
        "coalesced": coalesced,
        "grid": list(result.grid),
        "block": list(result.block),
        "backend": result.backend,
        "buffers": {
            name: encode_array(buf.data)
            for name, buf in result.gmem.buffers().items()
        },
        "stats": dataclasses.asdict(result.stats),
        "timing_ms": (
            result.timing.milliseconds if result.timing is not None else None
        ),
        "megablock_fallback": result.megablock_fallback,
    }
    if result.error is not None:
        body["error"] = {
            "message": result.error.message,
            "summary": result.error.summary(),
        }
    if result.profile is not None:
        body["profile"] = result.profile.as_dict()
    return body


def error_body(message: str, *, kind: str = "error") -> bytes:
    return json.dumps(
        {"version": PROTOCOL_VERSION, "ok": False, "kind": kind,
         "error": {"message": message}}
    ).encode()
