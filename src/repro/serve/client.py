"""Minimal stdlib client for the kernel server (urllib, no dependencies).

Used by the ``repro.bench --serve`` load generator, the CI smoke test,
and anyone scripting against a running server::

    client = ServeClient("http://127.0.0.1:8642")
    resp = client.launch("__global__ void k(float* x, int n) { ... }",
                         grid=4, block=64, args={"x": x, "n": 256})
    resp["buffers"]["x"]  # decoded back to an ndarray via arrays()
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Optional

import numpy as np

from .protocol import decode_array, encode_array


class ServeError(RuntimeError):
    """Non-2xx server response, carrying the HTTP status and decoded body."""

    def __init__(self, status: int, body: dict,
                 retry_after: Optional[float] = None) -> None:
        message = body.get("error", {}).get("message", "server error")
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body
        self.retry_after = retry_after


class ServeClient:
    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        data = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                body = json.loads(raw.decode())
            except ValueError:
                body = {"error": {"message": raw.decode(errors="replace")}}
            retry_after = exc.headers.get("Retry-After")
            raise ServeError(
                exc.code, body,
                retry_after=float(retry_after) if retry_after else None,
            ) from None

    def launch(
        self,
        kernel: str,
        grid,
        block,
        args: Dict[str, object],
        *,
        tenant: str = "default",
        const_arrays: Optional[Dict[str, np.ndarray]] = None,
        backend: Optional[str] = None,
        profile: bool = False,
        deadline_ms: Optional[float] = None,
    ) -> dict:
        """POST one launch; returns the decoded JSON response body.

        ndarray values in ``args``/``const_arrays`` are encoded
        transparently.  Raises :class:`ServeError` on any non-2xx status
        (including 503 sheds, whose ``retry_after`` is exposed).
        """
        wire_args = {
            name: encode_array(v) if isinstance(v, np.ndarray) else v
            for name, v in args.items()
        }
        payload = {
            "tenant": tenant,
            "kernel": kernel,
            "grid": list(grid) if isinstance(grid, (tuple, list)) else grid,
            "block": list(block) if isinstance(block, (tuple, list)) else block,
            "args": wire_args,
        }
        if const_arrays:
            payload["const_arrays"] = {
                name: encode_array(np.asarray(v))
                for name, v in const_arrays.items()
            }
        options = {}
        if backend is not None:
            options["backend"] = backend
        if profile:
            options["profile"] = True
        if deadline_ms is not None:
            options["deadline_ms"] = deadline_ms
        if options:
            payload["options"] = options
        return self._request("POST", "/v1/launch", payload)

    @staticmethod
    def arrays(response: dict) -> Dict[str, np.ndarray]:
        """Decode every buffer in a launch response back to ndarrays."""
        return {
            name: decode_array(encoded, name)
            for name, encoded in response.get("buffers", {}).items()
        }

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/statz")
