"""Per-tenant execution state: one named stream per tenant.

Each tenant the server has seen owns a :class:`~repro.gpusim.stream.Stream`
named ``tenant-<name>``, so its launches retain CUDA's per-stream FIFO
ordering while different tenants proceed concurrently — the serve-layer
analogue of one CUDA stream per client process.  Every stream runs its
launches through the registry's runner (the server's launch workers).
Streams are created lazily on first request and all drained together at
shutdown.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..gpusim.launch import LaunchResult
from ..gpusim.stream import Stream


@dataclass
class TenantState:
    """One tenant's stream plus its request accounting."""

    name: str
    stream: Stream
    requests: int = 0
    launches: int = 0
    coalesced: int = 0
    errors: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + by)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "stream": self.stream.name,
                "requests": self.requests,
                "launches": self.launches,
                "coalesced": self.coalesced,
                "errors": self.errors,
            }


class TenantRegistry:
    """Lazily-populated map of tenant name → :class:`TenantState`; each
    tenant's stream runs its launches with ``runner``."""

    def __init__(self, runner: Callable[..., LaunchResult]) -> None:
        self._runner = runner
        self._tenants: Dict[str, TenantState] = {}
        self._lock = threading.Lock()
        self._closed = False

    def get(self, name: str) -> TenantState:
        with self._lock:
            if self._closed:
                raise RuntimeError("tenant registry is closed (server draining)")
            state = self._tenants.get(name)
            if state is None:
                state = TenantState(name=name, stream=Stream(
                    name=f"tenant-{name}", runner=self._runner))
                self._tenants[name] = state
            return state

    def peek(self, name: str) -> Optional[TenantState]:
        with self._lock:
            return self._tenants.get(name)

    def snapshot(self) -> Dict[str, dict]:
        with self._lock:
            states = list(self._tenants.values())
        return {state.name: state.snapshot() for state in states}

    def close_all(self, timeout: Optional[float] = None) -> bool:
        """Drain and close every tenant stream; True when all drained clean.

        ``timeout`` is one budget for all streams together, so this returns
        within it; False means some stream's worker was still busy at the
        deadline (it finishes its queued launches on its own).  New tenants
        are refused from the first call onward, so shutdown cannot race an
        arriving request into a stream that will never be drained.
        """
        with self._lock:
            self._closed = True
            states = list(self._tenants.values())
        deadline = None if timeout is None else time.monotonic() + timeout
        clean = True
        for state in states:
            remaining = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            clean = state.stream.close(remaining) and clean
        return clean
