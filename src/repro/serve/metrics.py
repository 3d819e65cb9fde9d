"""Serve-layer observability: request lifecycle events + server counters.

Every request's journey through the server — arrive → admit (or shed) →
coalesce (followers only) → complete — is recorded as a
:class:`ServeEvent` in a bounded process-wide deque.
:mod:`repro.prof.timeline` exports them as Chrome ``trace_event``
instants on a dedicated "serve" row, so a served launch's trace shows the
request traffic above the modeled SMX schedule.

This module deliberately imports nothing from the simulator: it is pure
bookkeeping that the timeline exporter can pull in lazily without cycles.
"""

from __future__ import annotations

import collections
import threading
import time
from dataclasses import dataclass, field
from typing import Deque, List

#: Lifecycle kinds, in the order one successful coalesced request emits
#: them ("shed" replaces "admit" for rejected requests).
EVENT_KINDS = ("arrive", "admit", "coalesce", "complete", "shed")

_EVENT_CAP = 4096
_EVENTS: Deque["ServeEvent"] = collections.deque(maxlen=_EVENT_CAP)
_EVENTS_LOCK = threading.Lock()


@dataclass(frozen=True)
class ServeEvent:
    """One request-lifecycle instant (``time.monotonic`` timestamp)."""

    ts: float
    kind: str
    tenant: str = ""
    key: str = ""          # coalescing key (short prefix) when known
    detail: str = ""


def record_event(kind: str, tenant: str = "", key: str = "",
                 detail: str = "") -> ServeEvent:
    event = ServeEvent(
        ts=time.monotonic(), kind=kind, tenant=tenant,
        key=key[:16], detail=detail,
    )
    with _EVENTS_LOCK:
        _EVENTS.append(event)
    return event


def serve_events() -> List[ServeEvent]:
    """Snapshot of the bounded request-lifecycle event log."""
    with _EVENTS_LOCK:
        return list(_EVENTS)


def clear_serve_events() -> None:
    with _EVENTS_LOCK:
        _EVENTS.clear()


@dataclass
class ServeCounters:
    """One server's aggregate request accounting.

    ``launches`` counts leaders (actual simulator launches); ``coalesced``
    counts followers whose response was fanned out from a leader's launch,
    so ``launches + coalesced == completed`` for a healthy server.
    """

    requests: int = 0
    admitted: int = 0
    completed: int = 0
    launches: int = 0
    coalesced: int = 0
    shed_capacity: int = 0
    timeouts: int = 0
    errors: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def snapshot(self) -> dict:
        with self._lock:
            snap = {
                name: getattr(self, name)
                for name in (
                    "requests", "admitted", "completed", "launches",
                    "coalesced", "shed_capacity", "timeouts", "errors",
                )
            }
        # Always 0 (no breaker sheds); perfbench/wl_serve.py reads the key.
        snap["shed_breaker"] = 0
        return snap
