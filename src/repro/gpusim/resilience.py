"""Resilience policy for the worker pool: deadlines, retries, breaker.

The supervised worker pool (:mod:`repro.gpusim.pool`) is only trustworthy if
its failure handling is *policy*, not improvisation.  This module is that
policy, factored out so the pool, its callers (the sharded autotuner, the
server's admission gate), and the tests all agree on it:

- :class:`ResilienceConfig` — every knob in one place, with environment
  fallbacks (``GPUSIM_LAUNCH_TIMEOUT``, ``GPUSIM_MAX_RETRIES``,
  ``GPUSIM_BREAKER_THRESHOLD``);
- :func:`jittered_backoff` — deterministic (seeded) exponential backoff for
  task re-dispatch, so retry storms cannot synchronize;
- :class:`CircuitBreaker` — a per-process closed → open → half-open state
  machine over worker faults.  When workers keep dying, later callers stop
  paying the pool's setup cost and run in-process; after a cool-down the
  breaker half-opens and lets one trial call probe whether the pool
  recovered;
- :class:`ResilienceTelemetry` / :class:`PoolEvent` — the observable record
  of one pool call's journey down the degradation ladder (full pool →
  fewer workers → sequential), attached to
  :attr:`~repro.npc.autotune.AutotuneReport.resilience`.

Nothing here forks processes or touches simulator state; it is pure
bookkeeping, which is what makes the chaos suite able to assert exact
counter values and exact breaker transitions.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

#: Degradation-ladder rungs recorded in :attr:`ResilienceTelemetry.degraded`.
DEGRADATION_LADDER = ("parallel", "reduced", "sequential")

#: Circuit-breaker states, in trip order.
BREAKER_STATES = ("closed", "open", "half-open")


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class ResilienceConfig:
    """Every resilience knob for one pool call.

    ``chunk_timeout`` is the per-task deadline in seconds (each task is one
    whole launch) that the pool's watchdog enforces by killing and replacing
    the hung worker; ``GPUSIM_LAUNCH_TIMEOUT`` sets it, default 60 s.
    """

    chunk_timeout: float = 60.0
    max_retries: int = 2
    breaker_threshold: int = 3
    breaker_cooldown: int = 2
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    heartbeat_interval: float = 0.5
    #: Worker replacements allowed per call before the pool degrades to
    #: running on the surviving workers (``None`` = 2 × worker count).
    max_respawns: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        # ``not x > 0`` also rejects NaN.  A deadline of zero or below would
        # SIGKILL every worker at dispatch and fail every task silently.
        if not self.chunk_timeout > 0:
            raise ValueError(
                "chunk_timeout (GPUSIM_LAUNCH_TIMEOUT) must be > 0 seconds, "
                f"got {self.chunk_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )

    @classmethod
    def from_env(cls) -> "ResilienceConfig":
        """Build a config from the ``GPUSIM_*`` environment knobs."""
        cfg = cls()
        timeout = _env_float("GPUSIM_LAUNCH_TIMEOUT")
        if timeout is not None:
            cfg = replace(cfg, chunk_timeout=timeout)
        retries = _env_int("GPUSIM_MAX_RETRIES")
        if retries is not None:
            cfg = replace(cfg, max_retries=retries)
        threshold = _env_int("GPUSIM_BREAKER_THRESHOLD")
        if threshold is not None:
            cfg = replace(cfg, breaker_threshold=threshold)
        return cfg


def jittered_backoff(attempt: int, rng: random.Random,
                     base: float = 0.01, cap: float = 0.25) -> float:
    """Exponential backoff with half-width jitter, deterministic under a
    seeded ``rng``: ``min(cap, base * 2**attempt) * U[0.5, 1.0)``."""
    raw = min(cap, base * (2 ** max(attempt, 0)))
    return raw * (0.5 + 0.5 * rng.random())


@dataclass(frozen=True)
class PoolEvent:
    """One pool lifecycle event (wall-clock ``time.monotonic`` timestamp)."""

    ts: float
    kind: str
    detail: str = ""
    worker: Optional[int] = None  # worker pid when applicable
    chunk: Optional[int] = None   # task index when applicable


@dataclass
class ResilienceTelemetry:
    """Observable record of one pool call's resilience behaviour.

    ``chunks`` is the number of tasks and ``attempts`` counts task
    dispatches *including* retries, so a clean call has
    ``attempts == chunks`` and every retry adds one.  ``degraded`` is the
    final rung of the degradation ladder the call ended on:
    ``None``/"parallel" (full pool), ``"reduced"`` (finished on fewer
    workers after exhausting the respawn budget), or ``"sequential"`` (the
    pool was skipped or collapsed and the caller ran everything in-process).
    """

    workers: int = 0
    chunks: int = 0
    attempts: int = 0
    retries: int = 0
    deadline_kills: int = 0
    worker_crashes: int = 0
    respawns: int = 0
    breaker_state: str = "closed"
    breaker_trips: int = 0
    degraded: Optional[str] = None
    events: List[PoolEvent] = field(default_factory=list)

    @property
    def worker_faults(self) -> int:
        """Faults the circuit breaker counts: crashes + deadline kills."""
        return self.worker_crashes + self.deadline_kills

    def record(self, kind: str, detail: str = "", worker: Optional[int] = None,
               chunk: Optional[int] = None) -> PoolEvent:
        event = PoolEvent(
            ts=time.monotonic(), kind=kind, detail=detail,
            worker=worker, chunk=chunk,
        )
        self.events.append(event)
        return event

    def summary(self) -> str:
        parts = [
            f"workers={self.workers}",
            f"attempts={self.attempts}", f"retries={self.retries}",
            f"deadline_kills={self.deadline_kills}",
            f"crashes={self.worker_crashes}",
            f"breaker={self.breaker_state}",
        ]
        if self.degraded:
            parts.append(f"degraded={self.degraded}")
        return " ".join(parts)


class CircuitBreaker:
    """Closed → open → half-open breaker over worker faults.

    One instance guards the whole process (like the compile cache): worker
    faults accumulate across pool calls while *closed*; reaching the
    threshold trips the breaker *open*, and subsequent callers skip the pool
    entirely (a sharded autotune then runs sequentially, and the server
    sheds launches with 503).  After ``cooldown`` skipped calls the breaker
    moves to *half-open* and admits one trial call: a fault-free trial
    closes the breaker and a faulty one re-opens it.  All transitions are
    kept in :attr:`transitions` so tests can assert the exact machine.
    """

    def __init__(self) -> None:
        self.state = "closed"
        self.fault_count = 0
        self.trips = 0
        self._skips = 0
        self.transitions: List[tuple] = []  # (from, to, reason)

    def _move(self, to: str, reason: str) -> None:
        if to == self.state:
            return
        self.transitions.append((self.state, to, reason))
        self.state = to

    def allow(self, config: ResilienceConfig) -> bool:
        """May the next pool call actually use the pool?

        Called once per such call; while open it counts the skip and
        half-opens after ``config.breaker_cooldown`` skipped calls.
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            self._skips += 1
            if self._skips >= config.breaker_cooldown:
                self._move("half-open", f"cooldown after {self._skips} skipped calls")
                return True
            return False
        return True  # half-open: admit the trial call

    def record_result(self, faults: int, config: ResilienceConfig) -> None:
        """Account one finished pool call (``faults`` = crashes + deadline
        kills it suffered, successful or not)."""
        if faults <= 0:
            if self.state == "half-open":
                self._move("closed", "trial call ran fault-free")
            self.fault_count = 0
            return
        self.fault_count += faults
        if self.state == "half-open":
            self.trips += 1
            self._skips = 0
            self._move("open", f"trial call saw {faults} worker fault(s)")
        elif self.state == "closed" and self.fault_count >= config.breaker_threshold:
            self.trips += 1
            self._skips = 0
            self._move(
                "open",
                f"{self.fault_count} worker fault(s) >= threshold "
                f"{config.breaker_threshold}",
            )

    def force_open(self, reason: str = "forced open") -> None:
        """Trip the breaker open directly (admin/debug seam).

        The serve layer's debug endpoint uses this to make breaker-aware
        load shedding testable without having to crash real workers; the
        transition is recorded like any organic trip.
        """
        self.trips += 1
        self._skips = 0
        self._move("open", reason)

    def reset(self) -> None:
        self.state = "closed"
        self.fault_count = 0
        self.trips = 0
        self._skips = 0
        self.transitions.clear()


#: Process-wide breaker guarding the worker pool (tests reset it).
_BREAKER = CircuitBreaker()


def get_breaker() -> CircuitBreaker:
    return _BREAKER


def reset_breaker() -> None:
    _BREAKER.reset()
