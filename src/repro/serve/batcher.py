"""The kernel server's dispatcher: coalescing, per-tenant FIFO, launching.

Every ``/v1/launch`` handler thread calls :meth:`CoalescingBatcher.submit`
and runs its own launch; there is no dispatcher thread.  Under one lock the
dispatcher keeps three things:

- *Single-flight coalescing.*  Requests are keyed by
  :func:`~repro.serve.protocol.coalesce_key` (source digest, geometry,
  options and argument bytes; tenant and deadline excluded).  The first
  arrival creates an entry; a request with the same key joins the live
  entry instead of launching again, so every waiter gets the same
  :class:`~repro.gpusim.launch.LaunchResult` object and the responses are
  bit-identical by construction.
- *Per-tenant FIFO.*  A new entry is appended to its tenant's queue (its
  arrival ticket) and starts only when it heads that queue, so one
  tenant's launches never overlap and run in arrival order, while
  different tenants' launches run side by side.
- *Driving the launch.*  The threads waiting on an entry take turns
  holding its lock.  The holder waits until the entry heads its queue and
  a launch worker (:mod:`repro.serve.workers`) is idle, sends the job and
  blocks on the worker's pipe.  Each wait is bounded by the holder's own
  deadline: a holder whose deadline passes leaves, and the next waiter
  takes over the same launch.

The last waiter to leave cancels the launch: a queued entry leaves its
tenant's queue and never runs, a running one's worker is killed and
replaced.  A settled or cancelled entry leaves the map at once, so a later
identical request launches afresh.  Per-tenant counters are kept for the
:data:`TENANT_CAPACITY` most recently submitting tenants only; a tenant
pushed out while its launch is still queued or running loses its counts,
and its arrival numbers start again at its next request.

This is *request* coalescing — deduplicating identical work across tenants
— and is orthogonal to megablock *batching*, which vectorizes the block
axis inside one launch.  A coalesced launch may well execute on the
megablock backend; the two multiply.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..gpusim.launch import LaunchResult
from ..lru import LRU
from . import metrics
from .protocol import LaunchRequest
from .workers import LaunchWorkers

#: Tenants whose counters the server keeps (``/statz`` ``tenants``); the
#: one that submitted least recently is forgotten first.
TENANT_CAPACITY = 256


class Draining(Exception):
    """The request reached the dispatcher after the server began draining."""


class _Entry:
    """One launch and the requests waiting on it."""

    __slots__ = ("key", "tenant", "arrival", "job", "lock", "waiters",
                 "worker", "done", "result", "error")

    def __init__(self, key: str, tenant: str, arrival: int,
                 job: tuple) -> None:
        self.key = key
        self.tenant = tenant
        #: The tenant's request count when the launch arrived.
        self.arrival = arrival
        #: The arguments of ``LaunchWorkers.start`` after the worker.
        self.job = job
        #: Held by the waiter driving the launch.
        self.lock = threading.Lock()
        #: Requests still waiting on the launch (timed-out ones leave).
        self.waiters = 1
        #: The worker running the launch, once the job was sent.
        self.worker = None
        self.done = False
        self.result: Optional[LaunchResult] = None
        self.error: Optional[Exception] = None


class CoalescingBatcher:
    """Content-keyed single-flight launcher with per-tenant FIFO over the
    server's launch workers."""

    def __init__(self, workers: LaunchWorkers) -> None:
        self._workers = workers
        # Guards everything below; notified when an entry leaves its queue
        # or a worker becomes idle.  Lock order: this, then the workers'.
        self._cond = threading.Condition()
        self._inflight: Dict[str, _Entry] = {}
        #: Tenant -> its queued and running entries, in arrival order; a
        #: tenant with none has no queue.
        self._queues: Dict[str, Deque[_Entry]] = {}
        self._tenants = LRU(TENANT_CAPACITY)
        self._draining = False
        self.launches = 0
        self.coalesced = 0

    def submit(
        self,
        req: LaunchRequest,
        key: str,
        kernel,
        launch_kwargs: dict,
        deadline: Optional[float] = None,
    ) -> Tuple[LaunchResult, bool]:
        """Run (or join) the launch identified by ``key``.

        ``kernel`` is the :class:`~repro.serve.workers.KernelSource` a
        worker launches with ``launch_kwargs``.  ``deadline`` is an absolute
        ``time.monotonic`` instant; expiry raises :class:`TimeoutError`, and
        the last waiter to expire cancels the launch.  Raises
        :class:`Draining` once :meth:`drain` began.  Returns the launch
        result and whether this request was coalesced onto another
        request's launch.
        """
        with self._cond:
            if self._draining:
                raise Draining("the server is draining: no new launches")
            counts = self._tenants.get(req.tenant)
            if counts is None:
                counts = dict.fromkeys(
                    ("requests", "launches", "coalesced", "errors"), 0)
                self._tenants.put(req.tenant, counts)
            counts["requests"] += 1
            entry = self._inflight.get(key)
            coalesced = entry is not None
            if coalesced:
                entry.waiters += 1
                self.coalesced += 1
            else:
                entry = _Entry(key, req.tenant, counts["requests"], (
                    kernel, req.grid, req.block, req.args,
                    dict(launch_kwargs, on_error="status",
                         const_arrays=req.const_arrays or None)))
                self._inflight[key] = entry
                self._queues.setdefault(req.tenant, deque()).append(entry)
                self.launches += 1

        if coalesced:
            metrics.record_event(
                "coalesce", tenant=req.tenant, key=key,
                detail=f"leader={entry.tenant}",
            )
        try:
            result = self._wait(entry, deadline)
        except Exception:
            with self._cond:
                counts["errors"] += 1
            raise
        with self._cond:
            counts["coalesced" if coalesced else "launches"] += 1
            if result.error is not None:
                counts["errors"] += 1
        return result, coalesced

    def _wait(self, entry: _Entry, deadline: Optional[float]) -> LaunchResult:
        """Wait for ``entry`` to settle, driving its launch while holding
        its lock; return the result or raise the launch's exception.  A
        waiter that gives up, at its deadline or on an error of its own
        wait, leaves the entry."""
        try:
            remaining = _remaining(deadline)
            if entry.lock.acquire(
                    timeout=-1 if remaining is None else remaining):
                try:
                    if not entry.done:
                        self._drive(entry, deadline)
                finally:
                    entry.lock.release()
            if not entry.done:
                raise TimeoutError(
                    f"launch {entry.key[:12]} (leader tenant "
                    f"{entry.tenant!r}) did not complete within the request "
                    f"deadline")
        except BaseException:
            self._leave(entry)
            raise
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _drive(self, entry: _Entry, deadline: Optional[float]) -> None:
        """Run ``entry``'s launch until it settles or ``deadline`` passes
        (the entry's lock held); a later holder resumes where it stopped."""
        workers = self._workers
        try:
            if entry.worker is None:
                with self._cond:
                    while True:
                        remaining = _remaining(deadline)
                        if remaining == 0.0:
                            return
                        if self._queues[entry.tenant][0] is entry:
                            worker = workers.acquire()
                            if worker is not None:
                                break
                        self._cond.wait(remaining)
                    entry.worker = worker
                workers.start(worker, *entry.job)
            if not workers.wait(entry.worker, _remaining(deadline)):
                return
        except Exception as exc:  # workers closed; the job or wait failed
            self._settle(entry, None, exc)
            if entry.worker is not None:  # its reply will never be read
                self._kill(entry.worker)
            return
        try:
            result, error = workers.result(
                entry.worker,
                f"tenant {entry.tenant!r} arrival {entry.arrival}"), None
        except Exception as exc:  # the launch raised, or its worker died
            result, error = None, exc
        self._settle(entry, result, error)

    def _settle(self, entry: _Entry, result: Optional[LaunchResult],
                error: Optional[Exception]) -> None:
        """Give every waiter the launch's outcome and retire the entry."""
        with self._cond:
            entry.result, entry.error, entry.done = result, error, True
            self._retire(entry)

    def _leave(self, entry: _Entry) -> None:
        """A waiter gave up; the last one out cancels the launch."""
        with self._cond:
            entry.waiters -= 1
            if entry.waiters or entry.done:
                return
            self._retire(entry)
            worker = entry.worker
        if worker is not None:
            self._kill(worker)

    def _kill(self, worker) -> None:
        """Kill a worker whose launch no waiter reads; its successor is
        idle."""
        self._workers.kill(worker)
        with self._cond:
            self._cond.notify_all()

    def _retire(self, entry: _Entry) -> None:
        """Take a settled or cancelled entry out of the map and out of its
        tenant's queue (lock held)."""
        del self._inflight[entry.key]
        queue = self._queues[entry.tenant]
        queue.remove(entry)
        if not queue:
            del self._queues[entry.tenant]
        self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Refuse new submits, wait at most ``timeout`` seconds until nothing
        is queued or running, then stop the launch workers.

        True when nothing was left.  Otherwise a launch still running is
        killed and one still queued never runs; both fail.
        """
        with self._cond:
            self._draining = True
            clean = self._cond.wait_for(lambda: not self._queues, timeout)
        self._workers.close()
        with self._cond:
            self._cond.notify_all()   # queued holders find the workers closed
        return clean

    def inflight(self) -> int:
        with self._cond:
            return len(self._inflight)

    def tenants(self) -> Dict[str, dict]:
        """Each recently submitting tenant's request counters."""
        with self._cond:
            return {name: dict(counts)
                    for name, counts in self._tenants.items()}

    def snapshot(self) -> dict:
        with self._cond:
            return {
                "inflight": len(self._inflight),
                "launches": self.launches,
                "coalesced": self.coalesced,
            }


def _remaining(deadline: Optional[float]) -> Optional[float]:
    """Seconds left until ``deadline`` (never negative; None: no deadline)."""
    if deadline is None:
        return None
    return max(deadline - time.monotonic(), 0.0)
