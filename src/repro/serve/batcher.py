"""Request coalescing: identical concurrent launches share one execution.

When several tenants submit byte-identical requests (same source digest,
same launch geometry, same argument bytes — see
:func:`repro.serve.protocol.coalesce_key`), only the *leader* (first
arrival) enqueues a real launch; *followers* attach to the in-flight
entry and fan the leader's :class:`~repro.gpusim.launch.LaunchResult`
back to every waiter.  All responses are therefore bit-identical by
construction — they encode the same buffers.

The fan-out is built on the stream layer's cross-stream
:class:`~repro.gpusim.stream.Event`: the leader enqueues its launch on
its tenant stream and records an event immediately behind it, so stream
FIFO order guarantees the future is fulfilled by the time the event
fires.  Every waiter, leader or follower, blocks on ``event.synchronize``
under its own per-request deadline.  A waiter whose deadline passes
leaves the launch to the others; when the last one gives up, the launch
is cancelled (``LaunchFuture.cancel``: skipped if still queued, stopped if
its runner can stop it), and a later identical request starts a fresh
launch instead of joining the abandoned one.  A request arriving after
completion simply becomes the next leader (the entry is retired once its
event has fired).

This is *request* coalescing — deduplicating identical work across
tenants — and is orthogonal to megablock *batching*, which vectorizes
the block axis inside one launch.  A coalesced launch may well execute
on the megablock backend; the two multiply.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional, Tuple

from ..gpusim.launch import LaunchResult
from ..gpusim.stream import Event, LaunchFuture, Stream
from . import metrics
from .protocol import LaunchRequest


class _Inflight:
    """One in-flight coalesced launch: the leader's future + fan-out event."""

    __slots__ = ("key", "tenant", "future", "event", "waiters", "abandoned")

    def __init__(self, key: str, tenant: str, future: LaunchFuture,
                 event: Event) -> None:
        self.key = key
        self.tenant = tenant
        self.future = future
        self.event = event
        #: Requests still waiting on the launch (timed-out ones leave).
        self.waiters = 1
        #: Every waiter gave up and the launch was cancelled: no request
        #: joins it, and it leaves the map once its event fires.
        self.abandoned = False


class CoalescingBatcher:
    """Content-keyed single-flight launcher over per-tenant streams."""

    def __init__(self) -> None:
        self._inflight: Dict[str, _Inflight] = {}
        self._lock = threading.Lock()
        self.launches = 0
        self.coalesced = 0

    def inflight(self) -> int:
        with self._lock:
            self._prune()
            return len(self._inflight)

    def submit(
        self,
        req: LaunchRequest,
        key: str,
        stream: Stream,
        kernel,
        launch_kwargs: dict,
        deadline: Optional[float] = None,
    ) -> Tuple[LaunchResult, bool]:
        """Run (or join) the launch identified by ``key``.

        ``kernel`` is what the stream's runner launches: a parsed kernel
        for :func:`~repro.gpusim.launch.launch`, a
        :class:`~repro.serve.workers.KernelSource` for the server's launch
        workers.  ``deadline`` is an absolute ``time.monotonic`` instant;
        expiry raises :class:`TimeoutError`, and the last waiter to expire
        cancels the launch.  Returns the launch result and whether this
        request was coalesced onto another tenant's launch.
        """
        with self._lock:
            self._prune()
            entry = self._inflight.get(key)
            if entry is not None and not entry.abandoned:
                entry.waiters += 1
                self.coalesced += 1
                coalesced = True
            else:
                # Leader: enqueue the launch, then record the fan-out event
                # directly behind it.  Both enqueues happen under the
                # batcher lock so no follower can slip between map insert
                # and the launch actually being queued.
                future = stream.launch_async(
                    kernel, req.grid, req.block, req.args,
                    const_arrays=req.const_arrays or None,
                    on_error="status",
                    **launch_kwargs,
                )
                event = Event(name=f"coalesce-{key[:12]}").record(stream)
                entry = _Inflight(key, req.tenant, future, event)
                self._inflight[key] = entry
                self.launches += 1
                coalesced = False

        if coalesced:
            metrics.record_event(
                "coalesce", tenant=req.tenant, key=key,
                detail=f"leader={entry.tenant}",
            )

        timeout = None
        if deadline is not None:
            timeout = max(deadline - time.monotonic(), 0.0)
        try:
            entry.event.synchronize(timeout)
        except TimeoutError:
            if self._give_up(entry):
                entry.future.cancel()
            raise TimeoutError(
                f"launch {key[:12]} (leader tenant {entry.tenant!r}) did not "
                f"complete within the request deadline"
            ) from None
        finally:
            # Whoever notices the event first retires the entry; later
            # identical requests then start a fresh launch instead of
            # reading retired state.  A timed-out waiter leaves the entry
            # in place until its stream passes the event.
            if entry.event.query():
                self._retire(entry)

        # Event fired => stream FIFO already fulfilled the future.
        exc = entry.future.exception(timeout=0)
        if exc is not None:
            raise exc
        return entry.future.result(timeout=0), coalesced

    def _give_up(self, entry: _Inflight) -> bool:
        """A waiter's deadline passed; True when it was the last waiter of
        a launch still running, which the caller must then cancel."""
        with self._lock:
            entry.waiters -= 1
            if entry.waiters or entry.event.query():
                return False
            entry.abandoned = True
            return True

    def _retire(self, entry: _Inflight) -> None:
        with self._lock:
            if self._inflight.get(entry.key) is entry:
                del self._inflight[entry.key]

    def _prune(self) -> None:
        """Drop abandoned entries whose stream passed the event (lock held)."""
        for key, entry in list(self._inflight.items()):
            if entry.abandoned and entry.event.query():
                del self._inflight[key]

    def snapshot(self) -> dict:
        with self._lock:
            self._prune()
            return {
                "inflight": len(self._inflight),
                "launches": self.launches,
                "coalesced": self.coalesced,
            }
