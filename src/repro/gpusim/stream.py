"""Asynchronous launches with CUDA-style stream ordering.

CUDA hosts rarely block on every kernel: they enqueue launches onto a
*stream*, keep preparing the next batch, and synchronize when results are
needed.  This module gives the simulator the same shape:

- :func:`launch_async` enqueues a launch and immediately returns a
  :class:`LaunchFuture`;
- a :class:`Stream` executes its queued launches strictly in FIFO order on a
  dedicated worker thread (launches on *different* streams may interleave,
  exactly like CUDA streams);
- ``stream.synchronize()`` blocks until every launch enqueued so far has
  completed, and ``future.result()`` blocks for (and returns) one specific
  :class:`~repro.gpusim.launch.LaunchResult`;
- an :class:`Event` is the ``cudaEvent`` analogue: ``event.record(stream)``
  marks a point in a stream's FIFO, ``event.synchronize()`` blocks the host
  until the stream passed that point, and ``event.wait(other_stream)``
  makes *another* stream's later launches wait for it — the cross-stream
  primitive the serve layer's coalesced fan-out is built on.

Semantics follow CUDA, not snapshots: argument buffers are read when the
launch *executes*, so the host must not mutate them between enqueue and
synchronize.  Exceptions raised by a launch (located ``SimError`` etc.) are
captured and re-raised from ``future.result()``; a failed launch does not
poison the stream — later enqueued launches still run.

Shutdown is never silent: ``close()`` drains launches already enqueued, and
any future that could not run (a racing enqueue that lost to ``close()``)
is fulfilled with a located :class:`~repro.gpusim.errors.LaunchError`
instead of leaving ``result()`` to block forever.

Each launch runs whole on its stream's worker thread, in this process.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional

from .errors import LaunchError
from .launch import LaunchResult, launch


class LaunchFuture:
    """Handle for one asynchronously enqueued launch.

    ``result()`` blocks until the launch ran (respecting stream FIFO order)
    and returns its :class:`~repro.gpusim.launch.LaunchResult`, re-raising
    any exception the launch raised.  ``done()`` polls without blocking.

    Timeouts carry identity: the raised :class:`TimeoutError` names the
    stream and this launch's queue position, so a server log line is enough
    to find the stuck request.
    """

    def __init__(self, stream: "Stream", position: int) -> None:
        self._stream = stream
        #: 1-based enqueue index on the owning stream (stable identity).
        self.position = position
        self._event = threading.Event()
        self._result: Optional[LaunchResult] = None
        self._exception: Optional[BaseException] = None

    def _where(self) -> str:
        return f"stream {self._stream.name!r} queue position {self.position}"

    def _fulfill(self, result: Optional[LaunchResult],
                 exception: Optional[BaseException]) -> None:
        self._result = result
        self._exception = exception
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """Wait for completion and return the launch's exception (or None).

        Follows :class:`concurrent.futures.Future` semantics: the launch's
        exception is *returned*, never raised; ``None`` means the launch
        succeeded.  Only the wait itself can raise, with a
        :class:`TimeoutError` naming the stream and queue position.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"launch on {self._where()} has not completed "
                f"within {timeout}s"
            )
        return self._exception

    def result(self, timeout: Optional[float] = None) -> LaunchResult:
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"launch on {self._where()} has not completed "
                f"within {timeout}s"
            )
        if self._exception is not None:
            raise self._exception
        assert self._result is not None
        return self._result


class Event:
    """``cudaEvent`` analogue: a recorded point in one stream's FIFO.

    ``record(stream)`` enqueues a marker; when the stream's worker reaches
    it (i.e. every launch enqueued before the record completed), the event
    fires.  The host blocks on :meth:`synchronize`, polls with
    :meth:`query`, and *another* stream can be made to wait for it with
    :meth:`wait` — later launches on that stream do not start until the
    event fires, exactly like ``cudaStreamWaitEvent``.

    Re-recording re-arms the event (CUDA semantics): ``record`` clears the
    fired state and the new marker sets it again.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, name: Optional[str] = None) -> None:
        with Event._counter_lock:
            Event._counter += 1
            ident = Event._counter
        self.name = name if name is not None else f"event-{ident}"
        self._fired = threading.Event()
        #: Stream the last ``record`` landed on (diagnostics only).
        self._stream_name: Optional[str] = None

    def record(self, stream: Optional["Stream"] = None) -> "Event":
        """Mark the current end of ``stream``'s FIFO (default stream if None)."""
        target = stream if stream is not None else default_stream()
        self._fired.clear()
        self._stream_name = target.name
        target._enqueue(("record", self))
        return self

    def query(self) -> bool:
        """True when the recording stream has passed the marker."""
        return self._fired.is_set()

    def synchronize(self, timeout: Optional[float] = None) -> None:
        """Block the host until the event fires."""
        if not self._fired.wait(timeout):
            where = (
                f" recorded on stream {self._stream_name!r}"
                if self._stream_name
                else " (never recorded)"
            )
            raise TimeoutError(
                f"event {self.name!r}{where} did not fire within {timeout}s"
            )

    def wait(self, stream: "Stream") -> None:
        """Make later launches on ``stream`` wait until this event fires."""
        stream._enqueue(("wait", self))


class Stream:
    """A FIFO queue of launches executed by one dedicated worker thread.

    Launches enqueued on the same stream never overlap and complete in
    enqueue order; launches on different streams are independent.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, name: Optional[str] = None) -> None:
        with Stream._counter_lock:
            Stream._counter += 1
            ident = Stream._counter
        self.name = name if name is not None else f"stream-{ident}"
        self._queue: "queue.Queue" = queue.Queue()
        self._pending: List[LaunchFuture] = []
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._enqueued = 0

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._run, name=f"gpusim-{self.name}", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            kind = item[0]
            if kind == "record":
                item[1]._fired.set()
                continue
            if kind == "wait":
                # Block this stream (only) until the other stream's event
                # fires; the host stays free, exactly like
                # cudaStreamWaitEvent.
                item[1]._fired.wait()
                continue
            _, future, args, kwargs = item
            try:
                future._fulfill(launch(*args, **kwargs), None)
            except BaseException as exc:  # re-raised from future.result()
                future._fulfill(None, exc)
            finally:
                with self._lock:
                    if future in self._pending:
                        self._pending.remove(future)

    def _enqueue(self, item) -> None:
        """Closed-checked FIFO insert (markers and waits share the check)."""
        with self._lock:
            if self._closed:
                raise RuntimeError(f"stream {self.name!r} is closed")
            self._ensure_thread()
            self._queue.put(item)

    def launch_async(self, *args, **kwargs) -> LaunchFuture:
        """Enqueue ``launch(*args, **kwargs)``; returns immediately.

        The closed-check, the pending-list append, and the queue insert all
        happen under the stream lock: an enqueue can no longer race
        ``close()`` into the dead zone behind the shutdown sentinel where
        its future would silently never be fulfilled.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError(f"stream {self.name!r} is closed")
            self._enqueued += 1
            future = LaunchFuture(self, self._enqueued)
            self._pending.append(future)
            self._ensure_thread()
            self._queue.put(("launch", future, args, kwargs))
        return future

    def synchronize(self, timeout: Optional[float] = None) -> None:
        """Block until every launch enqueued so far has completed.

        Like ``cudaStreamSynchronize`` this waits for completion only; a
        launch's exception surfaces from its own ``future.result()``.

        ``timeout`` is one budget for the *whole* drain — a single
        monotonic deadline shared across every pending launch, not a
        per-future allowance (a stream with N queued launches used to be
        able to block for N×timeout).  On expiry the raised
        :class:`TimeoutError` reports how many launches are still pending.
        """
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._lock:
            pending = list(self._pending)
        for future in pending:
            if deadline is None:
                future._event.wait()
                continue
            # An expired deadline still polls (wait(0)): futures that
            # already completed never produce a spurious timeout.
            remaining = max(deadline - time.monotonic(), 0.0)
            if not future._event.wait(remaining):
                still_pending = sum(1 for f in pending if not f.done())
                raise TimeoutError(
                    f"stream {self.name!r} did not drain within {timeout}s; "
                    f"{still_pending} launch(es) still pending"
                )

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain the stream and stop its worker thread.

        Launches already enqueued still run (the shutdown sentinel sits
        behind them in the FIFO).  ``timeout=None`` blocks until the worker
        exits; otherwise the join waits at most ``timeout`` seconds, and a
        worker still busy then keeps the launches still queued and fulfils
        them in FIFO order before it reaches the sentinel.  Returns True
        once the worker has exited, False while it is still busy; calling
        ``close`` again waits again.

        Any future somehow left unfulfilled after the worker exits is
        failed with a located :class:`~repro.gpusim.errors.LaunchError`
        naming the stream and queue position — ``result()`` can never hang
        on a closed stream.
        """
        with self._lock:
            thread = self._thread
            if not self._closed:
                self._closed = True
                if thread is not None and thread.is_alive():
                    self._queue.put(None)
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                return False
        self._thread = None
        with self._lock:
            leftovers = [f for f in self._pending if not f.done()]
            self._pending.clear()
        for future in leftovers:
            future._fulfill(
                None,
                LaunchError(
                    f"stream {future._stream.name!r} closed before the "
                    f"launch at queue position {future.position} executed"
                ),
            )
        return True

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *exc) -> None:
        self.synchronize()
        self.close()


_DEFAULT_STREAM: Optional[Stream] = None
_DEFAULT_LOCK = threading.Lock()


def default_stream() -> Stream:
    """The process-wide default stream (created on first use)."""
    global _DEFAULT_STREAM
    with _DEFAULT_LOCK:
        if _DEFAULT_STREAM is None or _DEFAULT_STREAM._closed:
            _DEFAULT_STREAM = Stream(name="default")
        return _DEFAULT_STREAM


def launch_async(*args, **kwargs) -> LaunchFuture:
    """Enqueue a launch on the default stream; returns a :class:`LaunchFuture`.

    Accepts exactly the arguments of :func:`~repro.gpusim.launch.launch`.
    """
    return default_stream().launch_async(*args, **kwargs)
