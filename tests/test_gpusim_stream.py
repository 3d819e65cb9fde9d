"""Stream-layer regression tests: shared deadlines, close races, events.

These pin the three stream bugs fixed alongside the serve layer:

1. ``Stream.synchronize(timeout=)`` used to apply the full timeout to
   *each* pending future (N launches could block for N x timeout); it is
   now one shared monotonic deadline, and the raised ``TimeoutError``
   reports how many launches were still pending.
2. ``launch_async`` checked ``_closed`` outside the lock, so an enqueue
   racing ``close()`` could slip its launch behind the shutdown sentinel
   and leave its future forever unfulfilled.  The check, the
   pending-list append, and the queue insert are now atomic, and
   ``close()`` fulfils any leftover future with a located
   ``LaunchError`` instead of hanging ``result()``.
3. ``LaunchFuture.exception()/result()`` timeouts were anonymous; they
   now carry the stream name and queue position, and ``exception()``
   follows ``concurrent.futures`` semantics (returns the launch's
   exception, never raises it).

They also pin the async-launch basics: a future's result equals the
synchronous launch's, one stream runs FIFO, ``synchronize`` drains, and
``close(timeout)`` returns within its timeout.
"""

import threading
import time

import numpy as np
import pytest

from repro.gpusim.errors import LaunchError, SimError
from repro.gpusim.launch import run_kernel
from repro.gpusim.stream import Event, Stream, default_stream, launch_async
from repro.minicuda.parser import parse_kernel

INC = parse_kernel(
    """
    __global__ void inc(float* x, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) x[i] = x[i] + 1.0f;
    }
    """
)

OOB = parse_kernel(
    """
    __global__ void oob(float* x, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        x[i + n] = 1.0f;
    }
    """
)


def _args(n=64):
    return {"x": np.zeros(n, dtype=np.float32), "n": n}


def _block_stream(stream: Stream) -> Event:
    """Park ``stream``'s worker on an event that has not fired yet.

    Everything enqueued afterwards stays pending until the returned
    event's ``_fired`` is set — a deterministic way to keep launches
    in-queue without depending on kernel runtime.
    """
    gate = Event(name="gate")
    gate._stream_name = stream.name
    stream._enqueue(("wait", gate))
    return gate


class TestStreams:
    def test_future_result_matches_sync(self):
        sync = run_kernel(INC, 2, 32, _args())
        future = launch_async(INC, 2, 32, _args())
        res = future.result(timeout=120)
        assert future.done()
        assert future.exception() is None
        assert res.buffer("x").tobytes() == sync.buffer("x").tobytes()
        assert res.stats == sync.stats

    def test_stream_fifo_order(self):
        with Stream() as stream:
            futures = [stream.launch_async(INC, 2, 32, _args())
                       for _ in range(3)]
            last = futures[-1].result(timeout=120)
            # One worker, FIFO: when the last launch is done, so is every
            # earlier one.
            assert all(f.done() for f in futures)
        assert [f.position for f in futures] == [1, 2, 3]
        ref = run_kernel(INC, 2, 32, _args())
        for res in [f.result(timeout=0) for f in futures[:-1]] + [last]:
            assert res.buffer("x").tobytes() == ref.buffer("x").tobytes()
            assert res.stats == ref.stats

    def test_synchronize_drains_everything(self):
        stream = Stream()
        futures = [stream.launch_async(INC, 2, 32, _args()) for _ in range(3)]
        stream.synchronize(timeout=120)
        assert all(f.done() for f in futures)
        stream.close()

    def test_default_stream_recreated_after_close(self):
        first = default_stream()
        first.close()
        second = default_stream()
        assert second is not first
        assert launch_async(INC, 2, 32, _args()).result(timeout=120).ok


class TestSynchronizeDeadline:
    def test_timeout_is_shared_not_per_future(self):
        """N pending launches must time out in ~timeout, not N x timeout."""
        stream = Stream(name="deadline")
        gate = _block_stream(stream)
        try:
            futures = [stream.launch_async(INC, 2, 32, _args()) for _ in range(5)]
            t0 = time.monotonic()
            with pytest.raises(TimeoutError) as excinfo:
                stream.synchronize(timeout=0.3)
            elapsed = time.monotonic() - t0
            # Per-future application would need >= 5 * 0.3s; the shared
            # deadline returns after one budget (generous upper bound for
            # slow CI hosts).
            assert elapsed < 1.0, f"synchronize blocked {elapsed:.2f}s"
            message = str(excinfo.value)
            assert "'deadline'" in message
            assert "5 launch(es) still pending" in message
            assert "0.3" in message
            assert all(not f.done() for f in futures)
        finally:
            gate._fired.set()
            stream.synchronize(timeout=5.0)
            stream.close()

    def test_pending_count_excludes_completed(self):
        stream = Stream(name="partial")
        first = stream.launch_async(INC, 2, 32, _args())
        first.result(timeout=5.0)  # drain the first completely
        gate = _block_stream(stream)
        try:
            stream.launch_async(INC, 2, 32, _args())
            with pytest.raises(TimeoutError) as excinfo:
                stream.synchronize(timeout=0.2)
            assert "1 launch(es) still pending" in str(excinfo.value)
        finally:
            gate._fired.set()
            stream.synchronize(timeout=5.0)
            stream.close()

    def test_expired_deadline_still_polls_done_futures(self):
        """A deadline in the past must not fail futures that completed."""
        stream = Stream(name="poll")
        future = stream.launch_async(INC, 2, 32, _args())
        future.result(timeout=5.0)
        stream.synchronize(timeout=0.0)  # everything done: no raise
        stream.close()


class TestTimeoutIdentity:
    def test_result_timeout_names_stream_and_position(self):
        stream = Stream(name="ident")
        gate = _block_stream(stream)
        try:
            stream.launch_async(INC, 2, 32, _args())
            second = stream.launch_async(INC, 2, 32, _args())
            with pytest.raises(TimeoutError) as excinfo:
                second.result(timeout=0.1)
            message = str(excinfo.value)
            assert "'ident'" in message
            assert "queue position 2" in message
        finally:
            gate._fired.set()
            stream.synchronize(timeout=5.0)
            stream.close()

    def test_exception_timeout_names_stream_and_position(self):
        stream = Stream(name="ident2")
        gate = _block_stream(stream)
        try:
            future = stream.launch_async(INC, 2, 32, _args())
            with pytest.raises(TimeoutError) as excinfo:
                future.exception(timeout=0.1)
            assert "'ident2'" in str(excinfo.value)
            assert "queue position 1" in str(excinfo.value)
        finally:
            gate._fired.set()
            stream.synchronize(timeout=5.0)
            stream.close()

    def test_exception_returns_none_on_success(self):
        with Stream(name="ok") as stream:
            future = stream.launch_async(INC, 2, 32, _args())
            assert future.exception(timeout=5.0) is None
            assert future.result().ok

    def test_exception_returns_failure_without_raising(self):
        """concurrent.futures semantics: the launch's exception is a return
        value from exception() and a raise from result()."""
        stream = Stream(name="fail")
        try:
            future = stream.launch_async(OOB, 1, 32, _args(32))
            exc = future.exception(timeout=5.0)
            assert isinstance(exc, SimError)
            with pytest.raises(SimError):
                future.result(timeout=5.0)
        finally:
            stream.close()

    def test_failed_launch_does_not_poison_stream(self):
        stream = Stream(name="recover")
        try:
            bad = stream.launch_async(OOB, 1, 32, _args(32))
            good = stream.launch_async(INC, 2, 32, _args())
            assert bad.exception(timeout=5.0) is not None
            assert good.result(timeout=5.0).ok
        finally:
            stream.close()


class TestCloseRace:
    def test_close_fulfills_unrun_futures_with_located_error(self):
        """Launches parked behind a blocker when close() lands must be
        failed, not forgotten: result() raises a LaunchError naming the
        stream and queue position instead of hanging."""
        stream = Stream(name="doomed")
        gate = _block_stream(stream)
        futures = [stream.launch_async(INC, 2, 32, _args()) for _ in range(3)]

        closer = threading.Thread(target=stream.close)
        closer.start()
        time.sleep(0.05)  # close() is now blocked joining the worker
        gate._fired.set()  # unblock: worker sees the sentinel next
        closer.join(timeout=5.0)
        assert not closer.is_alive()

        for future in futures:
            assert future.done(), "close() left a future unfulfilled"
            exc = future.exception(timeout=0)
            if exc is not None:  # ran before the sentinel => real result
                assert isinstance(exc, LaunchError)
                assert "'doomed'" in str(exc)
                assert f"queue position {future.position}" in str(exc)

    def test_enqueue_vs_close_stress_never_hangs(self):
        """Hammer launch_async against close() through a barrier: every
        call must either raise RuntimeError (closed) or return a future
        that is eventually fulfilled — with a result or a located error,
        never a silent hang."""
        for _ in range(5):
            stream = Stream(name="race")
            barrier = threading.Barrier(4)
            futures = []
            futures_lock = threading.Lock()
            rejected = []

            def enqueue():
                barrier.wait()
                for _ in range(10):
                    try:
                        future = stream.launch_async(INC, 1, 32, _args(32))
                    except RuntimeError:
                        rejected.append(1)
                        return
                    with futures_lock:
                        futures.append(future)

            def close():
                barrier.wait()
                stream.close()

            threads = [threading.Thread(target=enqueue) for _ in range(3)]
            threads.append(threading.Thread(target=close))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive(), "close/enqueue race deadlocked"

            for future in futures:
                # Fulfilled promptly: either the launch ran before the
                # sentinel, or close() failed it with a located error.
                assert future._event.wait(5.0), (
                    "racing future was never fulfilled"
                )
                exc = future.exception(timeout=0)
                assert exc is None or isinstance(exc, (LaunchError, SimError))

    def test_close_timeout_leaves_queued_launches_to_the_worker(self):
        """close(timeout) returns False while the worker is busy; the
        launch still queued then runs on it, with a real result."""
        stream = Stream(name="slow-close")
        gate = _block_stream(stream)
        future = stream.launch_async(INC, 2, 32, _args())
        try:
            t0 = time.monotonic()
            assert stream.close(timeout=0.2) is False
            assert time.monotonic() - t0 < 2.0
            assert not future.done()
        finally:
            gate._fired.set()
        assert future.result(timeout=5.0).ok
        assert stream.close(timeout=5.0) is True

    def test_enqueue_after_close_raises(self):
        stream = Stream(name="shut")
        stream.close()
        with pytest.raises(RuntimeError, match="closed"):
            stream.launch_async(INC, 1, 32, _args(32))
        with pytest.raises(RuntimeError, match="closed"):
            Event().record(stream)


class TestEvent:
    def test_record_query_synchronize(self):
        with Stream(name="ev") as stream:
            stream.launch_async(INC, 2, 32, _args())
            event = Event(name="after-inc").record(stream)
            event.synchronize(timeout=5.0)
            assert event.query()

    def test_synchronize_timeout_is_identified(self):
        event = Event(name="never")
        with pytest.raises(TimeoutError, match="'never'"):
            event.synchronize(timeout=0.05)

    def test_cross_stream_wait_orders_launches(self):
        """cudaStreamWaitEvent semantics: stream B's launches enqueued
        after waiting on A's event must not run until A fires it."""
        a = Stream(name="A")
        b = Stream(name="B")
        gate = _block_stream(a)  # A is parked; its event can't fire yet
        try:
            fa = a.launch_async(INC, 2, 32, _args())
            marker = Event(name="a-done").record(a)
            marker.wait(b)  # B now waits for A's marker
            fb = b.launch_async(INC, 2, 32, _args())

            time.sleep(0.2)
            assert not fb.done(), "B ran before A's event fired"

            gate._fired.set()  # release A: launch, then marker fires
            assert fb.result(timeout=5.0).ok
            assert fa.result(timeout=0).ok, "B completed before A"
            assert marker.query()
        finally:
            gate._fired.set()
            a.close()
            b.close()

    def test_record_rearms(self):
        with Stream(name="rearm") as stream:
            event = Event().record(stream)
            event.synchronize(timeout=5.0)
            event.record(stream)  # re-record clears then re-fires
            event.synchronize(timeout=5.0)
            assert event.query()

    def test_fanout_event_sees_fulfilled_future(self):
        """The serve-layer coalescing contract: an event recorded directly
        behind a launch fires only after that launch's future is
        fulfilled (stream FIFO), so followers can read the result with a
        zero timeout."""
        with Stream(name="fanout") as stream:
            future = stream.launch_async(INC, 2, 32, _args())
            event = Event().record(stream)
            event.synchronize(timeout=5.0)
            assert future.done()
            assert future.exception(timeout=0) is None
            assert future.result(timeout=0).ok
