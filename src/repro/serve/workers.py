"""Launch workers: the kernel server's launches run on forked processes.

:class:`LaunchWorkers` forks one worker process per CPU the server may run
on (``os.sched_getaffinity``) when the server is built, before its socket
binds and before any server thread exists.  Every tenant stream
(:class:`~repro.gpusim.stream.Stream`) runs its launches through
:meth:`LaunchWorkers.run`: the stream's thread hands the launch to an idle
worker over a pipe and waits for the reply with the interpreter lock
released, so two tenants' launches run on two CPUs instead of taking turns
on one interpreter lock.

The server sends a request's kernel source and its sha256
(:class:`KernelSource`), not the parsed tree: each worker parses a source
once through its own :class:`~repro.serve.kernels.KernelCache`, which
costs less than pickling a kernel tree on every request.  The server
resolves the engine and names it in every job, so a worker never reads
``GPUSIM_BACKEND`` as it stood at the fork.  The reply is the
:class:`~repro.gpusim.launch.LaunchResult`, whose ``wall_ms`` is the
worker's own time in ``launch()``.

A launch that runs in its own process can be stopped: the runner
registers a stop function on the launch's future, so
``LaunchFuture.cancel`` SIGKILLs the worker.  A worker that dies, killed
or crashed, fails its launch with a located ``LaunchError`` naming its pid
and signal, and a fresh fork takes its place.

Workers are forked, not spawned: a fork is ready in tens of milliseconds
with the engine already imported, where a spawned interpreter must import
it again, which takes longer than the server's whole start-up.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..gpusim.errors import LaunchError
from ..gpusim.launch import LaunchResult, launch
from ..gpusim.stream import running_future
from .kernels import KernelCache

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: Seconds an idle worker gets to exit on pipe EOF before it is killed.
EXIT_GRACE_S = 5.0


@dataclass(frozen=True)
class KernelSource:
    """The kernel a job launches: source text and its sha256 digest."""

    digest: str
    source: str


class _Worker:
    """The server's end of one worker process."""

    __slots__ = ("slot", "pid", "conn", "launches", "replacements")

    def __init__(self, slot: int, pid: int, conn: Connection,
                 replacements: int) -> None:
        self.slot = slot
        self.pid = pid
        self.conn = conn
        #: Launches this process ran to a reply.
        self.launches = 0
        #: Workers of this slot that died before this one was forked.
        self.replacements = replacements


class LaunchWorkers:
    """One forked launch worker per usable CPU; :meth:`run` is the runner
    of every tenant stream."""

    def __init__(self) -> None:
        # Guards the worker lists, forks and reaping.  A pid is killed only
        # while its worker is listed (by close(), under this lock) or while
        # its launch's stop function is registered, and a runner
        # unregisters that and delists the worker before reaping it, so no
        # reused pid is ever signalled.
        self._cond = threading.Condition()
        self._workers = [_fork(slot, 0)
                         for slot in range(len(os.sched_getaffinity(0)))]
        self._idle = list(self._workers)
        self._closed = False

    # -- the stream runner ---------------------------------------------------

    def run(self, kernel: KernelSource, grid, block, args,
            **kwargs) -> LaunchResult:
        """Run one launch on an idle worker; the arguments are those of
        :func:`~repro.gpusim.launch.launch`, except that the kernel is a
        :class:`KernelSource`.

        Called on a stream thread, the launch becomes stoppable: cancelling
        its future kills the worker running it.
        """
        future = running_future()
        where = "" if future is None else f" on {future._where()}"
        worker = self._acquire()
        pid = worker.pid
        if future is not None and not future.set_stop(
                lambda: os.kill(pid, signal.SIGKILL)):
            self._release(worker)        # cancelled while it waited
            raise LaunchError(f"launch{where} was cancelled")
        try:
            worker.conn.send((kernel, grid, block, args, kwargs))
            reply = worker.conn.recv()
        except (EOFError, OSError):      # the worker died
            reply = None
        stopped = future is not None and not future.set_stop(None)
        if reply is None or stopped:
            raise LaunchError(
                f"launch worker {pid} {self._replace(worker)} while running "
                f"the launch{where}")
        worker.launches += 1
        self._release(worker)
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def _acquire(self) -> _Worker:
        with self._cond:
            while not self._idle and not self._closed:
                self._cond.wait()
            if self._closed:
                raise LaunchError("the launch workers are closed")
            return self._idle.pop()

    def _release(self, worker: _Worker) -> None:
        with self._cond:
            if not self._closed:
                self._idle.append(worker)
                self._cond.notify()
                return
            self._workers.remove(worker)
            worker.conn.close()
            _reap(worker.pid)

    def _replace(self, worker: _Worker) -> str:
        """Reap a dead worker, fork its successor unless closed, and return
        how the dead one ended ("was killed by signal 9 (SIGKILL)")."""
        with self._cond:
            self._workers.remove(worker)
            worker.conn.close()
            ended = _reap(worker.pid)
            if not self._closed:
                fresh = _fork(worker.slot, worker.replacements + 1)
                self._workers.append(fresh)
                self._idle.append(fresh)
                self._cond.notify()
        return ended

    # -- lifetime and observability ------------------------------------------

    def close(self) -> None:
        """Stop every worker.  Idle workers exit on pipe EOF (and are killed
        after ``EXIT_GRACE_S``); a worker still running a launch is killed,
        and that launch fails.  Idempotent."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            idle, self._idle = self._idle, []
            for worker in self._workers:
                if worker not in idle:   # its runner reaps it
                    os.kill(worker.pid, signal.SIGKILL)
            for worker in idle:
                worker.conn.close()
            for worker in idle:
                if _reap(worker.pid, EXIT_GRACE_S) is None:
                    os.kill(worker.pid, signal.SIGKILL)
                    _reap(worker.pid)

    def snapshot(self) -> List[dict]:
        """Per worker slot: the pid, launches it ran, replacements of the
        slot so far, and the process's peak RSS, CPU time and threads."""
        with self._cond:
            slots = [(w.pid, w.launches, w.replacements)
                     for w in sorted(self._workers, key=lambda w: w.slot)]
        return [dict(pid=pid, launches=launches, replacements=replaced,
                     **process_usage(pid))
                for pid, launches, replaced in slots]


def _fork(slot: int, replacements: int) -> _Worker:
    """Fork a worker for ``slot`` (under the workers' lock, or before any
    server thread exists)."""
    # Imported here, so a client that imports repro.serve does not pay for
    # multiprocessing.
    from multiprocessing.connection import Pipe

    parent_end, child_end = Pipe()
    pid = os.fork()
    if pid == 0:
        # The child.  Replacements are forked from the threaded server:
        # only this thread exists here, and any lock another server thread
        # held at the fork stays held for good.  The worker loop takes none
        # of those locks: it uses its own pipe, its own KernelCache and
        # launch(), whose cache locks no server thread takes.
        code = 1
        try:
            # Inherited objects are never collected, so no finalizer closes
            # a descriptor number this process reuses; then every inherited
            # descriptor but stdio and this pipe is closed: the listening
            # socket, client connections, other workers' pipes.
            gc.freeze()
            fd = child_end.fileno()
            os.closerange(3, fd)
            os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
            _serve(child_end)
            code = 0
        finally:
            os._exit(code)
    child_end.close()
    return _Worker(slot, pid, parent_end, replacements)


def _serve(conn: Connection) -> None:
    """The worker loop: run each job the pipe brings until it closes."""
    # An interactive ^C reaches the whole process group; the server drains
    # and then closes the pipes.  A SIGTERM only ever means "exit".
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    kernels = KernelCache()
    while True:
        try:
            kernel, grid, block, args, kwargs = conn.recv()
        except EOFError:
            return
        try:
            reply = launch(kernels.get(kernel.digest, kernel.source),
                           grid, block, args, **kwargs)
        except Exception as exc:  # re-raised by the server's runner
            reply = exc
        conn.send(reply)


def _reap(pid: int, timeout: Optional[float] = None) -> Optional[str]:
    """Wait for child ``pid`` to end (at most ``timeout`` seconds) and say
    how it ended; None if it is still running."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        try:
            done, status = os.waitpid(
                pid, 0 if deadline is None else os.WNOHANG)
        except ChildProcessError:        # already reaped
            return "ended"
        if done:
            break
        if time.monotonic() >= deadline:
            return None
        time.sleep(0.01)
    if os.WIFSIGNALED(status):
        signum = os.WTERMSIG(status)
        return f"was killed by signal {signum} ({signal.Signals(signum).name})"
    return f"exited with status {os.WEXITSTATUS(status)}"


def process_usage(pid: int) -> dict:
    """Peak RSS (``VmHWM``, MB), user + system CPU (ms) and thread count of
    ``pid``, from ``/proc``; None for a figure that cannot be read."""
    peak = cpu = threads = None
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    peak = round(int(line.split()[1]) / 1024, 1)
                elif line.startswith("Threads:"):
                    threads = int(line.split()[1])
        with open(f"/proc/{pid}/stat") as fh:
            # Fields 14 and 15 of proc(5); the split starts at field 3.
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu = round((int(fields[11]) + int(fields[12]))
                    * 1e3 / os.sysconf("SC_CLK_TCK"), 1)
    except (OSError, IndexError, ValueError):
        pass
    return {"peak_rss_mb": peak, "cpu_ms": cpu, "threads": threads}
