"""Supervised persistent worker pool for whole-launch tasks.

Each task is one independent, picklable unit of work — today one autotune
variant launch (:func:`repro.npc.autotune._run_tune_task`) — named by a
``"module.path:function"`` runner and executed unsplit in a worker process,
so a task's result is exactly what the same call returns in-process.  The
pool adds supervision around that:

- **Long-lived workers.**  Workers are forked once and survive across
  calls; each task arrives over a per-worker duplex pipe.  Each worker keeps
  its own closure-compile cache warm across tasks.
- **Health checking.**  Every worker runs a daemon heartbeat thread that
  stamps a shared ``monotonic`` cell; :meth:`WorkerPool.health` exposes
  liveness, heartbeat age, and completed-task counts.
- **Deadlines.**  The parent's supervision loop is the watchdog: every
  dispatched task carries a deadline
  (:attr:`~repro.gpusim.resilience.ResilienceConfig.chunk_timeout`); a
  worker that blows it is SIGKILLed and replaced.  A call can never block
  indefinitely.
- **Task-level retry.**  Only the failed task is re-dispatched (bounded by
  ``max_retries``, with seeded jittered backoff); completed tasks are never
  re-executed.  A task whose retries are exhausted yields ``None`` at its
  index while every other task still completes.
- **Graceful degradation.**  Worker replacement is budgeted
  (``max_respawns``); past the budget the call finishes on the surviving
  workers (``degraded="reduced"``), and if no workers survive it returns
  ``None`` so the caller runs everything in-process
  (``degraded="sequential"``).  A :class:`~repro.gpusim.resilience.
  CircuitBreaker` (consulted by the caller) stops using the pool at all
  after repeated worker faults.
"""

from __future__ import annotations

import atexit
import collections
import importlib
import multiprocessing
import os
import pickle
import random
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Dict, List, Optional

from .resilience import ResilienceConfig, ResilienceTelemetry, jittered_backoff

#: Exit code used by the injected ``worker_crash`` fault (visible in events).
CRASH_EXIT_CODE = 13


def available() -> bool:
    """The pool forks its workers, so it needs a POSIX fork start method."""
    if os.name != "posix":
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def _worker_main(wid: int, conn, heartbeat, hb_interval: float,
                 close_fds: List[int]) -> None:
    """Entry point of one pool worker process."""
    for fd in close_fds:  # hygiene: drop inherited ends of other workers' pipes
        try:
            os.close(fd)
        except OSError:
            pass

    def _beat() -> None:
        while True:
            heartbeat.value = time.monotonic()
            time.sleep(hb_interval)

    threading.Thread(target=_beat, daemon=True, name="heartbeat").start()
    heartbeat.value = time.monotonic()
    conn.send(("ready", wid, os.getpid()))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent went away
        if msg[0] == "exit":
            break
        # A "task": the runner is resolved by dotted name here, not at
        # dispatch, because this worker may have been forked before the
        # runner's module was imported in the parent.
        _, seq, index, runner, payload, directive = msg
        conn.send(("start", wid, seq, index))
        if directive is not None:
            dkind, delay = directive
            if dkind == "worker_crash":
                os._exit(CRASH_EXIT_CODE)
            elif dkind == "worker_hang":
                while True:  # until the watchdog SIGKILLs us
                    time.sleep(60.0)
            elif dkind == "worker_slow":
                time.sleep(delay)
        try:
            mod_name, func_name = runner.split(":")
            func = getattr(importlib.import_module(mod_name), func_name)
            out = func(payload)
        except Exception as exc:
            # Runner exceptions stay inside the payload: a task failure
            # must never look like a worker crash to the supervisor.
            out = {"task_error": f"{type(exc).__name__}: {exc}"}
        conn.send(("done", wid, seq, index, out))
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


@dataclass
class _Task:
    index: int
    attempt: int = 0


@dataclass
class _Worker:
    wid: int
    proc: object
    conn: object
    heartbeat: object
    run_seq: int = -1
    task: Optional[_Task] = None
    deadline: float = 0.0
    tasks_done: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()


class WorkerPool:
    """Parent-side supervisor of the persistent worker fleet.

    One instance per process (see :func:`get_pool`).  :meth:`run_tasks` is
    the single entry point; a :class:`threading.Lock` serializes calls so
    concurrent callers queue instead of interleaving task traffic.
    """

    def __init__(self) -> None:
        self._ctx = multiprocessing.get_context("fork")
        self._workers: Dict[int, _Worker] = {}
        self._next_wid = 0
        self._seq = 0
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, config: ResilienceConfig,
               telemetry: Optional[ResilienceTelemetry] = None) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        heartbeat = self._ctx.Value("d", 0.0)
        wid = self._next_wid
        self._next_wid += 1
        close_fds = [w.conn.fileno() for w in self._workers.values()]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, heartbeat, config.heartbeat_interval, close_fds),
            daemon=True,
            name=f"gpusim-pool-{wid}",
        )
        proc.start()
        child_conn.close()  # parent's copy — EOF now tracks the child's end
        worker = _Worker(wid=wid, proc=proc, conn=parent_conn, heartbeat=heartbeat)
        self._workers[wid] = worker
        if telemetry is not None:
            telemetry.record("worker-spawn", f"worker {wid}", worker=proc.pid)
        return worker

    def _discard(self, worker: _Worker) -> None:
        self._workers.pop(worker.wid, None)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _kill(self, worker: _Worker) -> None:
        if worker.alive:
            try:
                os.kill(worker.proc.pid, signal.SIGKILL)
            except (OSError, TypeError):  # pragma: no cover - already gone
                pass
        worker.proc.join(timeout=5.0)
        self._discard(worker)

    def ensure_workers(self, count: int, config: ResilienceConfig,
                       telemetry: Optional[ResilienceTelemetry] = None) -> None:
        for worker in [w for w in self._workers.values() if not w.alive]:
            self._discard(worker)
        while len(self._workers) < count:
            self._spawn(config, telemetry)

    def alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if w.alive]

    def health(self) -> List[dict]:
        """Per-worker health snapshot (pid, liveness, heartbeat age)."""
        now = time.monotonic()
        out = []
        for w in sorted(self._workers.values(), key=lambda w: w.wid):
            beat = w.heartbeat.value
            out.append(
                {
                    "wid": w.wid,
                    "pid": w.pid,
                    "alive": w.alive,
                    "heartbeat_age": (now - beat) if beat > 0 else None,
                    "tasks_done": w.tasks_done,
                    "busy": w.task is not None,
                }
            )
        return out

    def shutdown(self) -> None:
        with self._lock:
            for worker in list(self._workers.values()):
                try:
                    worker.conn.send(("exit",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            for worker in list(self._workers.values()):
                worker.proc.join(timeout=1.0)
                if worker.alive:
                    self._kill(worker)
                else:
                    self._discard(worker)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish in-flight work, then retire every worker.

        Unlike :meth:`shutdown` (which assumes the pool is quiescent), drain
        first waits for the :meth:`run_tasks` call currently holding the
        pool lock to complete — the server's SIGTERM path must not yank
        workers out from under work that is already executing.  Returns
        True when every worker exited cleanly within ``timeout`` (``None`` =
        wait forever); stragglers are SIGKILLed and make the drain report
        False, so "no orphaned pool workers" is a checkable claim, not a
        hope.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        acquired = self._lock.acquire(
            timeout=-1 if deadline is None
            else max(deadline - time.monotonic(), 0.0)
        )
        if not acquired:
            return False
        clean = True
        try:
            for worker in list(self._workers.values()):
                try:
                    worker.conn.send(("exit",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            for worker in list(self._workers.values()):
                join_for = (
                    5.0 if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                worker.proc.join(timeout=join_for)
                if worker.alive:
                    clean = False
                    self._kill(worker)
                else:
                    self._discard(worker)
        finally:
            self._lock.release()
        return clean

    # -- task execution ------------------------------------------------------

    def run_tasks(
        self,
        runner: str,
        payloads: List[object],
        workers: int,
        config: ResilienceConfig,
        telemetry: ResilienceTelemetry,
        injector=None,
        kernel_name: str = "",
    ) -> Optional[List[Optional[object]]]:
        """Run independent pickled tasks across the pool.

        Returns one result per payload, in payload order.  A task whose
        retries are exhausted yields ``None`` at its index while every
        other task still completes (the sharded autotuner turns those into
        disqualified points).  Only infrastructure collapse (pipe/pickle
        trouble, no live workers) fails the whole call, returning ``None``
        so the caller reruns everything sequentially.

        ``runner`` is a ``"module.path:function"`` string resolved inside
        the worker; the function receives one payload and returns a
        picklable result.  ``injector`` resolves ``worker_crash`` /
        ``worker_hang`` / ``worker_slow`` specs at dispatch (a spec's
        ``block`` filter selects the task index).
        """
        with self._lock:
            try:
                return self._run_tasks_locked(
                    runner, payloads, workers, config, telemetry, injector,
                    kernel_name,
                )
            except (OSError, ValueError, TypeError, pickle.PicklingError) as exc:
                telemetry.record("pool-error", f"{type(exc).__name__}: {exc}")
                telemetry.degraded = "sequential"
                return None

    def _run_tasks_locked(self, runner, payloads, workers, config, telemetry,
                          injector, kernel_name) -> Optional[List[Optional[object]]]:
        self._seq += 1
        seq = self._seq
        want = max(min(workers, len(payloads)), 1)
        telemetry.workers = want
        telemetry.chunks = len(payloads)
        self.ensure_workers(want, config, telemetry)
        for worker in sorted(self.alive_workers(), key=lambda w: w.wid)[:want]:
            worker.run_seq = seq
            worker.task = None

        pending = collections.deque(_Task(index=i) for i in range(len(payloads)))
        results: Dict[int, object] = {}
        done = 0
        respawns_left = (
            config.max_respawns if config.max_respawns is not None else want * 2
        )
        rng = random.Random(config.seed)
        chunk_timeout = config.chunk_timeout
        failed: Optional[str] = None

        def usable() -> List[_Worker]:
            return [
                w for w in self._workers.values()
                if w.alive and w.run_seq == seq
            ]

        def retry_or_drop(task: _Task) -> None:
            """Per-task failure: exhausted retries disqualify one task only."""
            nonlocal done
            if task.attempt >= config.max_retries:
                detail = (
                    f"task {task.index} failed {task.attempt + 1} times "
                    f"(max_retries={config.max_retries})"
                )
                telemetry.record("retries-exhausted", detail, chunk=task.index)
                results[task.index] = None
                done += 1
                return
            delay = jittered_backoff(
                task.attempt, rng, config.backoff_base, config.backoff_cap
            )
            telemetry.retries += 1
            telemetry.record(
                "retry",
                f"task {task.index} attempt {task.attempt + 1} "
                f"after {delay * 1e3:.0f}ms backoff",
                chunk=task.index,
            )
            time.sleep(delay)
            pending.appendleft(_Task(index=task.index, attempt=task.attempt + 1))

        def replace_worker() -> None:
            nonlocal respawns_left
            if respawns_left > 0:
                respawns_left -= 1
                telemetry.respawns += 1
                replacement = self._spawn(config, telemetry)
                replacement.run_seq = seq
            elif usable():
                if telemetry.degraded != "reduced":
                    telemetry.degraded = "reduced"
                    telemetry.record(
                        "degrade-reduced",
                        f"respawn budget exhausted; continuing on "
                        f"{len(usable())} worker(s)",
                    )

        def handle_death(worker: _Worker, reason: str) -> None:
            telemetry.worker_crashes += 1
            telemetry.record(
                "worker-crash",
                f"worker {worker.wid} {reason} (exitcode "
                f"{worker.proc.exitcode})",
                worker=worker.pid,
                chunk=worker.task.index if worker.task else None,
            )
            task = worker.task
            self._discard(worker)
            replace_worker()
            if task is not None:
                retry_or_drop(task)

        def reap_deaths() -> None:
            # Must scan the full worker map: a dead worker fails the
            # ``alive`` filter of usable(), so scanning usable() would
            # leak its in-flight task and spin forever.
            for worker in [
                w for w in list(self._workers.values())
                if w.run_seq == seq and not w.alive
            ]:
                handle_death(worker, "died")

        while failed is None and done < len(payloads):
            reap_deaths()
            workers_now = usable()
            if not workers_now:
                if respawns_left > 0:
                    replace_worker()
                    continue
                failed = "no live workers remain"
                telemetry.record("no-workers", failed)
                break
            for worker in sorted(workers_now, key=lambda w: w.wid):
                if not pending:
                    break
                if worker.task is not None:
                    continue
                task = pending.popleft()
                directive = None
                if injector is not None:
                    directive = injector.poll_worker_fault(
                        kernel_name, task.index, worker_pid=worker.pid
                    )
                    if directive is not None:
                        telemetry.record(
                            "inject-" + directive[0],
                            f"task {task.index} on worker {worker.wid}",
                            worker=worker.pid,
                            chunk=task.index,
                        )
                deadline = time.monotonic() + chunk_timeout
                if directive is not None and directive[0] == "worker_slow":
                    deadline += directive[1]
                worker.task = task
                worker.deadline = deadline
                telemetry.attempts += 1
                worker.conn.send(
                    ("task", seq, task.index, runner, payloads[task.index],
                     directive)
                )

            busy = [w for w in usable() if w.task is not None]
            if not busy:
                continue  # dispatch again (e.g. after a drop or respawn)
            now = time.monotonic()
            timeout = max(min(w.deadline for w in busy) - now, 0.0)
            waitables = [w.conn for w in usable()] + [
                w.proc.sentinel for w in usable()
            ]
            connection.wait(waitables, timeout=min(timeout + 0.01, 1.0))

            for worker in list(usable()):
                while True:
                    try:
                        if not worker.conn.poll():
                            break
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        break  # death handled below via the sentinel
                    kind = msg[0]
                    if kind == "ready":
                        continue
                    if msg[1] != worker.wid or msg[2] != seq:
                        continue  # stale message from an aborted run
                    if kind == "start":
                        continue
                    if kind == "done":
                        _, _, _, index, payload = msg
                        if index not in results:
                            results[index] = payload
                            done += 1
                        worker.tasks_done += 1
                        worker.task = None

            reap_deaths()

            now = time.monotonic()
            for worker in list(usable()):
                if worker.task is not None and now > worker.deadline:
                    task = worker.task
                    telemetry.deadline_kills += 1
                    telemetry.record(
                        "deadline-kill",
                        f"task {task.index} exceeded {chunk_timeout:.3g}s on "
                        f"worker {worker.wid}; SIGKILL",
                        worker=worker.pid,
                        chunk=task.index,
                    )
                    self._kill(worker)
                    replace_worker()
                    retry_or_drop(task)

        if failed is not None:
            for worker in list(usable()):
                if worker.task is not None:
                    telemetry.record(
                        "abort-kill",
                        f"worker {worker.wid} still busy at abort",
                        worker=worker.pid,
                        chunk=worker.task.index,
                    )
                    self._kill(worker)
            telemetry.degraded = "sequential"
            telemetry.record("degrade-sequential", failed)
            return None

        return [results.get(i) for i in range(len(payloads))]


_POOL: Optional[WorkerPool] = None
_POOL_PID: Optional[int] = None


def get_pool() -> WorkerPool:
    """The process-wide persistent pool (created on first use).

    Re-created after a fork: a child process must not adopt its parent's
    worker pipes.
    """
    global _POOL, _POOL_PID
    if _POOL is None or _POOL_PID != os.getpid():
        _POOL = WorkerPool()
        _POOL_PID = os.getpid()
    return _POOL


def shutdown_pool() -> None:
    """Tear down the process-wide pool (tests; atexit)."""
    global _POOL
    if _POOL is not None and _POOL_PID == os.getpid():
        _POOL.shutdown()
    _POOL = None


def drain_pool(timeout: Optional[float] = None) -> bool:
    """Gracefully drain the process-wide pool (server shutdown path).

    True when there was no pool to drain or every worker exited cleanly
    within ``timeout``; see :meth:`WorkerPool.drain`.
    """
    global _POOL
    if _POOL is None or _POOL_PID != os.getpid():
        _POOL = None
        return True
    clean = _POOL.drain(timeout)
    _POOL = None
    return clean


atexit.register(shutdown_pool)
