"""Resident worker processes with hard per-task timeouts.

``multiprocessing.Pool``/``ProcessPoolExecutor`` cannot cancel a running
task — exactly the failure mode that matters for LP solves (a degenerate
model can spin for minutes).  A :class:`WorkerPool` forks its workers
once and ships them chunks of tasks over duplex pipes; a task that
overruns its timeout gets its worker killed (SIGKILL) and replaced, so
the CPU is actually reclaimed.  Batches run on top of it through
:func:`repro.perf.run_many`.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence


class TaskError(RuntimeError):
    """A pooled task failed (worker exception, crash, or timeout)."""


#: Worker crashes in a row after which a pool raises
#: :class:`PoolCrashLoopError` instead of refilling seats forever.
MAX_CONSECUTIVE_CRASHES = 5


class PoolCrashLoopError(TaskError):
    """Workers crashed :data:`MAX_CONSECUTIVE_CRASHES` times in a row.

    A poison task (or a sick machine — OOM killer, bad native lib) that
    kills every worker it touches would otherwise respawn processes
    forever.  The pool stays usable after this raise — the crashed seat
    was already refilled — but the caller is told to stop feeding it the
    same work.  The message names the last failing task.
    """


@dataclass(frozen=True)
class TaskOutcome:
    """Result record for one pooled task, in submission order.

    Failure modes are distinguished: ``timed_out`` means the parent
    killed an overdue worker; ``crashed`` means the worker died *on its
    own* without delivering a payload (OOM kill, interpreter abort,
    ``os._exit``) — its pipe came back EOF.  A worker exception that was
    reported normally is neither.
    """

    index: int
    ok: bool
    value: Any = None
    error: str | None = None
    timed_out: bool = False
    crashed: bool = False
    elapsed: float = 0.0

    def unwrap(self):
        """Return the value, or raise :class:`TaskError` on failure."""
        if self.ok:
            return self.value
        kind = (
            "timed out" if self.timed_out
            else "crashed" if self.crashed
            else "failed"
        )
        raise TaskError(f"task {self.index} {kind}: {self.error}")


@dataclass(frozen=True)
class ChunkResult:
    """Result of :meth:`WorkerPool.submit_chunk`.

    ``outcomes[i]`` is the :class:`TaskOutcome` for chunk item ``i``, or
    ``None`` for a *survivor*: an item the worker never got to because an
    earlier item in the chunk timed out or crashed the worker.  The kill
    is scoped to the offending item only — ``pending`` names the
    survivors so the caller can resubmit exactly those, not the whole
    chunk.
    """

    outcomes: tuple
    pending: tuple[int, ...]

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o is not None)


def _args_preview(args: tuple, limit: int = 120) -> str:
    """Truncated repr of a task's arguments for error messages."""
    text = repr(args)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _pool_context(start_method: str | None):
    if start_method is not None:
        return mp.get_context(start_method)
    # fork keeps worker startup cheap; fall back where it doesn't exist.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _run_chunk(conn, fn, args_list) -> bool:
    """Run a chunk on a resident worker, in order, sending one
    ``(ok, value_or_error, elapsed)`` reply per item the moment it
    finishes.  Returns False when the parent pipe died (the worker
    should exit)."""
    for args in args_list:
        t0 = time.perf_counter()
        try:
            reply = (True, fn(*args), time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 — boundary to the parent
            reply = (
                False,
                f"{type(exc).__name__}: {exc}\n"
                f"{traceback.format_exc(limit=5)}",
                time.perf_counter() - t0,
            )
        try:
            conn.send(reply)
        except Exception:  # noqa: BLE001 — parent may already be gone
            return False
    return True


def _worker_loop(conn) -> None:
    """Loop of one resident :class:`WorkerPool` worker: receive a
    ``(fn, args_list)`` chunk, run it, stream the replies — until a
    ``None`` sentinel, EOF, or parent death.

    The explicit parent check matters: sibling workers forked later
    inherit this worker's parent-side pipe end, so if the parent is
    SIGKILLed the pipe never EOFs (the siblings still hold it open) and
    a recv-only loop would orphan every worker forever.
    """
    parent = os.getppid()
    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent:
                    return  # re-parented: the pool's process is gone
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None or not _run_chunk(conn, *msg):
            break
    try:
        conn.close()
    except OSError:
        pass


class _ResidentWorker:
    """One seat of the pool.  A replacement process takes over the same
    seat object (:meth:`start` again), so a caller holding the seat
    never ends up with a stale handle."""

    __slots__ = ("proc", "conn", "tasks_done")

    def __init__(self, ctx):
        self.start(ctx)

    def start(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_loop, args=(child_conn,), daemon=True
        )
        self.proc.start()
        child_conn.close()
        #: Tasks this process has been handed — drives the pool_reuse
        #: counter (a replacement starts back at 0, cold).
        self.tasks_done = 0

    def stop(self, kill: bool = False) -> None:
        if kill:
            self.proc.kill()
        else:
            try:
                self.conn.send(None)
            except (OSError, ValueError):
                pass
        self.proc.join()
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerPool:
    """Resident worker processes, reused across many submissions.

    Forking a process per task is wasteful for batch tables and for a
    long-running service answering a stream of small requests alike.  A
    ``WorkerPool`` keeps ``jobs`` workers alive and ships chunks of
    ``(fn, args)`` tasks over their pipes instead.  The hard-kill
    guarantees hold: a task that exceeds ``timeout`` gets its worker
    killed (and replaced), and a worker that dies mid-task surfaces as a
    ``crashed`` outcome with a fresh worker taking its seat — the pool
    itself never becomes poisoned.

    Thread-safe: concurrent :meth:`submit_chunk` calls check out
    distinct workers (blocking while all are busy), which is what lets
    an asyncio server fan requests out from executor threads and
    :func:`~repro.perf.run_many` drive one dispatch thread per worker.
    ``fn`` and its arguments must be picklable even under the fork
    start method — resident workers are forked once, so tasks always
    travel by pipe.
    """

    def __init__(self, jobs: int = 2, start_method: str | None = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        import threading

        self._ctx = _pool_context(start_method)
        self._jobs = jobs
        self._idle: list[_ResidentWorker] = [
            _ResidentWorker(self._ctx) for _ in range(jobs)
        ]
        self._workers: set[_ResidentWorker] = set(self._idle)
        self._free = threading.Semaphore(jobs)
        self._lock = threading.Lock()
        self._closed = False
        self._consecutive_crashes = 0
        self.tasks_run = 0
        self.workers_replaced = 0
        #: Tasks served by a worker that had already run at least one —
        #: the fork-once payoff.  ``tasks_run - pool_reuse`` is the number
        #: of cold (first-task) dispatches, at most ``jobs`` plus one per
        #: replacement.
        self.pool_reuse = 0

    @property
    def jobs(self) -> int:
        return self._jobs

    def stats(self) -> dict:
        """Counters snapshot: ``jobs``, ``tasks_run``, ``pool_reuse``,
        ``workers_replaced``."""
        with self._lock:
            return {
                "jobs": self._jobs,
                "tasks_run": self.tasks_run,
                "pool_reuse": self.pool_reuse,
                "workers_replaced": self.workers_replaced,
            }

    def submit(
        self, fn: Callable, args: tuple = (), *, timeout: float | None = None
    ) -> TaskOutcome:
        """Run one task on a resident worker; block until it finishes.

        A one-item :meth:`submit_chunk`: returns its :class:`TaskOutcome`
        (index 0), with the same timeout, crash and crash-loop handling.
        """
        return self.submit_chunk(fn, [args], timeout=timeout).outcomes[0]

    def submit_chunk(
        self,
        fn: Callable,
        args_list: Sequence[tuple],
        *,
        timeout: float | None = None,
        on_item: Callable | None = None,
    ) -> ChunkResult:
        """Run a chunk of tasks on *one* resident worker with one IPC send.

        The worker runs the items in order and streams one reply per
        item; ``on_item(outcome)`` (when given) fires from the calling
        thread the moment an item's reply arrives (``outcome.index`` is
        the chunk position) — this is what lets a batch driver journal
        every completion without waiting for the chunk, let alone the
        batch.  If ``on_item`` raises, the worker (whose pipe still holds
        replies nobody will read) is killed and replaced before the
        exception propagates, so the seat is never lost.

        ``timeout`` is **per item**, measured from the previous item's
        reply.  When it expires, only the item the worker is currently
        running is marked ``timed_out`` (the worker is killed and its
        seat refilled); items that already finished keep their outcomes
        and the not-yet-started survivors come back as ``None`` with
        their indices in :attr:`ChunkResult.pending`, so the caller
        resubmits exactly those — not the whole chunk.  A worker crash
        mid-chunk is scoped the same way.

        :data:`MAX_CONSECUTIVE_CRASHES` crashes in a row (timeouts and
        reported exceptions don't count; any other outcome resets the
        streak) raise :class:`PoolCrashLoopError` *after* refilling the
        seat, so the pool survives its own circuit-break.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        args_list = list(args_list)
        if not args_list:
            return ChunkResult((), ())
        self._free.acquire()
        try:
            with self._lock:
                worker = self._idle.pop()
            reused = worker.tasks_done > 0
            try:
                outcomes, offender = self._run_chunk_on(
                    worker, fn, args_list, timeout, on_item
                )
            except BaseException:  # noqa: BLE001 — e.g. on_item raised
                # mid-chunk: the pipe may still hold replies nobody will
                # read, so the worker is retired (its seat refilled)
                # before re-raising.
                self._replace(worker, kill=True)
                raise
            finally:
                with self._lock:
                    self._idle.append(worker)
            result = ChunkResult(
                tuple(outcomes),
                tuple(i for i, o in enumerate(outcomes) if o is None),
            )
            completed = result.completed
            crashed = offender is not None and outcomes[offender].crashed
            with self._lock:
                self.tasks_run += completed
                self.pool_reuse += max(0, completed - (0 if reused else 1))
                if crashed:
                    self._consecutive_crashes += 1
                else:
                    self._consecutive_crashes = 0
                streak = self._consecutive_crashes
        finally:
            self._free.release()
        if offender is not None and on_item is not None:
            on_item(outcomes[offender])
        if crashed and streak >= MAX_CONSECUTIVE_CRASHES:
            fn_name = getattr(fn, "__name__", repr(fn))
            raise PoolCrashLoopError(
                f"workers crashed {streak} times in a row "
                f"(cap {MAX_CONSECUTIVE_CRASHES}); last task: "
                f"{fn_name}{_args_preview(args_list[offender])} — "
                f"{outcomes[offender].error}"
            )
        return result

    def _run_chunk_on(self, worker, fn, args_list, timeout, on_item):
        """Stream one chunk through ``worker``.

        Returns ``(outcomes, offender)``: ``None`` outcomes for survivors
        the worker never started, and the index of the item that timed
        out, crashed the worker or sent an undecodable reply (its seat
        already refilled), or ``None``.  ``on_item`` fires here for the
        items the worker reported; the offender's callback is left to
        the caller, which fires it once the seat is back in the pool.
        """
        n = len(args_list)
        outcomes: list[TaskOutcome | None] = [None] * n
        try:
            worker.conn.send((fn, args_list))
        except (OSError, ValueError):
            # The worker died while idle; replace it and retry once.
            self._replace(worker)
            worker.conn.send((fn, args_list))
        worker.tasks_done += n  # dispatch-time accounting
        for i in range(n):
            started = time.perf_counter()
            if not worker.conn.poll(timeout):
                # The worker is stuck on item i (items run in order);
                # kill it and leave the rest pending.
                self._replace(worker, kill=True)
                outcomes[i] = TaskOutcome(
                    i, False, timed_out=True, elapsed=timeout,
                    error=f"exceeded {timeout:g}s wall clock (worker "
                          f"killed; {n - i - 1} chunk survivor(s) left "
                          f"pending)",
                )
                return outcomes, i
            try:
                ok, payload, elapsed = worker.conn.recv()
            except (EOFError, OSError):
                # Died without a reply (OOM kill, abort, os._exit): join
                # first so exitcode is populated for the message.
                worker.proc.join()
                outcomes[i] = TaskOutcome(
                    i, False, crashed=True,
                    elapsed=time.perf_counter() - started,
                    error=f"worker died without a result (exit code "
                          f"{worker.proc.exitcode}; {n - i - 1} chunk "
                          f"survivor(s) left pending)",
                )
                self._replace(worker)
                return outcomes, i
            except Exception as exc:  # noqa: BLE001 — undecodable payload:
                # the pipe's framing can no longer be trusted, so the
                # worker is retired and the survivors left pending.
                self._replace(worker, kill=True)
                outcomes[i] = TaskOutcome(
                    i, False,
                    elapsed=time.perf_counter() - started,
                    error=f"undecodable worker payload: "
                          f"{type(exc).__name__}: {exc}",
                )
                return outcomes, i
            if ok:
                outcomes[i] = TaskOutcome(i, True, payload, elapsed=elapsed)
            else:
                outcomes[i] = TaskOutcome(
                    i, False, error=payload, elapsed=elapsed
                )
            if on_item is not None:
                on_item(outcomes[i])
        return outcomes, None

    def _replace(self, worker: _ResidentWorker, kill: bool = False) -> None:
        """Stop ``worker``'s process and start a fresh one in its seat."""
        worker.stop(kill=kill)
        worker.start(self._ctx)
        with self._lock:
            self.workers_replaced += 1

    def worker_processes(self) -> list:
        """Live worker :class:`multiprocessing.Process` handles (busy and
        idle) — the chaos harness kills these to exercise crash paths."""
        with self._lock:
            return [w.proc for w in self._workers]

    def close(self) -> None:
        """Stop every worker (idle ones get the sentinel, gracefully)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers, self._idle = self._idle, []
            self._workers.difference_update(workers)
        for w in workers:
            w.stop()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
