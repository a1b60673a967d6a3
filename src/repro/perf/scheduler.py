"""The repo's one batch executor: :func:`run_many` over a resident pool.

Every batch of independent tasks — experiment tables, bound-sweep
shards, journaled solve batches, chip-scale CTS runs — goes through
:func:`run_many`.  Serially (``jobs=1``, no timeout, no pool) it is a
plain loop in the calling process; otherwise it runs the batch through a
:class:`BatchScheduler` on a resident :class:`~repro.perf.WorkerPool`
(the caller's, or one forked for the call):

* **fork once** — tasks run on a resident pool's workers, shipped over
  already-open pipes instead of fresh processes;
* **chunked dispatch** — many tasks per IPC message, with the chunk size
  auto-tuned from an EWMA of observed per-task seconds so each chunk
  targets a fixed wall-clock slice (big chunks for sub-millisecond
  tasks, chunk size 1 for slow ones);
* **completion-ordered streaming** — an ``on_result`` callback fires for
  every task the moment its reply arrives (workers stream one reply per
  chunk item), so journal appends are per completion and a straggler
  never stalls the other workers' results behind a wave barrier;
* **scoped kills** — a per-task ``timeout`` kills only the offending
  task's worker; the chunk's already-finished items keep their results
  and its not-yet-started survivors are resubmitted automatically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro.perf.pool import TaskOutcome, WorkerPool

#: Wall-clock slice one chunk should occupy.  Small enough that the
#: tail of a batch stays load-balanced across workers, large enough to
#: amortize a pickle/send round-trip over many sub-millisecond tasks.
DEFAULT_CHUNK_SECONDS = 0.25

#: Hard ceiling on tasks per chunk, whatever the EWMA says.
DEFAULT_MAX_CHUNK = 64

#: Weight of the newest per-task time in the EWMA.
_EWMA_ALPHA = 0.25


class BatchScheduler:
    """Run batches of tasks through a resident pool with chunked dispatch.

    One scheduler wraps one :class:`~repro.perf.WorkerPool` and may be
    reused across batches (the EWMA carries over, so a follow-up batch
    of similar tasks starts with a tuned chunk size).  Thread-safety
    matches the pool's: :meth:`run` may be called from any one thread at
    a time.
    """

    def __init__(self, pool: WorkerPool) -> None:
        self.pool = pool
        self._lock = threading.Lock()
        # EWMA of per-task seconds; None until the first completion, so
        # the first chunks are size 1 (probes) rather than a guess.
        self._ewma: float | None = None
        #: Chunks dispatched / tasks completed across this scheduler's
        #: lifetime — ``tasks_done / chunks_dispatched`` is the realized
        #: IPC amortization factor.
        self.chunks_dispatched = 0
        self.tasks_done = 0
        self.resubmitted = 0

    # -- tuning --------------------------------------------------------
    def _observe(self, elapsed: float) -> None:
        with self._lock:
            if self._ewma is None:
                self._ewma = elapsed
            else:
                a = _EWMA_ALPHA
                self._ewma = a * elapsed + (1.0 - a) * self._ewma

    def chunk_size(self) -> int:
        """Current auto-tuned tasks-per-chunk (1 until the EWMA warms up)."""
        with self._lock:
            ewma = self._ewma
        if ewma is None:
            return 1
        return max(1, min(DEFAULT_MAX_CHUNK,
                          int(DEFAULT_CHUNK_SECONDS / max(ewma, 1e-9))))

    def stats(self) -> dict:
        """Scheduler + pool counters (``ewma_task_seconds`` may be None)."""
        with self._lock:
            ewma = self._ewma
            out = {
                "chunks_dispatched": self.chunks_dispatched,
                "tasks_done": self.tasks_done,
                "resubmitted": self.resubmitted,
                "ewma_task_seconds": ewma,
            }
        out.update(self.pool.stats())
        return out

    # -- running -------------------------------------------------------
    def run(
        self,
        fn: Callable,
        args_list: Sequence[tuple],
        *,
        timeout: float | None = None,
        on_result: Callable[[TaskOutcome], Any] | None = None,
    ) -> list[TaskOutcome]:
        """Run ``fn(*args)`` for every tuple; return ordered outcomes.

        ``on_result(outcome)`` is called once per task in **completion
        order** (from scheduler dispatch threads, serialized by an
        internal lock — callbacks may touch shared state without their
        own locking, but should stay quick).  ``outcome.index`` is the
        submission index.  ``timeout`` is per task; a timed-out task's
        worker is killed and the rest of its chunk resubmitted.
        """
        args_list = list(args_list)
        n = len(args_list)
        results: list[TaskOutcome | None] = [None] * n
        if n == 0:
            return []

        work: deque[int] = deque(range(n))
        state_lock = threading.Lock()
        callback_lock = threading.Lock()
        failure: list[BaseException] = []

        def _record(indices: list[int], chunk_pos: int,
                    outcome: TaskOutcome) -> None:
            i = indices[chunk_pos]
            final = TaskOutcome(i, outcome.ok, outcome.value, outcome.error,
                                outcome.timed_out, outcome.crashed,
                                outcome.elapsed)
            with callback_lock:
                results[i] = final
                self._observe(outcome.elapsed)
                with self._lock:
                    self.tasks_done += 1
                if on_result is not None:
                    on_result(final)

        def _next_chunk() -> list[int]:
            with state_lock:
                if not work or failure:
                    return []
                size = self.chunk_size()
                # Near the tail, shrink chunks so the last tasks spread
                # across all workers instead of queueing behind one.
                remaining = len(work)
                size = min(size, max(1, remaining // self.pool.jobs or 1))
                return [work.popleft() for _ in range(min(size, remaining))]

        def _requeue(indices: list[int], pending: Sequence[int]) -> None:
            with state_lock:
                # Front of the queue: survivors keep their place in line.
                for chunk_pos in reversed(pending):
                    work.appendleft(indices[chunk_pos])
                with self._lock:
                    self.resubmitted += len(pending)

        def _dispatch_loop() -> None:
            while True:
                indices = _next_chunk()
                if not indices:
                    return
                try:
                    chunk = self.pool.submit_chunk(
                        fn,
                        [args_list[i] for i in indices],
                        timeout=timeout,
                        on_item=lambda o, ind=indices: _record(
                            ind, o.index, o
                        ),
                    )
                    with self._lock:
                        self.chunks_dispatched += 1
                except BaseException as exc:  # noqa: BLE001 — re-raised by run()
                    with state_lock:
                        failure.append(exc)
                    return
                if chunk.pending:
                    _requeue(indices, chunk.pending)

        jobs = min(self.pool.jobs, n)
        threads = [
            threading.Thread(target=_dispatch_loop, daemon=True)
            for _ in range(jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failure:
            raise failure[0]
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]


def run_many(
    fn: Callable,
    args_list: Sequence[tuple],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    pool: WorkerPool | None = None,
    on_result: Callable[[TaskOutcome], Any] | None = None,
) -> list[TaskOutcome]:
    """Run ``fn(*args)`` for every tuple in ``args_list``; return ordered
    :class:`TaskOutcome` records.

    With ``jobs=1``, no ``timeout`` and no ``pool`` the tasks run inline
    in the calling process (the exact serial path — no pickling, no
    subprocesses), which is what makes serial and parallel experiment
    tables comparable byte for byte.  Otherwise the batch runs through a
    :class:`BatchScheduler` on ``pool`` (whose size then sets the
    parallelism), or on a ``WorkerPool(min(jobs, len(args_list)))``
    forked for the call and closed before returning.  ``fn`` and its
    arguments then travel by pipe, so they must be picklable.

    ``timeout`` is a hard per-task wall-clock limit: an overdue task's
    worker is killed and its outcome marked ``timed_out``.
    ``on_result(outcome)`` fires once per task in completion order
    (``outcome.index`` is the task's position in ``args_list``).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    args_list = list(args_list)
    if pool is not None:
        return BatchScheduler(pool).run(
            fn, args_list, timeout=timeout, on_result=on_result
        )
    if jobs == 1 and timeout is None:
        out = []
        for i, args in enumerate(args_list):
            t0 = time.perf_counter()
            try:
                outcome = TaskOutcome(
                    i, True, fn(*args), elapsed=time.perf_counter() - t0
                )
            except Exception as exc:  # noqa: BLE001 — outcome boundary
                outcome = TaskOutcome(
                    i, False, error=f"{type(exc).__name__}: {exc}",
                    elapsed=time.perf_counter() - t0,
                )
            out.append(outcome)
            if on_result is not None:
                on_result(outcome)
        return out
    if not args_list:
        return []
    with WorkerPool(min(jobs, len(args_list))) as own:
        return BatchScheduler(own).run(
            fn, args_list, timeout=timeout, on_result=on_result
        )


def map_many(
    fn: Callable,
    args_list: Sequence[tuple],
    *,
    jobs: int = 1,
    timeout: float | None = None,
) -> list:
    """:func:`run_many`, unwrapped: a list of plain return values.

    With ``jobs=1`` and no timeout this is literally
    ``[fn(*a) for a in args_list]`` — exceptions propagate with their
    original type, which keeps serial experiment drivers byte-identical
    to their pre-pool behavior.  Parallel runs raise
    :class:`~repro.perf.TaskError` for the first failed task.
    """
    if jobs == 1 and timeout is None:
        return [fn(*args) for args in args_list]
    outcomes = run_many(fn, args_list, jobs=jobs, timeout=timeout)
    return [o.unwrap() for o in outcomes]
