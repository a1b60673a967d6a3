"""The repo's one batch executor: :func:`run_many` over a resident pool.

Every batch of independent tasks — experiment tables, bound-sweep
shards, journaled solve batches, chip-scale CTS runs — goes through
:func:`run_many`.  Serially (``jobs=1``, no timeout, no pool) it is a
plain loop in the calling process; otherwise it dispatches the batch on
a resident :class:`~repro.perf.WorkerPool` (the caller's, or one forked
for the call):

* **fork once** — tasks run on a resident pool's workers, shipped over
  already-open pipes instead of fresh processes;
* **chunked dispatch** — many tasks per IPC message, with the chunk size
  tuned from an EWMA of the batch's observed per-task seconds so each
  chunk targets a fixed wall-clock slice (big chunks for
  sub-millisecond tasks, chunk size 1 for slow ones);
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
from functools import partial
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


def _run_pooled(
    fn: Callable,
    args_list: list[tuple],
    pool: WorkerPool,
    timeout: float | None,
    on_result: Callable[[TaskOutcome], Any] | None,
) -> list[TaskOutcome]:
    """Run ``fn(*args)`` for every tuple on ``pool``'s workers, one
    dispatch thread per worker; return ordered outcomes.

    Each thread takes the next chunk off one shared queue.  A chunk
    holds :data:`DEFAULT_CHUNK_SECONDS` divided by an EWMA of observed
    per-task seconds, clamped to ``[1, DEFAULT_MAX_CHUNK]`` (size 1
    until the first task completes), and shrinks to ``remaining //
    jobs`` near the tail so the last tasks spread across all workers.
    ``on_result`` fires per task in completion order, under one lock.
    The survivors of a timeout kill go back to the front of the queue.
    """
    n = len(args_list)
    if n == 0:
        return []
    results: list[TaskOutcome | None] = [None] * n
    work: deque[int] = deque(range(n))
    # Guards the queue, the EWMA and the failure slot; callbacks take
    # their own lock so a slow one never holds up the next dispatch.
    state_lock = threading.Lock()
    callback_lock = threading.Lock()
    ewma: float | None = None
    failure: list[BaseException] = []

    def _record(indices: list[int], outcome: TaskOutcome) -> None:
        nonlocal ewma
        i = indices[outcome.index]
        final = TaskOutcome(i, outcome.ok, outcome.value, outcome.error,
                            outcome.timed_out, outcome.crashed,
                            outcome.elapsed)
        with state_lock:
            ewma = outcome.elapsed if ewma is None else (
                _EWMA_ALPHA * outcome.elapsed + (1.0 - _EWMA_ALPHA) * ewma
            )
        with callback_lock:
            results[i] = final
            if on_result is not None:
                on_result(final)

    def _next_chunk() -> list[int]:
        with state_lock:
            if not work or failure:
                return []
            size = 1 if ewma is None else max(1, min(
                DEFAULT_MAX_CHUNK,
                int(DEFAULT_CHUNK_SECONDS / max(ewma, 1e-9)),
            ))
            size = min(size, max(1, len(work) // pool.jobs))
            return [work.popleft() for _ in range(size)]

    def _dispatch_loop() -> None:
        while True:
            indices = _next_chunk()
            if not indices:
                return
            try:
                chunk = pool.submit_chunk(
                    fn,
                    [args_list[i] for i in indices],
                    timeout=timeout,
                    on_item=partial(_record, indices),
                )
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                with state_lock:
                    failure.append(exc)
                return
            if chunk.pending:
                survivors = [indices[p] for p in chunk.pending]
                with state_lock:
                    # Front of the queue: survivors keep their place.
                    work.extendleft(reversed(survivors))

    threads = [
        threading.Thread(target=_dispatch_loop, daemon=True)
        for _ in range(min(pool.jobs, n))
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
    tables comparable byte for byte.  Otherwise the batch is dispatched
    in chunks on ``pool`` (whose size then sets the parallelism), or on
    a ``WorkerPool(min(jobs, len(args_list)))`` forked for the call and
    closed before returning.  ``fn`` and its arguments then travel by
    pipe, so they must be picklable.

    ``timeout`` is a hard per-task wall-clock limit: an overdue task's
    worker is killed and its outcome marked ``timed_out``.
    ``on_result(outcome)`` fires once per task in completion order
    (``outcome.index`` is the task's position in ``args_list``); on a
    pool it runs on the dispatch threads, one call at a time, so it may
    touch shared state without a lock of its own but should stay quick.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    args_list = list(args_list)
    if pool is not None:
        return _run_pooled(fn, args_list, pool, timeout, on_result)
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
        return _run_pooled(fn, args_list, own, timeout, on_result)


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
