"""Performance layer: batch solving on resident worker processes.

The experiment tables, bound sweeps and chip-scale CTS runs each solve
many independent LUBT instances; this package runs them across worker
*processes* (``--jobs N`` on the CLI) through one executor.  A timed-out
worker is **killed**, not abandoned — a pathological LP cannot leave a
runaway solve burning CPU.  These kills are the only hard time bound on
a solve: :mod:`repro.resilience` runs its cascade inline, with no clock.

* :func:`run_many` — the one batch executor: ordered fan-out of a
  picklable function over argument tuples, inline when serial, else
  chunked over a resident pool (chunk sizes tuned from an EWMA of the
  batch's per-task seconds) with per-task kill-on-timeout and
  completion-ordered ``on_result`` streaming; :func:`map_many` is its
  unwrapped form;
* :func:`solve_many` — batch :func:`repro.ebf.solve_lubt` over
  :class:`SolveTask` instances;
* :func:`solve_sweep_sharded` — warm-started bound sweep chunked into
  contiguous shards, one :class:`~repro.ebf.WarmStart` per worker;
* :class:`WorkerPool` — *resident* workers reused across submissions
  (the :mod:`repro.server` dispatch path and every parallel batch),
  plus a consecutive-crash cap (:class:`PoolCrashLoopError`) so a
  poison task cannot respawn workers forever;
* :class:`SolveJournal` — crash-safe JSONL checkpoint of completed
  solves keyed by canonical instance key; ``solve_many`` /
  ``solve_sweep_sharded`` take ``journal=`` to resume a killed batch;
* :func:`run_cts` — chip-scale multi-net clock-tree flow: a placement's
  clock nets solved as one batch;
* :class:`TaskOutcome` — per-task result/error/timeout/crash record.

Serial (``jobs=1``, no timeout) execution runs inline in the parent
process and is bit-for-bit identical to calling the function in a loop;
parallel runs execute the same code in workers, so tables rendered from
either path match exactly.
"""

from repro.perf.pool import (
    ChunkResult,
    PoolCrashLoopError,
    TaskError,
    TaskOutcome,
    WorkerPool,
)
from repro.perf.scheduler import (
    DEFAULT_CHUNK_SECONDS,
    DEFAULT_MAX_CHUNK,
    map_many,
    run_many,
)
from repro.perf.journal import (
    JournalError,
    SolveJournal,
    solution_from_record,
    solution_to_record,
)
from repro.perf.batch import (
    SolveTask,
    solve_many,
    solve_sweep_sharded,
    sweep_chunks,
)
from repro.perf.cts import (
    CtsNetResult,
    CtsReport,
    cts_tasks,
    run_cts,
)

__all__ = [
    "ChunkResult",
    "CtsNetResult",
    "CtsReport",
    "cts_tasks",
    "run_cts",
    "DEFAULT_CHUNK_SECONDS",
    "DEFAULT_MAX_CHUNK",
    "JournalError",
    "PoolCrashLoopError",
    "SolveJournal",
    "TaskError",
    "TaskOutcome",
    "WorkerPool",
    "map_many",
    "run_many",
    "SolveTask",
    "solution_from_record",
    "solution_to_record",
    "solve_many",
    "solve_sweep_sharded",
    "sweep_chunks",
]
