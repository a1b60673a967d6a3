"""Batch LUBT solving on top of :func:`repro.perf.run_many`.

A :class:`SolveTask` is one independent ``solve_lubt`` call (topology,
bounds, keyword options); :func:`solve_many` fans a list of them across
resident worker processes, and :func:`solve_sweep_sharded` runs a
warm-started bound sweep as contiguous shards.  Tasks travel to workers
by pipe, so topologies and bounds must stay picklable — both are plain
dataclass-style containers and are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.perf.journal import (
    SolveJournal,
    solution_from_record,
    solution_to_record,
)
from repro.perf.pool import TaskOutcome, WorkerPool
from repro.perf.scheduler import run_many


@dataclass(frozen=True)
class SolveTask:
    """One independent LUBT instance: ``solve_lubt(topo, bounds, **options)``."""

    topo: Any
    bounds: Any
    options: Mapping[str, Any] = field(default_factory=dict)


def _solve_task(task: SolveTask):
    from repro.ebf import solve_lubt

    return solve_lubt(task.topo, task.bounds, **dict(task.options))


def _task_key(topo: Any, bounds: Any, options: Mapping[str, Any]) -> str:
    # Imported here: repro.server already imports repro.perf.
    from repro.server.keys import instance_key

    return instance_key(topo, bounds, dict(options))


def _replay_journal(
    journal: SolveJournal | None,
    instances: Sequence[tuple[Any, Any, Mapping[str, Any]]],
) -> tuple[dict[int, Any], list[int], Callable[[int, Any], None]]:
    """Split ``(topo, bounds, options)`` instances into journal replays
    and fresh work.

    Returns ``(replayed, fresh, record)``: ``replayed`` maps an index to
    the solution rebuilt from its journal record (each one counted in
    ``journal.replayed``), ``fresh`` lists the other indices in order,
    and ``record(i, solution)`` durably appends a fresh success the
    moment it lands, once per key.  Without a journal every instance is
    fresh and ``record`` does nothing.
    """
    if journal is None:
        return {}, list(range(len(instances))), lambda i, sol: None
    keys = [_task_key(*inst) for inst in instances]
    done = journal.load()
    replayed: dict[int, Any] = {}
    fresh: list[int] = []
    for i, (topo, bounds, _) in enumerate(instances):
        rec = done.get(keys[i])
        if rec is None:
            fresh.append(i)
        else:
            replayed[i] = solution_from_record(rec, topo, bounds)
            journal.replayed += 1

    def record(i: int, sol: Any) -> None:
        if keys[i] not in done:
            rec = solution_to_record(sol)
            journal.append(keys[i], rec)
            done[keys[i]] = rec

    return replayed, fresh, record


def solve_many(
    tasks: Sequence[SolveTask],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    journal: SolveJournal | None = None,
    pool: WorkerPool | None = None,
    on_result: Any = None,
) -> list[TaskOutcome]:
    """Solve every task; outcomes come back in task order.

    ``outcome.value`` is the :class:`~repro.ebf.LubtSolution` on success;
    ``outcome.unwrap()`` raises :class:`~repro.perf.TaskError` on worker
    failure or timeout.  ``jobs``/``timeout``/``pool`` go straight to
    :func:`~repro.perf.run_many`: ``jobs=1`` with no timeout (and no
    ``pool``) runs inline and is bit-for-bit identical to a serial loop
    of ``solve_lubt`` calls; otherwise the batch runs chunked on a
    resident pool (pass ``pool=`` to reuse one across batches — e.g. a
    whole CTS run), and a per-task ``timeout`` kills only the offending
    task's worker.

    ``on_result(outcome)`` — when given — fires once per task in
    completion order (journal replays first, then live completions as
    they land); ``outcome.index`` is the task's position in ``tasks``.

    With a ``journal`` (:class:`~repro.perf.SolveJournal`), tasks whose
    canonical instance key already has a journal record are *replayed*
    instead of re-solved, and every fresh success is durably appended
    (flush + fsync) **the moment it completes** — no wave barrier, so a
    straggler cannot hold completed solves out of the journal, and a run
    killed mid-batch resumes from its last completed *solve*.
    Failed/timed-out tasks are never journaled; a resume retries them.
    """
    tasks = list(tasks)
    replayed, fresh, record = _replay_journal(
        journal, [(t.topo, t.bounds, t.options) for t in tasks]
    )
    results: list[TaskOutcome | None] = [None] * len(tasks)
    for i, sol in replayed.items():
        results[i] = TaskOutcome(i, True, sol)
        if on_result is not None:
            on_result(results[i])

    def _completed(o: TaskOutcome) -> None:
        i = fresh[o.index]
        out = TaskOutcome(
            i, o.ok, o.value, o.error, o.timed_out, o.crashed, o.elapsed
        )
        results[i] = out
        if o.ok:
            record(i, o.value)
        if on_result is not None:
            on_result(out)

    run_many(
        _solve_task,
        [(tasks[i],) for i in fresh],
        jobs=jobs,
        timeout=timeout,
        pool=pool,
        on_result=_completed,
    )
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def sweep_chunks(count: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``range(count)`` into ``chunks`` contiguous near-equal
    ``(start, stop)`` slices (empty slices dropped).

    Contiguity matters: a warm-started sweep shard works best when its
    points are neighbors in the sweep, because adjacent bound sets share
    almost all of their active Steiner rows.
    """
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    chunks = min(chunks, max(1, count))
    base, extra = divmod(count, chunks)
    out: list[tuple[int, int]] = []
    start = 0
    for c in range(chunks):
        stop = start + base + (1 if c < extra else 0)
        if stop > start:
            out.append((start, stop))
        start = stop
    return out


def _solve_sweep_chunk(topo, bounds_chunk, options):
    from repro.ebf.sweep import solve_sweep

    return solve_sweep(topo, bounds_chunk, **dict(options))


def solve_sweep_sharded(
    topo: Any,
    bounds_list: Sequence[Any],
    *,
    jobs: int = 1,
    timeout: float | None = None,
    journal: SolveJournal | None = None,
    **options: Any,
) -> list[Any]:
    """Warm-started sweep over one topology, sharded across processes.

    Unlike :func:`solve_many` — which ships every point to whichever
    worker is free — this splits the sweep into ``jobs`` *contiguous*
    shards and runs each shard as one :func:`~repro.perf.run_many` task
    through :func:`repro.ebf.solve_sweep` inside one worker, so the
    :class:`~repro.ebf.WarmStart` state stays process-local and every
    point after a shard's first still gets the warm seeding.  Extra
    keywords (``warm=``, ``backend=``, ...) pass through to
    :func:`~repro.ebf.solve_sweep`.

    Returns the :class:`~repro.ebf.LubtSolution` list in sweep order.
    ``jobs=1`` with no timeout runs inline — identical to calling
    ``solve_sweep`` directly, exceptions included; a parallel sweep
    raises :class:`~repro.perf.TaskError` for its first failed shard.
    Raw edge vectors (and costs, at the last ulp) can depend on the
    sharding because warm seeding selects among degenerate LP optima;
    report costs through :func:`repro.ebf.canonical_cost` for
    sharding-invariant output.

    With a ``journal``, points whose canonical instance key is already
    recorded are replayed; only the missing points are swept (as
    contiguous shards of their own), and each shard's records are
    fsync'd the moment that shard finishes — a failed or killed shard
    never holds back the others.  Resumed sweeps therefore re-shard the
    *remaining* points — same caveat as above: sharding-invariant at the
    :func:`repro.ebf.canonical_cost` level, where every experiment
    table reports.
    """
    bounds_list = list(bounds_list)
    replayed, missing, record = _replay_journal(
        journal, [(topo, b, options) for b in bounds_list]
    )
    results: list[Any] = [replayed.get(i) for i in range(len(bounds_list))]

    spans = sweep_chunks(len(missing), max(1, jobs))
    shards = [missing[a:b] for a, b in spans]
    shard_args = [
        (topo, [bounds_list[i] for i in shard], options) for shard in shards
    ]

    def _commit(k: int, sols: list[Any]) -> None:
        for i, sol in zip(shards[k], sols):
            results[i] = sol
            record(i, sol)

    def _shard_done(o: TaskOutcome) -> None:
        if o.ok:
            _commit(o.index, o.value)

    if jobs == 1 and timeout is None:
        # Inline, as run_many would run it, but a failing point raises
        # its own exception, exactly like solve_sweep.
        for k, args in enumerate(shard_args):
            _commit(k, _solve_sweep_chunk(*args))
    else:
        outcomes = run_many(
            _solve_sweep_chunk,
            shard_args,
            jobs=jobs,
            timeout=timeout,
            on_result=_shard_done,
        )
        for o in outcomes:
            o.unwrap()
    assert all(r is not None for r in results)
    return results
