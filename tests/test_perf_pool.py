"""The batch executor and its resident pool: ordering, equivalence,
hard kills, and seat accounting."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.data import load_benchmark
from repro.ebf import DelayBounds
from repro.experiments import render_table3, run_table3
from repro.geometry import manhattan_radius_from
from repro.perf import (
    PoolCrashLoopError,
    SolveTask,
    TaskError,
    WorkerPool,
    map_many,
    run_many,
    solve_many,
)
from repro.topology import nearest_neighbor_topology


def _square(x):
    return x * x


def _fail(x):
    raise ValueError(f"bad input {x}")


def _sleep_forever(_x):
    time.sleep(300)


def _die_without_payload(code):
    # os._exit skips atexit/finally — the parent sees a bare EOF on the
    # pipe, exactly like an OOM kill or interpreter abort.
    os._exit(code)


def _pid(_x=None):
    return os.getpid()


def _crash_or_square(x):
    if x == 1:
        os._exit(1)
    return x * x


class TestRunMany:
    def test_inline_path_matches_loop(self):
        outs = run_many(_square, [(i,) for i in range(6)], jobs=1)
        assert [o.unwrap() for o in outs] == [i * i for i in range(6)]
        assert [o.index for o in outs] == list(range(6))

    def test_parallel_preserves_order(self):
        outs = run_many(_square, [(i,) for i in range(9)], jobs=3)
        assert [o.unwrap() for o in outs] == [i * i for i in range(9)]

    def test_worker_exception_becomes_outcome(self):
        out = run_many(_fail, [(3,)], jobs=2)[0]
        assert not out.ok and not out.timed_out
        assert "bad input 3" in out.error
        with pytest.raises(TaskError):
            out.unwrap()

    def test_timeout_kills_worker(self):
        t0 = time.perf_counter()
        outs = run_many(_sleep_forever, [(0,), (1,)], jobs=2, timeout=0.5)
        wall = time.perf_counter() - t0
        assert all(o.timed_out and not o.ok for o in outs)
        assert all(o.elapsed >= 0.5 for o in outs)
        # Both 300s sleepers were killed, not waited out.
        assert wall < 30.0
        with pytest.raises(TaskError, match="timed out"):
            outs[0].unwrap()

    def test_mixed_fast_and_hung(self):
        outs = run_many(
            time.sleep, [(0.01,), (300,), (0.01,)], jobs=2, timeout=1.0
        )
        assert [o.timed_out for o in outs] == [False, True, False]
        assert outs[0].ok and outs[2].ok

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            run_many(_square, [(1,)], jobs=0)

    def test_worker_crash_is_distinguished_from_timeout(self):
        """A worker that dies without writing a payload (EOF on its
        pipe) must come back ``crashed``, not hang or leak EOFError."""
        outs = run_many(
            _die_without_payload, [(13,)], jobs=2, timeout=30.0
        )
        out = outs[0]
        assert not out.ok
        assert out.crashed and not out.timed_out
        assert "exit code 13" in out.error
        with pytest.raises(TaskError, match="crashed"):
            out.unwrap()

    def test_crash_among_healthy_tasks(self):
        outs = run_many(_crash_or_square, [(0,), (1,), (2,), (3,)], jobs=2)
        assert [o.ok for o in outs] == [True, False, True, True]
        assert outs[1].crashed
        assert [o.value for o in outs if o.ok] == [0, 4, 9]

    def test_map_many_serial_preserves_exception_type(self):
        with pytest.raises(ValueError, match="bad input"):
            map_many(_fail, [(1,)], jobs=1)

    def test_map_many_parallel_raises_task_error(self):
        with pytest.raises(TaskError, match="bad input"):
            map_many(_fail, [(1,), (2,)], jobs=2)

    def test_on_result_fires_once_per_task_on_both_paths(self):
        for jobs in (1, 2):
            seen = []
            outs = run_many(
                _square, [(i,) for i in range(7)], jobs=jobs,
                on_result=lambda o: seen.append((o.index, o.value)),
            )
            assert sorted(seen) == [(o.index, o.value) for o in outs]

    def test_given_pool_is_used_and_left_open(self):
        with WorkerPool(jobs=2) as pool:
            pids = {p.pid for p in pool.worker_processes()}
            outs = run_many(_pid, [(i,) for i in range(6)], pool=pool)
            assert {o.unwrap() for o in outs} <= pids
            # Still serving: run_many does not close a caller's pool.
            assert pool.submit(_square, (3,)).unwrap() == 9
            assert pool.stats()["tasks_run"] == 7


class TestSolveMany:
    @pytest.fixture(scope="class")
    def tasks(self):
        out = []
        for size in (12, 16, 20):
            bench = load_benchmark("prim2").scaled(size)
            sinks = list(bench.sinks)
            topo = nearest_neighbor_topology(sinks, bench.source)
            radius = manhattan_radius_from(bench.source, sinks)
            bounds = DelayBounds.uniform(size, 0.8 * radius, 1.2 * radius)
            out.append(SolveTask(topo, bounds, {"check_bounds": False}))
        return out

    def test_parallel_matches_serial_bitwise(self, tasks):
        serial = [o.unwrap() for o in solve_many(tasks, jobs=1)]
        pooled = [o.unwrap() for o in solve_many(tasks, jobs=2)]
        for s, p in zip(serial, pooled):
            assert s.cost == p.cost
            np.testing.assert_array_equal(s.edge_lengths, p.edge_lengths)
            np.testing.assert_array_equal(s.delays, p.delays)
            assert s.stats.rounds == p.stats.rounds
            assert s.stats.steiner_rows == p.stats.steiner_rows

    def test_infeasible_task_reports_not_crashes(self, tasks):
        bad = SolveTask(
            tasks[0].topo,
            DelayBounds.uniform(12, 0.0, 1e-9),
            {"check_bounds": False},
        )
        outs = solve_many([tasks[0], bad], jobs=2)
        assert outs[0].ok
        assert not outs[1].ok and "Infeasible" in outs[1].error


class TestWorkerPool:
    """The resident pool: reuse across submissions, crash/timeout
    replacement, and graceful shutdown."""

    def test_workers_are_reused(self):
        with WorkerPool(jobs=1) as pool:
            pids = {pool.submit(_pid).unwrap() for _ in range(5)}
        assert len(pids) == 1  # same resident process served every task
        assert pool.tasks_run == 5
        assert pool.workers_replaced == 0

    def test_crash_replaces_worker(self):
        with WorkerPool(jobs=1) as pool:
            before = pool.submit(_pid).unwrap()
            out = pool.submit(_die_without_payload, (7,))
            assert not out.ok and out.crashed and not out.timed_out
            assert "exit code 7" in out.error
            after = pool.submit(_pid).unwrap()
        assert before != after  # crashed seat was refilled
        assert pool.workers_replaced == 1

    def test_timeout_kills_and_replaces(self):
        with WorkerPool(jobs=1) as pool:
            t0 = time.perf_counter()
            out = pool.submit(_sleep_forever, (0,), timeout=0.5)
            wall = time.perf_counter() - t0
            assert out.timed_out and not out.ok and not out.crashed
            assert wall < 30.0
            assert pool.submit(_square, (4,)).unwrap() == 16
        assert pool.workers_replaced == 1

    def test_worker_exception_keeps_worker(self):
        with WorkerPool(jobs=1) as pool:
            out = pool.submit(_fail, (3,))
            assert not out.ok and not out.crashed
            assert "bad input 3" in out.error
            assert pool.submit(_square, (3,)).unwrap() == 9
        assert pool.workers_replaced == 0

    def test_closed_pool_rejects(self):
        pool = WorkerPool(jobs=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_square, (1,))

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(jobs=0)


def _pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def _sleep_if_three(x):
    if x == 3:
        time.sleep(300)
    return x * 10


class TestSubmitChunk:
    """Chunked dispatch: many tasks per IPC message, per-item replies,
    and timeout kills scoped to the offending item only."""

    def test_chunk_runs_all_items_in_order(self):
        with WorkerPool(jobs=1) as pool:
            res = pool.submit_chunk(_square, [(i,) for i in range(6)])
        assert res.pending == ()
        assert [o.unwrap() for o in res.outcomes] == [i * i for i in range(6)]
        assert [o.index for o in res.outcomes] == list(range(6))

    def test_chunk_counts_as_reuse_not_one_task(self):
        with WorkerPool(jobs=1) as pool:
            pool.submit_chunk(_square, [(i,) for i in range(5)])
            stats = pool.stats()
        assert stats["tasks_run"] == 5
        # One fork served five tasks: four dispatches reused a warm seat.
        assert stats["pool_reuse"] == 4

    def test_item_exception_does_not_poison_the_chunk(self):
        with WorkerPool(jobs=1) as pool:
            res = pool.submit_chunk(_fail, [(1,)])
            assert not res.outcomes[0].ok
            assert "bad input 1" in res.outcomes[0].error
            # Same worker keeps serving — an exception is a payload,
            # not a crash.
            assert pool.submit(_square, (3,)).unwrap() == 9
        assert pool.workers_replaced == 0

    def test_timeout_is_scoped_to_the_offending_item(self):
        args = [(i,) for i in range(6)]  # item 3 hangs
        with WorkerPool(jobs=1) as pool:
            t0 = time.perf_counter()
            res = pool.submit_chunk(_sleep_if_three, args, timeout=0.5)
            wall = time.perf_counter() - t0
        assert wall < 30.0
        done = [o for o in res.outcomes if o is not None and o.ok]
        # Items 0-2 finished before the hang and keep their results...
        assert [o.unwrap() for o in done] == [0, 10, 20]
        # ...item 3 alone is the timeout...
        offender = res.outcomes[3]
        assert offender.timed_out and not offender.ok
        # ...and 4-5 come back as pending survivors, not casualties.
        assert res.pending == (4, 5)
        assert pool.workers_replaced == 1

    def test_streaming_callback_fires_per_item(self):
        seen = []
        with WorkerPool(jobs=1) as pool:
            pool.submit_chunk(
                _square,
                [(i,) for i in range(4)],
                on_item=lambda o: seen.append(o.index),
            )
        assert seen == [0, 1, 2, 3]  # one worker runs items in order

    def test_raising_callback_does_not_leak_the_seat(self):
        def boom(_outcome):
            raise OSError("journal disk full")

        pool = WorkerPool(jobs=1)
        try:
            before = pool.worker_processes()
            with pytest.raises(OSError, match="disk full"):
                pool.submit_chunk(
                    _square, [(1,), (2,), (3,)], on_item=boom
                )
            # The worker with unread replies was retired and its seat
            # refilled, so the next task gets a clean worker.
            assert pool.submit(_square, (4,)).unwrap() == 16
            procs = before + pool.worker_processes()
        finally:
            pool.close()
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_mid_chunk_crash_marks_offender_only(self):
        res_args = [(0,), (1,), (2,)]  # _crash_or_square dies on 1
        with WorkerPool(jobs=1) as pool:
            res = pool.submit_chunk(_crash_or_square, res_args)
            assert res.outcomes[0].unwrap() == 0
            assert res.outcomes[1].crashed
            assert res.pending == (2,)
            # The seat was refilled; the pool keeps serving.
            assert pool.submit(_square, (5,)).unwrap() == 25
        assert pool.workers_replaced == 1


class TestSeatsUnderContention:
    def test_raising_callbacks_lose_no_seat(self):
        """Eight threads share four workers with callbacks that raise on
        every chunk: each raise must retire exactly one worker and hand
        its seat back, however the threads interleave."""

        def boom_on_odd(outcome):
            if outcome.value % 2:
                raise OSError("callback failed")

        raised = []

        def client(k):
            for r in range(5):
                try:
                    # One of two consecutive squares is odd: every
                    # chunk raises, at its first or its second item.
                    pool.submit_chunk(
                        _square, [(k + r,), (k + r + 1,)], on_item=boom_on_odd
                    )
                except OSError:
                    raised.append(k)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(jobs=4) as pool:
                threads = [
                    threading.Thread(target=client, args=(k,))
                    for k in range(8)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                assert len(raised) == 40
                assert pool.stats()["workers_replaced"] == 40
                # All four seats are back: four concurrent tasks land on
                # four distinct live workers.
                outs = run_many(_pid_after, [(0.3,)] * 4, pool=pool)
                live = {p.pid for p in pool.worker_processes()}
                assert {o.unwrap() for o in outs} == live
                assert len(live) == 4
        finally:
            sys.setswitchinterval(switch)


class TestPoolStats:
    def test_reuse_counts_warm_dispatches(self):
        with WorkerPool(jobs=1) as pool:
            first = pool.stats()
            assert first["pool_reuse"] == 0
            for _ in range(4):
                pool.submit(_square, (2,))
            stats = pool.stats()
        assert stats["tasks_run"] == 4
        assert stats["pool_reuse"] == 3  # every dispatch after the first
        assert stats["workers_replaced"] == 0
        assert stats["jobs"] == 1

    def test_replacement_resets_the_seat_cold(self):
        with WorkerPool(jobs=1) as pool:
            pool.submit(_square, (2,))
            pool.submit(_die_without_payload, (7,))
            pool.submit(_square, (2,))  # fresh fork: not a reuse
            stats = pool.stats()
        assert stats["workers_replaced"] == 1
        assert stats["pool_reuse"] == 1  # only the second _square reused


def _record_chunks(monkeypatch):
    """Rebind ``WorkerPool.submit_chunk`` on the class to log every
    chunk's argument tuples; returns the log."""
    chunks = []
    real = WorkerPool.submit_chunk

    def logged(self, fn, args_list, **kwargs):
        chunks.append(list(args_list))
        return real(self, fn, args_list, **kwargs)

    monkeypatch.setattr(WorkerPool, "submit_chunk", logged)
    return chunks


class TestBatchScheduler:
    """``run_many(..., pool=pool)``: chunked dispatch on a caller's pool."""

    def test_run_returns_ordered_outcomes(self):
        with WorkerPool(jobs=2) as pool:
            outs = run_many(_square, [(i,) for i in range(40)], pool=pool)
        assert [o.unwrap() for o in outs] == [i * i for i in range(40)]
        assert [o.index for o in outs] == list(range(40))

    def test_chunks_grow_from_ewma(self, monkeypatch):
        chunks = _record_chunks(monkeypatch)
        with WorkerPool(jobs=1) as pool:
            outs = run_many(_square, [(i,) for i in range(64)], pool=pool)
            stats = pool.stats()
        assert [o.unwrap() for o in outs] == [i * i for i in range(64)]
        # Fast tasks -> the EWMA drives chunks far beyond the size-1
        # probe, so 64 tasks take far fewer than 64 dispatches.
        assert len(chunks[0]) == 1
        assert sum(map(len, chunks)) == 64
        assert len(chunks) < 32
        assert stats["pool_reuse"] >= 63 - len(chunks)

    def test_timeout_survivors_are_resubmitted(self, monkeypatch):
        chunks = _record_chunks(monkeypatch)
        with WorkerPool(jobs=1) as pool:
            outs = run_many(
                _sleep_if_three, [(i,) for i in range(6)], timeout=1.0,
                pool=pool,
            )
        assert [o.ok for o in outs] == [True] * 3 + [False] + [True] * 2
        assert outs[3].timed_out
        assert [o.unwrap() for o in outs if o.ok] == [0, 10, 20, 40, 50]
        # Items 4-5 were survivors of the killed chunk and were sent again.
        sent = [args[0] for chunk in chunks for args in chunk]
        assert sent.count(3) == 1
        assert sent.count(4) == sent.count(5) == 2

    def test_raising_callback_leaves_the_pool_usable(self):
        def boom(_outcome):
            raise OSError("journal disk full")

        with WorkerPool(jobs=2) as pool:
            with pytest.raises(OSError, match="disk full"):
                run_many(
                    _square, [(i,) for i in range(10)], pool=pool,
                    on_result=boom,
                )
            outs = run_many(_square, [(i,) for i in range(10)], pool=pool)
        assert [o.unwrap() for o in outs] == [i * i for i in range(10)]

    def test_completion_callback_sees_every_task_once(self):
        seen = []
        with WorkerPool(jobs=2) as pool:
            run_many(
                _square,
                [(i,) for i in range(20)],
                pool=pool,
                on_result=lambda o: seen.append(o.index),
            )
        assert sorted(seen) == list(range(20))

    def test_contended_dispatch_loses_no_task_or_callback(self):
        """Four dispatch threads on two cores, switching every
        microsecond: the shared queue hands out each task once, and the
        callbacks run one at a time, so the callback's unlocked
        read-yield-write of a counter loses no count."""
        n = 300
        seen = []
        calls = [0]
        outs = []

        def on_result(o):
            seen.append(o.index)
            count = calls[0]
            time.sleep(1e-4)  # widen the window another callback could use
            calls[0] = count + 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with WorkerPool(jobs=4) as pool:
                runner = threading.Thread(
                    target=lambda: outs.extend(run_many(
                        _square, [(i,) for i in range(n)], pool=pool,
                        on_result=on_result,
                    )),
                    daemon=True,
                )
                runner.start()
                runner.join(timeout=120)
                assert not runner.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert calls[0] == n
        assert sorted(seen) == list(range(n))
        assert [o.unwrap() for o in outs] == [i * i for i in range(n)]


class TestExperimentJobs:
    def test_table3_parallel_identical(self):
        bench = load_benchmark("prim1").scaled(20)
        combos = ((0.9, 1.0), (0.5, 1.0), (0.0, 1.5))
        serial = run_table3(bench, combos=combos, jobs=1)
        pooled = run_table3(bench, combos=combos, jobs=2)
        assert serial == pooled
        assert render_table3(serial) == render_table3(pooled)

    @pytest.mark.skipif(
        os.environ.get("FULL", "") != "1",
        reason="spawn round-trip is slow; covered by fork elsewhere",
    )
    def test_spawn_start_method(self, tmp_path):
        with WorkerPool(2, start_method="spawn") as pool:
            outs = run_many(_square, [(i,) for i in range(3)], pool=pool)
        assert [o.unwrap() for o in outs] == [0, 1, 4]


class TestCrashLoopCap:
    """A worker crash loop must become a typed error, not an unbounded
    fork storm — while isolated crashes keep being absorbed."""

    def test_consecutive_crashes_hit_the_cap(self):
        with WorkerPool(jobs=1) as pool:
            for _ in range(4):
                out = pool.submit(_die_without_payload, (9,))
                assert out.crashed
            with pytest.raises(PoolCrashLoopError) as err:
                pool.submit(_die_without_payload, (9,))
            assert "5 times in a row" in str(err.value)
            assert "_die_without_payload" in str(err.value)
            # The seat was refilled before raising: the pool survives.
            assert pool.submit(_square, (5,)).unwrap() == 25
            assert pool.workers_replaced == 5

    def test_successes_reset_the_crash_streak(self):
        with WorkerPool(jobs=1) as pool:
            for _ in range(2):
                for _ in range(4):
                    assert pool.submit(_die_without_payload, (9,)).crashed
                assert pool.submit(_square, (2,)).unwrap() == 4
        assert pool.workers_replaced == 8  # never five in a row -> no raise

    def test_timeouts_do_not_count_toward_the_cap(self):
        with WorkerPool(jobs=1) as pool:
            for _ in range(4):
                assert pool.submit(_die_without_payload, (9,)).crashed
            assert pool.submit(_sleep_forever, (0,), timeout=0.3).timed_out
            # A timeout broke the crash streak: one more crash is fine.
            assert pool.submit(_die_without_payload, (9,)).crashed
            assert pool.submit(_square, (3,)).unwrap() == 9


class TestWorkerProcesses:
    def test_lists_live_workers_busy_or_idle(self):
        with WorkerPool(jobs=2) as pool:
            procs = pool.worker_processes()
            assert len(procs) == 2
            assert all(p.is_alive() for p in procs)
            pids = {p.pid for p in procs}
            assert pool.submit(_pid).unwrap() in pids
        assert pool.worker_processes() == []  # close() emptied the set

    def test_killed_worker_is_replaced_in_the_listing(self):
        with WorkerPool(jobs=1) as pool:
            (victim,) = pool.worker_processes()
            victim.kill()
            out = pool.submit(_square, (4,))
            # The kill may land before or while the task runs; either
            # way the pool recovers and the listing shows a live seat.
            assert out.unwrap() == 16 if out.ok else out.crashed
            (survivor,) = pool.worker_processes()
            assert survivor.is_alive()
            assert pool.submit(_square, (6,)).unwrap() == 36
