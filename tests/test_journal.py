"""Crash-safe solve journal: load semantics, resume counters, and the
kill-resume equivalence guarantee (SIGKILL mid-batch, resume, identical
output)."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import load_benchmark
from repro.ebf import DelayBounds, canonical_cost
from repro.experiments import render_table3, run_table3
from repro.geometry import manhattan_radius_from
from repro.lp import InfeasibleError
from repro.perf import (
    JournalError,
    SolveJournal,
    SolveTask,
    TaskError,
    solution_from_record,
    solution_to_record,
    solve_many,
    solve_sweep_sharded,
)
from repro.topology import nearest_neighbor_topology


def tasks_for(size=8, windows=((0.8, 1.3), (0.9, 1.2), (0.85, 1.25))):
    bench = load_benchmark("prim1").scaled(size)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    return [
        SolveTask(topo, DelayBounds.uniform(size, lo * radius, hi * radius))
        for lo, hi in windows
    ]


class TestRecordRoundTrip:
    def test_solution_survives_the_record(self):
        task = tasks_for()[0]
        out = solve_many([task])[0]
        sol = out.unwrap()
        rec = solution_to_record(sol)
        back = solution_from_record(rec, task.topo, task.bounds)
        assert back.cost == sol.cost
        assert list(back.edge_lengths) == list(sol.edge_lengths)
        assert list(back.delays) == list(sol.delays)
        assert back.stats.backend == sol.stats.backend
        assert back.stats.rounds == sol.stats.rounds

    def test_record_is_strict_json(self):
        task = tasks_for()[0]
        sol = solve_many([task])[0].unwrap()
        text = json.dumps(solution_to_record(sol), allow_nan=False)
        assert json.loads(text)


class TestJournalFile:
    def test_append_then_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SolveJournal(path) as j:
            j.append("a" * 64, {"cost": 1.0})
            j.append("b" * 64, {"cost": 2.0})
        j2 = SolveJournal(path)
        done = j2.load()
        assert set(done) == {"a" * 64, "b" * 64}
        assert done["b" * 64]["cost"] == 2.0

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SolveJournal(path) as j:
            j.append("a" * 64, {"cost": 1.0})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"v":1,"key":"' + "b" * 64 + '","resu')  # torn write
        done = SolveJournal(path).load()
        assert set(done) == {"a" * 64}  # the torn tail is dropped

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            "not json at all\n"
            + json.dumps({"v": 1, "key": "a" * 64, "result": {}})
            + "\n"
        )
        with pytest.raises(JournalError):
            SolveJournal(path).load()

    def test_missing_file_is_empty(self, tmp_path):
        j = SolveJournal(tmp_path / "absent.jsonl")
        assert j.load() == {}


class TestSolveManyResume:
    def test_second_run_replays_everything(self, tmp_path):
        tasks = tasks_for()
        path = tmp_path / "j.jsonl"
        with SolveJournal(path) as j:
            first = solve_many(tasks, journal=j)
            assert j.appended == len(tasks) and j.replayed == 0
        with SolveJournal(path) as j:
            second = solve_many(tasks, journal=j)
            assert j.replayed == len(tasks) and j.appended == 0
        for a, b in zip(first, second):
            sa, sb = a.unwrap(), b.unwrap()
            assert sa.cost == sb.cost
            assert list(sa.edge_lengths) == list(sb.edge_lengths)
            assert list(sa.delays) == list(sb.delays)

    def test_partial_journal_only_solves_the_rest(self, tmp_path):
        tasks = tasks_for()
        path = tmp_path / "j.jsonl"
        with SolveJournal(path) as j:
            solve_many(tasks[:1], journal=j)
        with SolveJournal(path) as j:
            outs = solve_many(tasks, journal=j)
            assert j.replayed == 1 and j.appended == len(tasks) - 1
        baseline = solve_many(tasks)
        for a, b in zip(outs, baseline):
            assert a.unwrap().cost == b.unwrap().cost

    def test_sweep_sharded_resume_matches_cold(self, tmp_path):
        task = tasks_for()[0]
        radius = max(task.bounds.upper)
        bounds_list = [
            DelayBounds.uniform(
                len(task.bounds.lower), f * radius / 1.3, radius
            )
            for f in (0.80, 0.85, 0.90, 0.95)
        ]
        cold = solve_sweep_sharded(task.topo, bounds_list, warm=False)
        path = tmp_path / "sweep.jsonl"
        with SolveJournal(path) as j:
            solve_sweep_sharded(
                task.topo, bounds_list[:2], warm=False, journal=j
            )
        with SolveJournal(path) as j:
            resumed = solve_sweep_sharded(
                task.topo, bounds_list, warm=False, journal=j
            )
            assert j.replayed == 2 and j.appended == 2
        assert [canonical_cost(s.cost) for s in resumed] == [
            canonical_cost(s.cost) for s in cold
        ]


class TestPerCompletionAppends:
    """Journal appends are per *completion*, not per wave: every
    ``on_result`` callback observes its own solve already fsynced."""

    def test_appends_track_completions_one_to_one(self, tmp_path):
        tasks = tasks_for(
            size=10,
            windows=(
                (0.8, 1.3), (0.9, 1.2), (0.85, 1.25),
                (0.7, 1.4), (0.75, 1.35), (0.95, 1.15),
            ),
        )
        appended_at_callback = []
        with SolveJournal(tmp_path / "j.jsonl") as j:
            solve_many(
                tasks,
                jobs=2,
                journal=j,
                on_result=lambda o: appended_at_callback.append(j.appended),
            )
        # With the old wave barrier the journal lagged completions by up
        # to ``jobs``; per-completion appends mean the k-th completion
        # sees exactly k records durable.
        assert appended_at_callback == list(range(1, len(tasks) + 1))

    def test_straggler_cannot_hold_back_finished_solves(self, tmp_path):
        # One deliberately larger net among quick ones: the small nets'
        # records must be in the journal before the straggler completes.
        straggler = tasks_for(size=26, windows=((0.8, 1.3),))
        quick = tasks_for(size=8, windows=((0.8, 1.3), (0.9, 1.2)))
        tasks = straggler + quick
        seen = {}
        with SolveJournal(tmp_path / "j.jsonl") as j:
            solve_many(
                tasks,
                jobs=2,
                journal=j,
                on_result=lambda o: seen.setdefault(o.index, j.appended),
            )
            assert j.appended == 3
        # Whenever the straggler landed, every earlier completion was
        # already journaled (its recorded appended count says so).
        order = sorted(seen, key=seen.get)
        for rank, i in enumerate(order):
            assert seen[i] == rank + 1


class TestSweepShardDurability:
    """A sharded sweep journals each shard the moment it finishes: a
    failing shard cannot keep a healthy one's points out of the
    journal."""

    def sweep(self):
        tasks = tasks_for(size=12, windows=EIGHT_WINDOWS[:7])
        bounds = [t.bounds for t in tasks]
        return tasks[0].topo, bounds + [DelayBounds.uniform(12, 0.0, 1e-9)]

    def test_failed_shard_keeps_the_healthy_shard_journaled(self, tmp_path):
        topo, bounds = self.sweep()
        path = tmp_path / "sweep.jsonl"
        with SolveJournal(path) as j:
            with pytest.raises(TaskError, match="Infeasible"):
                solve_sweep_sharded(
                    topo, bounds, jobs=2, journal=j, check_bounds=False
                )
            # Shard [0, 4) is healthy; shard [4, 8) ends infeasible.
            assert j.appended == 4
        assert len(SolveJournal(path).load()) == 4

        with SolveJournal(path) as j:
            resumed = solve_sweep_sharded(
                topo, bounds[:7], jobs=2, journal=j, check_bounds=False
            )
            # Only the failed shard's feasible points are solved again.
            assert j.replayed == 4 and j.appended == 3
        cold = solve_sweep_sharded(topo, bounds[:7], check_bounds=False)
        assert [canonical_cost(s.cost) for s in resumed] == [
            canonical_cost(s.cost) for s in cold
        ]

    def test_serial_sweep_raises_the_solver_error_itself(self, tmp_path):
        topo, bounds = self.sweep()
        with SolveJournal(tmp_path / "sweep.jsonl") as j:
            with pytest.raises(InfeasibleError):
                solve_sweep_sharded(
                    topo, bounds, jobs=1, journal=j, check_bounds=False
                )
            assert j.appended == 0
        with pytest.raises(InfeasibleError):
            solve_sweep_sharded(topo, bounds, jobs=1, check_bounds=False)


KILL_MANY_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {tests!r})
    from test_journal import tasks_for, EIGHT_WINDOWS
    from repro.perf import SolveJournal, solve_many

    # Die the hard way right after the N-th per-completion fsync lands,
    # mid-batch on a jobs=2 pooled run.
    N = int(sys.argv[2])
    with SolveJournal(sys.argv[1]) as j:
        original = j.append
        def append_then_maybe_die(key, result):
            original(key, result)
            if j.appended >= N:
                import os, signal
                os.kill(os.getpid(), signal.SIGKILL)
        j.append = append_then_maybe_die
        solve_many(tasks_for(size=10, windows=EIGHT_WINDOWS), jobs=2,
                   journal=j)
    """
)

#: Eight distinct windows so the killed jobs=2 batch has plenty of
#: not-yet-journaled work left at solve #3.
EIGHT_WINDOWS = (
    (0.80, 1.30), (0.90, 1.20), (0.85, 1.25), (0.70, 1.40),
    (0.75, 1.35), (0.95, 1.15), (0.65, 1.45), (0.60, 1.50),
)


class TestKillResumeSolveGranularity:
    """SIGKILL a jobs=2 pooled batch after exactly N per-completion
    appends: the resume must replay exactly those N solves — per-*solve*
    granularity, not the old per-wave one."""

    def test_resume_replays_exactly_the_fsynced_solves(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        tests = str(Path(__file__).resolve().parent)
        path = tmp_path / "kill_many.jsonl"
        script = KILL_MANY_SCRIPT.format(src=src, tests=tests)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), "3"],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert len(SolveJournal(path).load()) == 3

        tasks = tasks_for(size=10, windows=EIGHT_WINDOWS)
        with SolveJournal(path) as j:
            resumed = solve_many(tasks, jobs=2, journal=j)
            # Exactly the three fsynced solves replay; the other five
            # run fresh.  A wave barrier would have journaled 2 or 4.
            assert j.replayed == 3 and j.appended == 5
        baseline = solve_many(tasks)
        for a, b in zip(resumed, baseline):
            sa, sb = a.unwrap(), b.unwrap()
            assert sa.cost == sb.cost
            assert list(sa.edge_lengths) == list(sb.edge_lengths)


KILL_SWEEP_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    sys.path.insert(0, {tests!r})
    from test_journal import tasks_for, EIGHT_WINDOWS
    from repro.perf import SolveJournal, solve_sweep_sharded

    # Die the hard way right after the N-th append — the last point of
    # whichever jobs=2 shard finished first.
    N = int(sys.argv[2])
    tasks = tasks_for(size=10, windows=EIGHT_WINDOWS)
    with SolveJournal(sys.argv[1]) as j:
        original = j.append
        def append_then_maybe_die(key, result):
            original(key, result)
            if j.appended >= N:
                import os, signal
                os.kill(os.getpid(), signal.SIGKILL)
        j.append = append_then_maybe_die
        solve_sweep_sharded(tasks[0].topo, [t.bounds for t in tasks],
                            jobs=2, journal=j)
    """
)


class TestKillResumeSweepShardGranularity:
    """SIGKILL a jobs=2 journaled sweep right after its first shard's
    appends: the resume replays exactly that shard and solves the rest."""

    def test_resume_replays_exactly_the_finished_shard(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        tests = str(Path(__file__).resolve().parent)
        path = tmp_path / "kill_sweep.jsonl"
        script = KILL_SWEEP_SCRIPT.format(src=src, tests=tests)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), "4"],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        assert len(SolveJournal(path).load()) == 4

        tasks = tasks_for(size=10, windows=EIGHT_WINDOWS)
        topo, bounds = tasks[0].topo, [t.bounds for t in tasks]
        with SolveJournal(path) as j:
            resumed = solve_sweep_sharded(topo, bounds, jobs=2, journal=j)
            assert j.replayed == 4 and j.appended == 4
        cold = solve_sweep_sharded(topo, bounds)
        assert [canonical_cost(s.cost) for s in resumed] == [
            canonical_cost(s.cost) for s in cold
        ]


KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from repro.data import load_benchmark
    from repro.experiments import run_table3
    from repro.perf import SolveJournal
    import repro.perf.journal as journal_mod

    # After N appends, die the hard way mid-batch (no atexit, no flush
    # of anything beyond what append() already fsynced).
    N = int(sys.argv[2])
    bench = load_benchmark("r1").scaled(16)
    with SolveJournal(sys.argv[1]) as j:
        original = j.append
        def append_then_maybe_die(key, result):
            original(key, result)
            if j.appended >= N:
                import os, signal
                os.kill(os.getpid(), signal.SIGKILL)
        j.append = append_then_maybe_die
        run_table3(bench, jobs=1, journal=j)
    """
)


class TestKillResumeEquivalence:
    """The ISSUE acceptance criterion: SIGKILL a journaled run mid-batch,
    resume it, and get byte-identical tables with no completed solve
    re-run."""

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = tmp_path / "kill.jsonl"
        script = KILL_SCRIPT.format(src=src)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path), "3"],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == -signal.SIGKILL
        # The journal survived the kill with exactly the fsynced records.
        survivors = SolveJournal(path).load()
        assert len(survivors) == 3

        bench = load_benchmark("r1").scaled(16)
        with SolveJournal(path) as j:
            rows = run_table3(bench, jobs=1, journal=j)
            # No completed solve was re-run...
            assert j.replayed == 3
        # ...and the rendered table is byte-identical to an uninterrupted
        # run.
        assert render_table3(rows) == render_table3(
            run_table3(bench, jobs=1)
        )
