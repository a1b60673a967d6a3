"""The four benchmark workloads.

Each workload turns its seed into inputs, sets the program up the way a
user's run would, issues ops through the public API for a time budget,
and checks every answer.  ``run`` measures with tracing off;
``run_traced`` repeats the ops with the layer wrappers of
:mod:`tracing` recording, alternating traced and untraced ops on the same
inputs so the tracing overhead is measured too.

Nothing here imports ``repro`` at module level: importing the program is
part of the measured set-up.
"""

from __future__ import annotations

import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Tally, TreeView, check_solution, load_reference
from tracing import Span, Tracer, info_sum, lp_by_backend, totals

DIE = 10_000.0
JOBS = 2


@dataclass(frozen=True)
class Sizes:
    large_sinks: int = 2048
    large_pool: int = 8
    cts_nets: int = 2000
    cts_sinks: int = 6
    cts_resolve: int = 200
    sweep_sinks: int = 128
    sweep_pool: int = 12
    server_stream: int = 1500
    server_sinks: tuple = (32, 96)
    server_resolve: int = 40


FULL = Sizes()
QUICK = Sizes(
    large_sinks=48, large_pool=2, cts_nets=24, cts_resolve=8,
    sweep_sinks=32, sweep_pool=2, server_stream=40, server_sinks=(6, 12),
    server_resolve=4,
)


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    unit: str
    n: int


def subseed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from ``seed`` and integer tags."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def radius(source, sinks) -> float:
    return max(abs(p.x - source.x) + abs(p.y - source.y) for p in sinks)


def median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    k = max(0, min(len(xs) - 1, int(np.ceil(q / 100.0 * len(xs))) - 1))
    return xs[k]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a live process, MiB (0 if it is gone)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    m = re.search(r"^VmHWM:\s+(\d+) kB", text, re.M)
    return int(m.group(1)) / 1024.0 if m else 0.0


def child_pids(pid: int) -> list[int]:
    try:
        text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(t) for t in text.split()]


def solve_path_metrics(spans: list[Span], solves: int) -> list[Metric]:
    """Per-solve split of ``solve_lubt`` from inline traced solves."""
    t = totals(spans)
    n = max(1, solves)
    out = [
        Metric("check.precheck_s", t["check.precheck"].busy / n, "s/solve", solves),
        Metric("ebf.solve_s", t["ebf.solve"].busy / n, "s/solve", solves),
        Metric("ebf.self_s", t["ebf.solve"].self_time / n, "s/solve", solves),
        Metric("ebf.seed_rows_s", t["ebf.seed_rows"].busy / n, "s/solve", solves),
        Metric("ebf.lp_build_s", t["ebf.lp_build"].busy / n, "s/solve", solves),
        Metric("ebf.scan_s", t["ebf.scan"].busy / n, "s/solve", solves),
        Metric("ebf.scan_calls", t["ebf.scan"].calls / n, "count/solve", solves),
        Metric("lp.solve_s", t["lp.solve"].busy / n, "s/solve", solves),
        Metric(
            "lp.iterations", info_sum(spans, "lp.solve", "iterations") / n,
            "count/solve", solves,
        ),
    ]
    for backend, bt in sorted(lp_by_backend(spans).items()):
        out.append(Metric(f"lp.solve_s.{backend}", bt.busy / n, "s/solve", solves))
        out.append(Metric(f"lp.calls.{backend}", bt.calls / n, "count/solve", solves))
    return out


def layer_note(workload: str, label: str, spans: list[Span], per: int) -> str:
    """Busy and self seconds of every wrapped entry point, per ``label``."""
    parts = [
        f"{name} busy {t.busy / per:.4g}s self {t.self_time / per:.4g}s "
        f"calls {t.calls / per:.3g}"
        for name, t in sorted(totals(spans).items()) if name != "op"
    ]
    return f"layers {workload} per {label}: " + "; ".join(parts)


def coverage_metrics(
    op_spans: list[Span], traced_wall: float, untraced_wall: float
) -> list[Metric]:
    """Share of op wall no wrapper covers, and traced ÷ untraced wall."""
    total = sum(s.duration for s in op_spans)
    uncovered = sum(s.self_time for s in op_spans)
    return [
        Metric("uncovered_share", uncovered / total if total else 0.0,
               "ratio", len(op_spans)),
        Metric("trace_overhead", traced_wall / untraced_wall
               if untraced_wall else 0.0, "ratio", len(op_spans)),
    ]


class Workload:
    """Common shape: ``setup`` → ``prepare`` → ``run``/``run_traced``."""

    name = ""
    tag = 0

    def __init__(
        self, sizes: Sizes, seed: int, tracer: Tracer, root: Path, workdir: Path
    ):
        self.sizes = sizes
        self.seed = seed
        self.tracer = tracer
        self.root = root
        self.workdir = workdir
        self.tally = Tally()
        self.reference = load_reference(self.name, seed, self.reference_sizes())
        #: Free-form report lines (splits that answer open questions).
        self.notes: list[str] = []

    def reference_sizes(self) -> dict:
        raise NotImplementedError

    def reference_cost(self, key: str) -> float | None:
        if self.reference is None:
            return None
        return self.reference.get(key)

    def record(self, view, e, lower, upper, cost, key) -> None:
        ref = self.reference_cost(key)
        self.tally.record(
            check_solution(view, e, lower, upper, cost, ref), ref is not None
        )

    def traced(self, fn, *args):
        """Run ``fn`` as one traced op; returns (result, op span)."""
        self.tracer.enabled = True
        span = self.tracer.open("op")
        try:
            out = fn(*args)
        finally:
            self.tracer.close(span)
            self.tracer.enabled = False
        return out, span

    def resolve_traced(self, pairs) -> list[Span]:
        """Re-solve ``(topo, bounds, options)`` inline with tracing on;
        returns the spans (the worker-side split of pooled workloads)."""
        from repro.ebf import solve_lubt

        self.tracer.reset()
        self.tracer.enabled = True
        try:
            for topo, bounds, options in pairs:
                solve_lubt(topo, bounds, **options)
        finally:
            self.tracer.enabled = False
        return self.tracer.reset()

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> list[Metric]:
        raise NotImplementedError

    def run_traced(self, seconds: float) -> list[Metric]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def reference_costs(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# large-net
# ---------------------------------------------------------------------------
class LargeNet(Workload):
    """One big net per op: H-tree topology, tree-backend solve, embed."""

    name = "large-net"
    tag = 1

    def reference_sizes(self) -> dict:
        return {"sinks": self.sizes.large_sinks, "pool": self.sizes.large_pool}

    def setup(self) -> None:
        from repro.data import uniform_sinks
        from repro.ebf import DelayBounds
        from repro.embedding import solve_and_embed
        from repro.geometry import Point
        from repro.topology import build_net_topology

        self.source = Point(DIE / 2, DIE / 2)
        sinks = uniform_sinks(16, seed=0)
        r = radius(self.source, sinks)
        topo = build_net_topology(sinks, self.source)
        solve_and_embed(
            topo, DelayBounds.uniform(16, 0.8 * r, 1.2 * r), backend="tree"
        )

    def prepare(self) -> None:
        from repro.data import clustered_sinks, uniform_sinks
        from repro.ebf import DelayBounds

        m = self.sizes.large_sinks
        self.nets = []
        for k in range(self.sizes.large_pool):
            gen = uniform_sinks if k % 2 == 0 else clustered_sinks
            sinks = gen(m, seed=subseed(self.seed, self.tag, k))
            r = radius(self.source, sinks)
            self.nets.append((sinks, DelayBounds.uniform(m, 0.8 * r, 1.2 * r)))

    def _op(self, k: int):
        from repro.embedding import solve_and_embed
        from repro.topology import build_net_topology

        sinks, bounds = self.nets[k % len(self.nets)]
        t0 = time.perf_counter()
        topo = build_net_topology(sinks, self.source)
        sol, _ = solve_and_embed(topo, bounds, backend="tree")
        return time.perf_counter() - t0, topo, sol

    def _check(self, k: int, topo, sol) -> None:
        from repro.embedding import embed_tree

        k %= len(self.nets)
        bounds = self.nets[k][1]
        ref = self.reference_cost(f"net{k}")
        failures = check_solution(
            TreeView(topo, pairs=False), sol.edge_lengths, bounds.lower,
            bounds.upper, sol.cost, ref,
        )
        try:
            embed_tree(topo, sol.edge_lengths, verify=True)
        except Exception as exc:  # noqa: BLE001 — any raise fails the op
            failures.append(f"embedding check: {type(exc).__name__}: {exc}")
        self.tally.record(failures, ref is not None)

    def _attempt(self, k: int, traced: bool = False):
        """One checked op; returns (wall, solution, op span) or None."""
        span = None
        try:
            if traced:
                (wall, topo, sol), span = self.traced(self._op, k)
            else:
                wall, topo, sol = self._op(k)
        except Exception as exc:  # noqa: BLE001 — a raising op is a failed op
            self.tally.fail(f"net{k}: {type(exc).__name__}: {exc}")
            return None
        self._check(k, topo, sol)
        return wall, sol, span

    def run(self, seconds: float) -> list[Metric]:
        walls: list[float] = []
        start = time.perf_counter()
        k = 0
        while sum(walls) < seconds and time.perf_counter() - start < 3 * seconds:
            got = self._attempt(k)
            k += 1
            if got is not None:
                walls.append(got[0])
        n = len(walls)
        if not n:
            return []
        return [
            Metric("ops_per_s", n / sum(walls), "1/s", n),
            Metric("net_p50_s", statistics.median(walls), "s", n),
        ]

    def run_traced(self, seconds: float) -> list[Metric]:
        traced_wall = untraced_wall = 0.0
        ops: list[Span] = []
        spans: list[Span] = []
        stats = []
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            self.tracer.reset()
            got = self._attempt(k, traced=True)
            spans += self.tracer.reset()
            if got is not None:
                ops.append(got[2])
                traced_wall += got[0]
                stats.append(got[1].stats)
            again = self._attempt(k)
            if again is not None:
                untraced_wall += again[0]
            k += 1
        n = len(ops)
        if not n:
            return []
        t = totals(spans)
        out = [
            Metric("topology.build_s", t["topology.build"].busy / n, "s/op", n),
            Metric("embedding.embed_s", t["embedding.embed"].busy / n, "s/op", n),
            Metric("ebf.rounds_per_solve",
                   sum(s.rounds for s in stats) / n, "count/solve", n),
            Metric("ebf.warm_rows_per_solve",
                   sum(s.warm_rows for s in stats) / n, "count/solve", n),
        ]
        out += solve_path_metrics(spans, int(t["ebf.solve"].calls))
        out += coverage_metrics(ops, traced_wall, untraced_wall)
        by = {m.name: m.value for m in out}
        other = by["ebf.solve_s"] - by["lp.solve_s"]
        self.notes.append(
            f"split {self.name}: per net {by['ebf.solve_s']:.3f}s in solve_lubt,"
            f" of which solve_lp {by['lp.solve_s']:.3f}s; the other "
            f"{other:.3f}s = scans {by['ebf.scan_s']:.3f}s "
            f"({by['ebf.scan_calls']:.0f} calls) + seed rows "
            f"{by['ebf.seed_rows_s']:.3f}s + LP build {by['ebf.lp_build_s']:.3f}s"
            f" + pre-check {by['check.precheck_s']:.3f}s + self "
            f"{by['ebf.self_s']:.3f}s; outside the solve: topology "
            f"{by['topology.build_s']:.3f}s, embedding "
            f"{by['embedding.embed_s']:.3f}s"
        )
        self.notes.append(layer_note(self.name, "net", spans, n))
        return out

    def reference_costs(self) -> dict:
        # The measured op is already the inline serial path.
        return {
            f"net{k}": float(self._op(k)[2].cost) for k in range(len(self.nets))
        }


# ---------------------------------------------------------------------------
# cts-chip
# ---------------------------------------------------------------------------
class CtsChip(Workload):
    """A placement of thousands of small clock nets through ``run_cts``."""

    name = "cts-chip"
    tag = 2

    def reference_sizes(self) -> dict:
        return {"nets": self.sizes.cts_nets, "sinks": self.sizes.cts_sinks}

    def setup(self) -> None:
        from repro.data import save_placement_map, synth_placement
        from repro.perf import SolveJournal, WorkerPool, run_cts

        tiny = self.workdir / "warmup.map"
        save_placement_map(
            synth_placement(nets=4, sinks_per_net=self.sizes.cts_sinks, seed=0),
            tiny,
        )
        # Inline first: the workers fork from a parent whose lazy imports
        # are done, as in a user's run after its first net.
        run_cts(str(tiny))
        t0 = time.perf_counter()
        self.pool = WorkerPool(JOBS)
        self.pool_start_s = time.perf_counter() - t0
        with SolveJournal(self.workdir / "warmup.jsonl") as journal:
            run_cts(str(tiny), jobs=JOBS, pool=self.pool, journal=journal)

    def prepare(self) -> None:
        from repro.data import save_placement_map, synth_placement
        from repro.perf import cts_tasks
        from repro.server.keys import instance_key

        self.placement = synth_placement(
            nets=self.sizes.cts_nets, sinks_per_net=self.sizes.cts_sinks,
            seed=subseed(self.seed, self.tag),
        )
        self.map_path = self.workdir / "chip.map"
        save_placement_map(self.placement, self.map_path)
        self.expect = []
        for _, task in cts_tasks(self.placement):
            self.expect.append((
                TreeView(task.topo), task.bounds.lower, task.bounds.upper,
                instance_key(task.topo, task.bounds, dict(task.options)),
            ))
        self.passes = 0

    def _pass(self):
        from repro.perf import SolveJournal, run_cts

        path = self.workdir / f"journal-{self.passes}.jsonl"
        self.passes += 1
        with SolveJournal(path) as journal:
            t0 = time.perf_counter()
            report = run_cts(
                str(self.map_path), jobs=JOBS, pool=self.pool, journal=journal
            )
            wall = time.perf_counter() - t0
        return wall, report, path

    def _check(self, report, path: Path) -> list[dict]:
        """Check every net of one pass against its journal record."""
        records = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                records[rec["key"]] = rec["result"]
        path.unlink()
        if len(report.results) != len(self.expect):
            for _ in self.expect:
                self.tally.fail(
                    f"{len(report.results)} nets reported, "
                    f"{len(self.expect)} expected"
                )
            return []
        solved = []
        for i, (net, (view, lo, hi, key)) in enumerate(
            zip(report.results, self.expect)
        ):
            rec = records.get(key)
            if not net.ok or rec is None:
                self.tally.fail(f"{net.name}: {net.error or 'not journaled'}")
                continue
            ref = self.reference_cost(f"net{i}")
            failures = check_solution(
                view, rec["edge_lengths"], lo, hi, rec["cost"], ref
            )
            if net.cost != rec["cost"]:
                failures.append("report cost differs from journal record")
            self.tally.record(failures, ref is not None)
            solved.append(rec)
        return solved

    def _attempt(self, traced: bool = False):
        """One checked pass; returns (wall, report, records, op span)."""
        span = None
        try:
            if traced:
                (wall, report, path), span = self.traced(self._pass)
            else:
                wall, report, path = self._pass()
        except Exception as exc:  # noqa: BLE001 — every net of the pass fails
            for _ in self.expect:
                self.tally.fail(f"run_cts: {type(exc).__name__}: {exc}")
            return None
        return wall, report, self._check(report, path), span

    def run(self, seconds: float) -> list[Metric]:
        walls = []
        nets = 0
        start = time.perf_counter()
        while sum(walls) < seconds and time.perf_counter() - start < 3 * seconds:
            got = self._attempt()
            if got is None:
                continue
            wall, report = got[0], got[1]
            walls.append(wall)
            nets += report.nets
        if not walls:
            return []
        return [
            Metric("ops_per_s", nets / sum(walls), "1/s", nets),
            Metric("nets_per_s", nets / sum(walls), "1/s", len(walls)),
        ]

    def run_traced(self, seconds: float) -> list[Metric]:
        traced_wall = untraced_wall = 0.0
        ops: list[Span] = []
        spans: list[Span] = []
        worker_busy = 0.0
        nets = 0
        solved: list[dict] = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.tracer.reset()
            got = self._attempt(traced=True)
            spans += self.tracer.reset()
            if got is not None:
                wall, report, records, span = got
                ops.append(span)
                traced_wall += wall
                nets += report.nets
                worker_busy += sum(r.seconds for r in report.results)
                solved += records
            again = self._attempt()
            if again is not None:
                untraced_wall += again[0]
        if not ops:
            return []

        from repro.perf import cts_tasks

        sample = cts_tasks(self.placement, nets=self.sizes.cts_resolve)
        inline = self.resolve_traced(
            [(t.topo, t.bounds, dict(t.options)) for _, t in sample]
        )
        t = totals(spans)
        n = max(1, nets)
        schedule = t["perf.solve_many"].busy
        appends = t["perf.journal_append"]
        dispatch = (JOBS * schedule - worker_busy) / n
        out = [
            Metric("topology.build_s", t["topology.build"].busy / n, "s/op", nets),
            Metric("data.placement_s", t["data.placement"].busy / n, "s/op", nets),
            Metric("perf.pool_start_s", self.pool_start_s, "s", 1),
            Metric("perf.prep_s", t["perf.prep"].busy / n, "s/op", nets),
            Metric("perf.worker_busy_ratio",
                   worker_busy / (JOBS * schedule) if schedule else 0.0,
                   "ratio", nets),
            Metric("perf.dispatch_ms_per_task", 1e3 * dispatch, "ms", nets),
            Metric("perf.tasks_per_chunk",
                   nets / max(1, t["perf.chunk"].calls), "count", nets),
            Metric("perf.journal_append_s",
                   appends.busy / max(1, appends.calls), "s", appends.calls),
            Metric("perf.journal_appends", appends.calls / len(ops), "count",
                   len(ops)),
            Metric("perf.workers_replaced",
                   float(self.pool.stats()["workers_replaced"]), "count", 1),
            Metric("ebf.rounds_per_solve",
                   sum(r["stats"]["rounds"] for r in solved) / max(1, len(solved)),
                   "count/solve", len(solved)),
            Metric("ebf.warm_rows_per_solve",
                   sum(r["stats"]["warm_rows"] for r in solved)
                   / max(1, len(solved)), "count/solve", len(solved)),
        ]
        out += solve_path_metrics(inline, len(sample))
        out += coverage_metrics(ops, traced_wall, untraced_wall)
        per = 1e3 / n
        self.notes.append(
            f"split {self.name}: per net {per * traced_wall:.3f}ms of pass "
            f"wall = serial prep {per * t['perf.prep'].busy:.3f}ms (parse "
            f"{per * t['data.placement'].busy:.3f}ms, topology "
            f"{per * t['topology.build'].busy:.3f}ms) + schedule "
            f"{per * schedule:.3f}ms; the schedule's {JOBS} workers spend "
            f"{per * worker_busy:.3f}ms per net solving and "
            f"{1e3 * dispatch:.3f}ms waiting on dispatch; the parent's "
            f"journal fsync takes {per * appends.busy:.3f}ms per net"
        )
        self.notes.append(layer_note(self.name, "net (parent side)", spans, n))
        self.notes.append(layer_note(
            self.name, "solve (inline re-solve)", inline, len(sample)
        ))
        return out

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb() + sum(
            vm_hwm_mb(p.pid) for p in self.pool.worker_processes()
        )

    def reference_costs(self) -> dict:
        from repro.perf import run_cts

        report = run_cts(str(self.map_path))
        return {f"net{i}": float(r.cost) for i, r in enumerate(report.results)}

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()


# ---------------------------------------------------------------------------
# bound-sweep
# ---------------------------------------------------------------------------
class BoundSweep(Workload):
    """Fig. 8 bound grids over seeded nets, sharded across processes."""

    name = "bound-sweep"
    tag = 3

    def reference_sizes(self) -> dict:
        return {"sinks": self.sizes.sweep_sinks, "pool": self.sizes.sweep_pool}

    def setup(self) -> None:
        from repro.data import uniform_sinks
        from repro.ebf import DelayBounds
        from repro.geometry import Point
        from repro.perf import solve_sweep_sharded
        from repro.topology import nearest_neighbor_topology

        self.source = Point(DIE / 2, DIE / 2)
        sinks = uniform_sinks(16, seed=0)
        r = radius(self.source, sinks)
        topo = nearest_neighbor_topology(sinks, self.source)
        grid = [DelayBounds.uniform(16, lo * r, 1.2 * r) for lo in (0.8, 0.6)]
        solve_sweep_sharded(
            topo, grid, jobs=JOBS, warm=True, backend="auto", check_bounds=False
        )

    def prepare(self) -> None:
        from repro.data import clustered_sinks, uniform_sinks
        from repro.ebf import DelayBounds
        from repro.experiments.fig8 import DEFAULT_LOWERS, DEFAULT_WIDTHS

        grid = [(lo, max(lo + w, 1.0)) for w in DEFAULT_WIDTHS
                for lo in DEFAULT_LOWERS]
        m = self.sizes.sweep_sinks
        self.nets = []
        for k in range(self.sizes.sweep_pool):
            gen = uniform_sinks if k % 2 == 0 else clustered_sinks
            sinks = gen(m, seed=subseed(self.seed, self.tag, k))
            r = radius(self.source, sinks)
            self.nets.append((sinks, [
                DelayBounds.uniform(m, lo * r, hi * r) for lo, hi in grid
            ]))

    def _op(self, k: int):
        from repro.perf import solve_sweep_sharded
        from repro.topology import nearest_neighbor_topology

        sinks, grid = self.nets[k % len(self.nets)]
        t0 = time.perf_counter()
        topo = nearest_neighbor_topology(sinks, self.source)
        sols = solve_sweep_sharded(
            topo, grid, jobs=JOBS, warm=True, backend="auto", check_bounds=False
        )
        return time.perf_counter() - t0, topo, sols

    def _attempt(self, k: int, traced: bool = False):
        """One checked sweep; returns (wall, solutions, op span) or None."""
        grid = self.nets[k % len(self.nets)][1]
        span = None
        try:
            if traced:
                (wall, topo, sols), span = self.traced(self._op, k)
            else:
                wall, topo, sols = self._op(k)
        except Exception as exc:  # noqa: BLE001 — a raising op fails its points
            for _ in grid:
                self.tally.fail(f"sweep {k}: {type(exc).__name__}: {exc}")
            return None
        view = TreeView(topo)
        for p, (b, sol) in enumerate(zip(grid, sols)):
            self.record(view, sol.edge_lengths, b.lower, b.upper, sol.cost,
                        f"topo{k % len(self.nets)}/pt{p}")
        for _ in range(len(grid) - len(sols)):
            self.tally.fail(f"sweep {k}: missing points")
        return wall, sols, span

    def run(self, seconds: float) -> list[Metric]:
        walls = []
        points = 0
        start = time.perf_counter()
        k = 0
        while sum(walls) < seconds and time.perf_counter() - start < 3 * seconds:
            got = self._attempt(k)
            k += 1
            if got is not None:
                walls.append(got[0])
                points += len(got[1])
        if not walls:
            return []
        return [
            Metric("ops_per_s", points / sum(walls), "1/s", points),
            Metric("points_per_s", points / sum(walls), "1/s", len(walls)),
        ]

    def run_traced(self, seconds: float) -> list[Metric]:
        from repro.ebf import solve_sweep
        from repro.perf import sweep_chunks
        from repro.topology import nearest_neighbor_topology

        traced_wall = untraced_wall = 0.0
        ops: list[Span] = []
        spans: list[Span] = []
        inline: list[Span] = []
        imbalance: list[float] = []
        stats = []
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            self.tracer.reset()
            got = self._attempt(k, traced=True)
            spans += self.tracer.reset()
            if got is not None:
                ops.append(got[2])
                traced_wall += got[0]
                stats += [sol.stats for sol in got[1]]
            sinks, grid = self.nets[k % len(self.nets)]
            topo = nearest_neighbor_topology(sinks, self.source)
            shard_walls = []
            self.tracer.enabled = True
            try:
                for a, b in sweep_chunks(len(grid), JOBS):
                    t0 = time.perf_counter()
                    solve_sweep(topo, grid[a:b], warm=True, backend="auto",
                                check_bounds=False)
                    shard_walls.append(time.perf_counter() - t0)
            finally:
                self.tracer.enabled = False
            inline += self.tracer.reset()
            imbalance.append(max(shard_walls) / statistics.mean(shard_walls))
            again = self._attempt(k)
            if again is not None:
                untraced_wall += again[0]
            k += 1
        n = len(ops)
        if not n:
            return []
        t = totals(spans)
        points = len(stats)
        out = [
            Metric("topology.build_s", t["topology.build"].busy / points,
                   "s/op", points),
            Metric("perf.sweep_s", t["perf.sweep"].busy / points, "s/op", points),
            Metric("perf.shard_imbalance", statistics.mean(imbalance), "ratio",
                   len(imbalance)),
            Metric("ebf.rounds_per_solve",
                   sum(s.rounds for s in stats) / points,
                   "count/solve", points),
            Metric("ebf.warm_rows_per_solve",
                   sum(s.warm_rows for s in stats) / points,
                   "count/solve", points),
        ]
        solves = sum(1 for s in inline if s.name == "ebf.solve")
        out += solve_path_metrics(inline, solves)
        out += coverage_metrics(ops, traced_wall, untraced_wall)
        self.notes.append(layer_note(self.name, "point (parent side)", spans,
                                     points))
        self.notes.append(layer_note(self.name, "solve (inline shards)", inline,
                                     solves))
        return out

    def peak_rss_mb(self) -> float:
        # Shard processes are reaped before this is read; at most JOBS of
        # them run at once, so count the largest one JOBS times.
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return vm_hwm_mb() + JOBS * child

    def reference_costs(self) -> dict:
        from repro.perf import solve_sweep_sharded
        from repro.topology import nearest_neighbor_topology

        out = {}
        for k, (sinks, grid) in enumerate(self.nets):
            topo = nearest_neighbor_topology(sinks, self.source)
            sols = solve_sweep_sharded(
                topo, grid, jobs=1, warm=True, backend="auto",
                check_bounds=False,
            )
            for p, sol in enumerate(sols):
                out[f"topo{k}/pt{p}"] = float(sol.cost)
        return out


# ---------------------------------------------------------------------------
# server-mix
# ---------------------------------------------------------------------------
#: One block of a client's stream, shuffled: 25 % repeats of its recent
#: requests, 45 % new windows on its recent nets, 30 % fresh nets.  Fixed
#: shares per block keep the mix, and so the cache-hit share, the same
#: on every seed.
BLOCK = ("repeat",) * 5 + ("window",) * 9 + ("fresh",) * 6
#: Request windows, as (lower, upper) multiples of the net radius.
WINDOWS = tuple(
    (lo, max(lo + w, 1.0))
    for lo in (0.5, 0.6, 0.7, 0.8, 0.9)
    for w in (0.2, 0.3, 0.4, 0.6)
)


@dataclass(eq=False)
class Request:
    key: str
    sinks: list
    topo: object
    bounds: object


def spawn_server(root: Path, workdir: Path):
    """Start ``lubt serve --port 0 --jobs 2``; return (process, port, log)."""
    log_path = workdir / f"server-{time.monotonic_ns()}.log"
    log = open(log_path, "w")
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--jobs", str(JOBS)],
        stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(root),
    )
    deadline = time.monotonic() + 60.0
    while True:
        m = re.search(r"listening on [\d.]+:(\d+)", log_path.read_text())
        if m:
            return proc, int(m.group(1)), log
        if proc.poll() is not None or time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            log.close()
            raise RuntimeError(
                "solve server did not start: " + log_path.read_text()[-2000:]
            )
        time.sleep(0.005)


def stop_server(proc, port: int, log) -> None:
    from repro.server import ServerClient

    try:
        with ServerClient(port=port, timeout=10, connect_retries=0) as c:
            c.shutdown()
        proc.wait(timeout=30)
    except Exception:  # noqa: BLE001 — fall through to a hard stop
        proc.kill()
        proc.wait()
    finally:
        log.close()


class ServerMix(Workload):
    """Two closed-loop clients against a ``lubt serve`` process."""

    name = "server-mix"
    tag = 4
    server = None

    def reference_sizes(self) -> dict:
        return {"stream": self.sizes.server_stream,
                "sinks": list(self.sizes.server_sinks)}

    def setup(self) -> None:
        from repro.data import uniform_sinks
        from repro.ebf import DelayBounds
        from repro.geometry import Point
        from repro.server import ServerClient
        from repro.topology import nearest_neighbor_topology

        self.source = Point(DIE / 2, DIE / 2)
        self.server = spawn_server(self.root, self.workdir)
        port = self.server[1]
        with ServerClient(port=port) as c:
            c.ping()

        # First-call set-up on both workers: two concurrent tiny solves.
        errors: list[BaseException] = []

        def warm(i: int) -> None:
            sinks = uniform_sinks(8, seed=1000 + i)
            r = radius(self.source, sinks)
            try:
                with ServerClient(port=port) as c:
                    c.solve(nearest_neighbor_topology(sinks, self.source),
                            DelayBounds.uniform(8, 0.8 * r, 1.2 * r))
            except Exception as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=warm, args=(i,)) for i in range(JOBS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]

    def _stream(self, client: int) -> list[Request]:
        from repro.data import clustered_sinks, uniform_sinks
        from repro.ebf import DelayBounds
        from repro.topology import nearest_neighbor_topology

        rng = np.random.default_rng([self.seed, self.tag, client])
        lo_m, hi_m = self.sizes.server_sinks
        nets: list[tuple[list, object, float, set]] = []
        seen: list[Request] = []
        out: list[Request] = []

        def request(j: int, w: int) -> Request:
            sinks, topo, r, used = nets[j]
            used.add(w)
            lo, hi = WINDOWS[w]
            b = DelayBounds.uniform(len(sinks), lo * r, hi * r)
            req = Request(f"c{client}/n{j}/w{w}", sinks, topo, b)
            seen.append(req)
            return req

        k = BLOCK.count("fresh")
        span = (hi_m - lo_m + 1) / k
        while len(out) < self.sizes.server_stream:
            # The block's fresh nets: sizes stratified over [lo_m, hi_m],
            # half of them clustered.
            fresh = list(zip(
                rng.permutation([lo_m + int((i + rng.random()) * span)
                                 for i in range(k)]),
                rng.permutation([i % 2 for i in range(k)]),
            ))
            for kind in rng.permutation(BLOCK):
                recent = [j for j in range(max(0, len(nets) - 20), len(nets))
                          if len(nets[j][3]) < len(WINDOWS)]
                if kind == "repeat" and seen:
                    out.append(seen[int(rng.integers(max(0, len(seen) - 100),
                                                     len(seen)))])
                elif kind == "window" and recent:
                    j = recent[int(rng.integers(len(recent)))]
                    free = [w for w in range(len(WINDOWS))
                            if w not in nets[j][3]]
                    out.append(request(j, free[int(rng.integers(len(free)))]))
                else:
                    # A repeat or window with nothing to draw on yet
                    # becomes a fresh net of random size.
                    m, clustered = fresh.pop() if fresh else (
                        rng.integers(lo_m, hi_m + 1), rng.random() < 0.5
                    )
                    gen = clustered_sinks if clustered else uniform_sinks
                    sinks = gen(int(m), seed=int(rng.integers(2**31)))
                    topo = nearest_neighbor_topology(sinks, self.source)
                    nets.append((sinks, topo, radius(self.source, sinks), set()))
                    out.append(request(len(nets) - 1,
                                       int(rng.integers(len(WINDOWS)))))
        return out[: self.sizes.server_stream]

    def prepare(self) -> None:
        self.streams = [self._stream(c) for c in range(JOBS)]

    def _clients(self, seconds: float, traced: bool):
        """Drive both clients for ``seconds``; returns (records, seconds
        from the start until the last client stopped)."""
        from repro.server import ServerClient, ServerError

        port = self.server[1]
        records: list[list[tuple]] = [[] for _ in self.streams]
        ends = [0.0] * len(self.streams)

        def loop(c: int) -> None:
            out = records[c]
            with ServerClient(port=port, timeout=60) as client:
                for i, req in enumerate(self.streams[c]):
                    if time.perf_counter() >= deadline:
                        break
                    on = traced and i % 2 == 0
                    self.tracer.set_local(on)
                    span = self.tracer.open("op") if on else None
                    t0 = time.perf_counter()
                    broken = False
                    try:
                        reply = client.solve(req.topo, req.bounds)
                        error = None
                    except ServerError as exc:  # error reply (busy included)
                        reply, error = None, f"{type(exc).__name__}: {exc}"
                    except Exception as exc:  # noqa: BLE001 — connection lost
                        reply, error = None, f"{type(exc).__name__}: {exc}"
                        broken = True
                    lat = time.perf_counter() - t0
                    if span is not None:
                        self.tracer.close(span)
                    out.append((req, reply, lat, error, span))
                    if broken:
                        break
            ends[c] = time.perf_counter()

        with ServerClient(port=port) as c:
            before = c.stats()
        threads = [threading.Thread(target=loop, args=(c,))
                   for c in range(len(self.streams))]
        start = time.perf_counter()
        deadline = start + seconds
        self.tracer.enabled = traced
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            self.tracer.enabled = False
        with ServerClient(port=port) as c:
            after = c.stats()
        self.stats_delta = {
            "hits": after["cache"]["hits"] - before["cache"]["hits"],
            "shed": after["shed"] - before["shed"],
            "errors": after["errors"] - before["errors"],
        }
        flat = [r for rs in records for r in rs]
        return flat, max(ends) - start

    def _check(self, records) -> None:
        views: dict[str, TreeView] = {}
        last_miss: dict[str, dict] = {}
        for req, reply, _, error, _ in records:
            if error is not None:
                self.tally.fail(f"{req.key}: {error}")
                continue
            res = reply["result"]
            key = reply["instance_key"]
            ref = self.reference_cost(req.key)
            if reply["cache_hit"] and key in last_miss:
                first = last_miss[key]
                same = all(res[f] == first[f]
                           for f in ("cost", "edge_lengths", "delays"))
                self.tally.record(
                    [] if same else ["cache hit differs from the first reply"],
                    ref is not None,
                )
                continue
            last_miss[key] = res
            net_key = req.key.rsplit("/", 1)[0]
            view = views.get(net_key)
            if view is None:
                view = views[net_key] = TreeView(req.topo)
            self.record(view, res["edge_lengths"], req.bounds.lower,
                        req.bounds.upper, res["cost"], req.key)

    def run(self, seconds: float) -> list[Metric]:
        records, window = self._clients(seconds, traced=False)
        self._check(records)
        lat = [r[2] for r in records if r[3] is None]
        if not lat:
            return []
        n = len(lat)
        if n < 1000:
            self.notes.append(
                f"note {self.name}: req_p99_ms has {n} samples; it is valid "
                f"from 1000 (ten beyond the 99th percentile)"
            )
        return [
            Metric("ops_per_s", n / window, "1/s", n),
            Metric("req_p50_ms", median_ms(lat), "ms", n),
            Metric("req_p99_ms", 1e3 * percentile(lat, 99), "ms", n),
            Metric("req_per_s", n / window, "1/s", n),
        ]

    def run_traced(self, seconds: float) -> list[Metric]:
        records, _ = self._clients(seconds, traced=True)
        self._check(records)
        spans = self.tracer.reset()
        ok = [r for r in records if r[3] is None]
        hits = [r for r in ok if r[1]["cache_hit"]]
        misses = [r for r in ok if not r[1]["cache_hit"]]
        traced = [r for r in ok if r[4] is not None]
        traced_hits = sum(1 for r in hits if r[4] is not None)
        t = totals(spans)

        def wall(r) -> float:
            return r[1]["result"]["stats"]["wall_seconds"]

        covered = t["data.encode"].busy + sum(
            wall(r) for r in traced if not r[1]["cache_hit"]
        )
        total = sum(r[2] for r in traced)
        nm = max(1, len(misses))
        out = [
            Metric("data.encode_ms",
                   1e3 * t["data.encode"].busy / max(1, len(traced)),
                   "ms", len(traced)),
            Metric("server.hit_ratio",
                   self.stats_delta["hits"] / max(1, len(records)),
                   "ratio", len(records)),
            Metric("server.hit_ms_p50",
                   median_ms([r[2] for r in hits]) if hits else 0.0,
                   "ms", len(hits)),
            Metric("server.solve_ms_p50",
                   median_ms([wall(r) for r in misses]) if misses else 0.0,
                   "ms", len(misses)),
            Metric("server.wait_ms_p50",
                   median_ms([r[2] - wall(r) for r in misses])
                   if misses else 0.0, "ms", len(misses)),
            Metric("server.shed", float(self.stats_delta["shed"]), "count", 1),
            Metric("server.errors", float(self.stats_delta["errors"]),
                   "count", 1),
            Metric("ebf.rounds_per_solve",
                   sum(r[1]["result"]["stats"]["rounds"] for r in misses) / nm,
                   "count/solve", len(misses)),
            Metric("ebf.warm_rows_per_solve",
                   sum(r[1]["warm_rows"] for r in misses) / nm,
                   "count/solve", len(misses)),
            Metric("uncovered_share", (total - covered) / total if total else 0.0,
                   "ratio", len(traced)),
            # Cache hits: the one homogeneous population of requests.
            Metric("trace_overhead",
                   statistics.median(r[2] for r in hits if r[4] is not None)
                   / statistics.median(r[2] for r in hits if r[4] is None)
                   if traced_hits and len(hits) > traced_hits else 0.0,
                   "ratio", len(hits)),
        ]
        from repro.topology import nearest_neighbor_topology

        picked = misses[: self.sizes.server_resolve]
        inline = self.resolve_traced([
            (nearest_neighbor_topology(r[0].sinks, self.source), r[0].bounds, {})
            for r in picked
        ])
        out += solve_path_metrics(inline, len(picked))
        self.notes.append(layer_note(self.name, "traced request (client side)",
                                     spans, max(1, len(traced))))
        self.notes.append(layer_note(self.name, "solve (inline re-solve)",
                                     inline, max(1, len(picked))))
        return out

    def peak_rss_mb(self) -> float:
        proc = self.server[0]
        return vm_hwm_mb() + vm_hwm_mb(proc.pid) + sum(
            vm_hwm_mb(p) for p in child_pids(proc.pid)
        )

    def reference_costs(self) -> dict:
        from repro.ebf import solve_lubt

        out = {}
        for stream in self.streams:
            for req in stream:
                if req.key not in out:
                    out[req.key] = float(solve_lubt(req.topo, req.bounds).cost)
        return out

    def close(self) -> None:
        if self.server is not None:
            proc, port, log = self.server
            self.server = None
            stop_server(proc, port, log)


WORKLOADS = {
    w.name: w for w in (LargeNet, CtsChip, BoundSweep, ServerMix)
}
