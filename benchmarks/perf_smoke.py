"""CI perf smoke: catch gross solve-time regressions and pool breakage.

Runs the ``bench_scaling`` protocol (prim2 prefixes, default
``solve_lubt`` options, window [0.8, 1.2] x radius) at small sizes,
compares fresh best-of-3 wall times against the committed
``BENCH_scaling.json``, and fails if any size regressed by more than
``--factor`` (default 2x — loose enough for CI-runner noise, tight
enough to catch the default path falling back to the lazy loop).
Also proves the batch executor end to end: ``solve_many`` with workers
must reproduce the serial costs bit for bit, and a deliberately hung
task sent through ``run_many`` (one resident worker, 1 s timeout) must
come back ``timed_out`` within seconds — its worker killed, not waited
out.

Two sweep-engine gates ride along (see docs/PERFORMANCE.md):

* **warm vs cold** — a 16-point fig8-style bound sweep at 64 sinks on
  the lazy loop (``backend="scipy"``: warm rows only feed the loop) must
  run at least ``--sweep-factor`` (default 2x) faster warm-started than
  cold, with bit-identical canonical per-point costs; fresh timings are
  written to ``BENCH_sweep.json`` at the repo root.
* **racing equivalence** — ``race="auto"`` must return the same
  canonical cost as the sequential solve and record every backend,
  cancelled losers included (the tree backend races too and must show
  up in the attempt log).

A tree-backend gate rides along as well: at ``--tree-sinks`` (default
1024) the structure-aware ``backend="tree"`` solve must beat the lazy
loop on HiGHS (``backend="scipy"``, the best generic backend at that
size) by ``--tree-factor`` (default 2x — deliberately far below the
>= 10x recorded in ``BENCH_scaling.json``'s ``tree_tier``, to absorb
CI-runner noise) with canonically identical cost.

No pytest / pytest-benchmark needed — plain stdlib + repro, so the CI
job installs numpy and scipy only:

    PYTHONPATH=src python benchmarks/perf_smoke.py --sizes 16,32,64 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.data import load_benchmark
from repro.ebf import DelayBounds, canonical_cost, solve_lubt, solve_sweep
from repro.geometry import manhattan_radius_from
from repro.perf import SolveTask, run_many, solve_many
from repro.topology import nearest_neighbor_topology

REPO_ROOT = Path(__file__).parent.parent

#: The fig8-style sweep gate: 2 widths x 8 lower bounds = 16 points.
SWEEP_WIDTHS = (0.1, 0.5)
SWEEP_LOWERS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.25, 0.0)
SWEEP_SINKS = 64


def _instance(size: int) -> SolveTask:
    bench = load_benchmark("prim2").scaled(size)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    bounds = DelayBounds.uniform(size, 0.8 * radius, 1.2 * radius)
    return SolveTask(topo, bounds, {"check_bounds": False})


def _best_of(task: SolveTask, repeats: int) -> tuple[float, object]:
    best, sol = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        sol = solve_lubt(task.topo, task.bounds, **dict(task.options))
        best = min(best, time.perf_counter() - t0)
    return best, sol


def check_timings(sizes, baseline_path: Path, factor: float, repeats: int) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    committed = {r["sinks"]: r for r in baseline["sizes"]}
    failures = []
    print(f"{'sinks':>6} {'committed':>10} {'fresh':>10} {'ratio':>7}  verdict")
    for size in sizes:
        if size not in committed:
            failures.append(f"size {size} missing from {baseline_path.name}")
            continue
        ref = committed[size]
        fresh, sol = _best_of(_instance(size), repeats)
        if abs(sol.cost - ref["cost"]) > 1e-6 * max(1.0, ref["cost"]):
            failures.append(
                f"size {size}: cost drifted {ref['cost']:.6f} -> {sol.cost:.6f}"
            )
        ratio = fresh / ref["seconds"] if ref["seconds"] > 0 else float("inf")
        verdict = "ok" if ratio <= factor else f"REGRESSED (> {factor:g}x)"
        print(
            f"{size:>6} {ref['seconds']:>10.4f} {fresh:>10.4f} "
            f"{ratio:>6.2f}x  {verdict}"
        )
        if ratio > factor:
            failures.append(
                f"size {size}: {fresh:.4f}s vs committed "
                f"{ref['seconds']:.4f}s ({ratio:.2f}x > {factor:g}x)"
            )
    return failures


def check_pool(sizes, jobs: int) -> list[str]:
    failures = []
    tasks = [_instance(s) for s in sizes]
    serial = [o.unwrap() for o in solve_many(tasks, jobs=1)]
    pooled = [o.unwrap() for o in solve_many(tasks, jobs=jobs)]
    for size, s, p in zip(sizes, serial, pooled):
        if s.cost != p.cost or (s.edge_lengths != p.edge_lengths).any():
            failures.append(f"size {size}: jobs={jobs} result differs from serial")
    print(f"pool equivalence (jobs={jobs}): "
          + ("FAILED" if failures else f"identical on sizes {list(sizes)}"))

    # Pool fork, 1 s timeout, SIGKILL and replacement of the hung
    # worker, pool close: all well inside the 10 s budget.
    t0 = time.perf_counter()
    outcomes = run_many(time.sleep, [(60,)], jobs=jobs, timeout=1.0)
    elapsed = time.perf_counter() - t0
    if not outcomes[0].timed_out:
        failures.append("hung task did not report timed_out")
    if elapsed > 10.0:
        failures.append(
            f"run_many timeout took {elapsed:.1f}s — hung worker not killed?"
        )
    print(f"run_many timeout kill: "
          f"{'FAILED' if not outcomes[0].timed_out else 'ok'} "
          f"({elapsed:.2f}s for a 60s task under a 1s limit)")
    return failures


def _sweep_instance(size: int):
    bench = load_benchmark("prim1").scaled(size)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    grid = [(w, lo) for w in SWEEP_WIDTHS for lo in SWEEP_LOWERS]
    bounds_list = [
        DelayBounds.uniform(size, lo * radius, max(lo + w, 1.0) * radius)
        for w, lo in grid
    ]
    return topo, grid, bounds_list


def check_sweep(
    factor: float, repeats: int, out_path: Path | None
) -> list[str]:
    """Warm-started sweep gate: >= ``factor``x faster than cold at 64
    sinks, canonical per-point costs bit-identical; fresh timings land
    in ``BENCH_sweep.json``."""
    failures = []
    topo, grid, bounds_list = _sweep_instance(SWEEP_SINKS)

    def _run(warm: bool) -> tuple[float, list]:
        best, sols = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            sols = solve_sweep(
                topo, bounds_list, warm=warm, check_bounds=False,
                backend="scipy",
            )
            best = min(best, time.perf_counter() - t0)
        return best, sols

    cold_seconds, cold = _run(False)
    warm_seconds, warm = _run(True)
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")

    mismatches = [
        i
        for i, (c, w) in enumerate(zip(cold, warm))
        if canonical_cost(c.cost) != canonical_cost(w.cost)
    ]
    if mismatches:
        failures.append(
            f"warm sweep canonical costs differ from cold at points "
            f"{mismatches}"
        )
    if speedup < factor:
        failures.append(
            f"warm sweep speedup {speedup:.2f}x < required {factor:g}x "
            f"(cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s)"
        )
    print(
        f"warm sweep ({len(bounds_list)} points, {SWEEP_SINKS} sinks): "
        f"cold {cold_seconds:.3f}s, warm {warm_seconds:.3f}s, "
        f"{speedup:.2f}x, costs "
        + ("bit-identical" if not mismatches else "DIFFER")
    )

    if out_path is not None:
        data = {
            "protocol": (
                f"prim1[{SWEEP_SINKS}], fig8-style grid "
                f"widths={list(SWEEP_WIDTHS)} x lowers={list(SWEEP_LOWERS)}, "
                f"lazy mode on scipy, best of {repeats}"
            ),
            "points": len(bounds_list),
            "sinks": SWEEP_SINKS,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "required_speedup": factor,
            "costs_bit_identical": not mismatches,
            "sweep": [
                {
                    "width": w,
                    "lower": lo,
                    "canonical_cost": canonical_cost(c.cost),
                    "cold_rounds": c.stats.rounds,
                    "warm_rounds": wm.stats.rounds,
                    "warm_rows": wm.stats.warm_rows,
                }
                for (w, lo), c, wm in zip(grid, cold, warm)
            ],
        }
        out_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out_path}")
    return failures


def check_race() -> list[str]:
    """Racing equivalence: ``race="auto"`` must return the sequential
    answer (canonically) and record every chain backend per LP — the
    tree backend included."""
    failures = []
    topo, _, bounds_list = _sweep_instance(32)
    bounds = bounds_list[0]
    seq = solve_lubt(topo, bounds, check_bounds=False)
    raced = solve_lubt(topo, bounds, check_bounds=False, race="auto")
    if canonical_cost(seq.cost) != canonical_cost(raced.cost):
        failures.append(
            f"raced cost {raced.cost!r} != sequential {seq.cost!r} "
            "(canonical)"
        )
    if not raced.solve_reports:
        failures.append("race='auto' produced no solve reports")
    for rep in raced.solve_reports:
        if len(rep.attempts) < 2:
            failures.append(
                "race report is missing the losing backend: "
                + ", ".join(a.backend for a in rep.attempts)
            )
            break
    if raced.solve_reports and not any(
        a.backend == "tree"
        for rep in raced.solve_reports
        for a in rep.attempts
    ):
        failures.append("tree backend never appeared in race attempts")
    cancelled = sum(
        1
        for rep in raced.solve_reports
        for a in rep.attempts
        if a.outcome == "cancelled"
    )
    print(
        f"racing equivalence: {len(raced.solve_reports)} LP(s), "
        f"{cancelled} cancelled loser(s), costs "
        + ("match" if not failures else "DIFFER")
    )
    return failures


def check_tree(sinks: int, factor: float) -> list[str]:
    """Tree-backend gate: at ``sinks`` the structure-aware solve must
    beat the lazy loop on HiGHS by ``factor`` with a canonically
    identical cost."""
    from repro.data import synth_instance

    failures = []
    topo, bounds = synth_instance(sinks, 1996)

    def _timed(backend):
        t0 = time.perf_counter()
        sol = solve_lubt(topo, bounds, backend=backend, check_bounds=False)
        return sol, time.perf_counter() - t0

    tree_sol, tree_seconds = _timed("tree")
    gen_sol, gen_seconds = _timed("scipy")
    speedup = gen_seconds / tree_seconds if tree_seconds > 0 else float("inf")
    if canonical_cost(tree_sol.cost) != canonical_cost(gen_sol.cost):
        failures.append(
            f"tree cost {tree_sol.cost!r} != generic {gen_sol.cost!r} "
            f"(canonical) at {sinks} sinks"
        )
    if speedup < factor:
        failures.append(
            f"tree speedup {speedup:.2f}x < required {factor:g}x at "
            f"{sinks} sinks (tree {tree_seconds:.3f}s, "
            f"{gen_sol.stats.backend} {gen_seconds:.3f}s)"
        )
    print(
        f"tree backend ({sinks} sinks): tree {tree_seconds:.3f}s vs "
        f"{gen_sol.stats.backend} {gen_seconds:.3f}s = {speedup:.1f}x, "
        f"{tree_sol.stats.lp_iterations} LP iterations, costs "
        + ("match" if not failures else "DIFFER/SLOW")
    )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="16,32,64",
                    help="comma-separated sink counts (default 16,32,64)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="worker count for the pool equivalence check")
    ap.add_argument("--baseline", type=Path,
                    default=REPO_ROOT / "BENCH_scaling.json")
    ap.add_argument("--factor", type=float, default=2.0,
                    help="fail when fresh/committed exceeds this (default 2.0)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N timing repeats (default 3)")
    ap.add_argument("--sweep-factor", type=float, default=2.0,
                    help="warm sweep must beat cold by this factor "
                    "(default 2.0)")
    ap.add_argument("--sweep-out", type=Path,
                    default=REPO_ROOT / "BENCH_sweep.json",
                    help="where to write fresh sweep timings")
    ap.add_argument("--skip-sweep", action="store_true",
                    help="skip the warm-vs-cold sweep and racing gates")
    ap.add_argument("--tree-sinks", type=int, default=1024,
                    help="sink count for the tree-backend gate "
                    "(default 1024)")
    ap.add_argument("--tree-factor", type=float, default=2.0,
                    help="tree backend must beat the best generic backend "
                    "by this factor (default 2.0)")
    ap.add_argument("--skip-tree", action="store_true",
                    help="skip the tree-backend speedup gate")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]

    failures = check_timings(sizes, args.baseline, args.factor, args.repeats)
    failures += check_pool(sizes, args.jobs)
    if not args.skip_sweep:
        failures += check_sweep(args.sweep_factor, args.repeats, args.sweep_out)
        failures += check_race()
    if not args.skip_tree:
        failures += check_tree(args.tree_sinks, args.tree_factor)

    if failures:
        print("\nperf smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
