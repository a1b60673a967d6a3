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

A sweep-engine gate rides along (see docs/PERFORMANCE.md): a 16-point
fig8-style bound sweep at 64 sinks on the lazy loop (``backend="scipy"``:
warm rows only feed the loop) must run at least ``--sweep-factor``
(default 2x) faster warm-started than cold, with bit-identical canonical
per-point costs; fresh timings are written to ``BENCH_sweep.json`` at the
repo root.

A tree-backend gate rides along as well: at ``--tree-sinks`` (default
1024) the structure-aware ``backend="tree"`` solve must beat the lazy
loop on HiGHS (``backend="scipy"``, the best generic backend at that
size) by ``--tree-factor`` (default 2x — deliberately far below the
>= 10x recorded in ``BENCH_scaling.json``'s ``tree_tier``, to absorb
CI-runner noise) with canonically identical cost.  On that solution the
O(n log n) Steiner certificate (``max_steiner_violation``) must match the
pair scan's maximum within its rounding guard and run at least
``CERT_FACTOR`` (5x) faster than the post-check scan it replaces, best of
3 each.  The tree solve starts from the tour start
(``repro.lp.treesolve.tour_basis``), so it must also take at most
``TOUR_PIVOTS`` (0.06) times the pivots ``linprog`` takes on the same
collapsed model from HiGHS's own start: a solve that silently fell back
to the crash basis takes 0.18x.  The same model solved from the crash
basis (``repro.lp.treesolve.crash_basis``, the start below
``TOUR_MIN_SINKS`` and the fallback) must take at most ``CRASH_PIVOTS``
(0.25) times ``linprog``'s pivots: a crash that stopped being dual
feasible would only send HiGHS back to its phase 1, and one that routed
every Steiner node down a monotonicity row instead of its binding
geometry row takes 0.28x, neither of which an answer check notices.
At the same size a ``resilient=True`` ``auto`` solve must take the
direct tree path (backend ``tree``, one round) to the tree solve's
canonical cost, and an infeasibility diagnosis under upper bounds of
0.9 x radius must give relaxed bounds that re-solve with every delay
inside them; both times are printed.  Last, it prints the stage split
of ``large-net`` ops at that size (perfbench's nets, the median of
``STAGE_OPS`` ops): the topology build and ``embed_tree`` together may
take at most ``STAGES_SHARE`` (0.12) of the tree solve, which the
recursive H-tree cut (0.15-0.18) fails.

No pytest / pytest-benchmark needed — plain stdlib + repro, so the CI
job installs numpy and scipy only:

    PYTHONPATH=src python benchmarks/perf_smoke.py --sizes 16,32,64 --jobs 2
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from repro.data import load_benchmark
from repro.delay import node_delays_linear
from repro.ebf import (
    DelayBounds,
    canonical_cost,
    solve_lubt,
    solve_sweep,
    steiner_violations,
)
from repro.ebf.bounds import radius_of
from repro.ebf.constraints import max_steiner_violation, steiner_certificate
from repro.geometry import manhattan_radius_from
from repro.perf import SolveTask, run_many, solve_many
from repro.resilience import diagnose_infeasibility
from repro.topology import nearest_neighbor_topology

REPO_ROOT = Path(__file__).parent.parent

#: The fig8-style sweep gate: 2 widths x 8 lower bounds = 16 points.
SWEEP_WIDTHS = (0.1, 0.5)
SWEEP_LOWERS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.25, 0.0)
SWEEP_SINKS = 64

#: The Steiner certificate must beat the post-check pair scan by this
#: factor at ``--tree-sinks`` (best of 3 each).
CERT_FACTOR = 5.0

#: The crash-started tree solve may take at most this share of the
#: pivots ``linprog`` takes on the same collapsed model (0.18 measured
#: at 1024 sinks; a crash that skips the binding geometry rows and
#: routes every Steiner node down a monotonicity row takes 0.28).
CRASH_PIVOTS = 0.25

#: The default tree solve, which starts at the tour start, may take at
#: most this share of ``linprog``'s pivots (308 of 11,834, 0.026,
#: measured at 1024 sinks; the crash's 0.18 fails it).
TOUR_PIVOTS = 0.06

#: In a ``large-net`` op at ``--tree-sinks``, the topology build and
#: ``embed_tree`` together may take at most this share of the tree solve
#: (0.076-0.098 measured at 1024 sinks on 2 vCPUs; 0.153-0.175 with the
#: recursive H-tree cut the level sweep replaced).
STAGES_SHARE = 0.12

#: Large-net ops the stage split takes the median of.
STAGE_OPS = 6

#: The stages of a ``large-net`` op outside ``build_net_topology``, as
#: (module, owner attribute, function, stage): each is timed while the op
#: runs.  ``_solve_highs`` runs the cold starts and ``_accepts`` inside
#: it; the HiGHS call is what is left of it.
STAGE_HOOKS = (
    ("repro.ebf.solver", None, "_precheck", "_precheck"),
    ("repro.ebf.bounds", "DelayBounds", "check", "DelayBounds.check"),
    ("repro.ebf.solver", None, "build_tree_lp", "build_tree_lp"),
    ("repro.lp.treesolve", None, "collapsed_tree_lp", "collapsed_tree_lp"),
    ("repro.lp.treesolve", None, "tour_basis", "tour_basis"),
    ("repro.lp.treesolve", None, "crash_basis", "crash_basis"),
    ("repro.lp.treesolve", None, "_accepts", "_accepts"),
    ("repro.lp.treesolve", None, "_solve_highs", "HiGHS call"),
    ("repro.ebf.solver", None, "_validate_solution", "_validate_solution"),
    ("repro.embedding.pipeline", None, "embed_tree", "embed_tree"),
)

#: perfbench's directory.  Its modules import one another by bare name
#: (``from tracing import ...``), so it goes on ``sys.path`` for them.
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(module: str):
    """perfbench's ``module`` (``tracing``, ``workloads``)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(module)


@functools.cache
def _tracer():
    """One perfbench span tracer for every stage split of the run."""
    return _perfbench("tracing").Tracer()


@contextlib.contextmanager
def stage_spans():
    """Wrap every :data:`STAGE_HOOKS` function in perfbench's tracer for
    the block, with tracing on; yields the tracer, whose spans are
    named by stage."""
    tracer = _tracer()
    patched = []
    for module, owner, name, stage in STAGE_HOOKS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        real = getattr(target, name)
        patched.append((target, name, real))
        setattr(target, name, tracer.wrap(real, stage))
    tracer.reset()
    tracer.enabled = True
    try:
        yield tracer
    finally:
        tracer.enabled = False
        for target, name, real in reversed(patched):
            setattr(target, name, real)


def large_net_nets(sinks: int, count: int, seed: int = 1):
    """perfbench ``large-net``'s nets at ``sinks`` sinks, as its
    ``LargeNet.prepare`` builds them: ``count`` nets, uniform and
    clustered in turn, window [0.8, 1.2] x radius; each as ``(sinks,
    source, bounds)``."""
    workloads = _perfbench("workloads")
    net = workloads.LargeNet(
        workloads.Sizes(large_sinks=sinks, large_pool=count),
        seed, _tracer(), PERFBENCH, PERFBENCH,
    )
    net.setup()
    net.prepare()
    return [(pts, net.source, bounds) for pts, bounds in net.nets]


def large_net_op(sinks, source, bounds) -> tuple[dict[str, float], object]:
    """One ``large-net`` op (``build_net_topology``, then
    ``solve_and_embed(backend="tree")``) split by stage: milliseconds per
    stage, ``tree solve`` (``solve_lubt``) and ``op`` (the whole op)."""
    from repro.embedding import solve_and_embed
    from repro.topology import build_net_topology

    with stage_spans() as tracer:
        t0 = time.perf_counter()
        topo = build_net_topology(sinks, source)
        t1 = time.perf_counter()
        sol, _ = solve_and_embed(topo, bounds, backend="tree")
        t2 = time.perf_counter()
    spent: dict[str, float] = defaultdict(float)
    for span in tracer.reset():
        # The HiGHS call is what its wrapper spends outside the starts
        # and _accepts, the spans nested in it.
        spent[span.name] += (
            span.self_time if span.name == "HiGHS call" else span.duration
        )
    spent["build_net_topology"] = t1 - t0
    stages = ("build_net_topology",) + tuple(h[3] for h in STAGE_HOOKS)
    spent["rest"] = t2 - t0 - sum(spent[k] for k in stages)
    spent["tree solve"] = t2 - t1 - spent["embed_tree"]
    spent["op"] = t2 - t0
    return {k: 1e3 * spent[k] for k in stages + ("rest", "tree solve", "op")}, sol


def stage_split(nets, ops: int) -> dict[str, float]:
    """Median milliseconds per stage over ``ops`` ops cycling ``nets``,
    after one untimed op per net."""
    for net in nets:
        large_net_op(*net)
    runs = [large_net_op(*nets[k % len(nets)])[0] for k in range(ops)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def format_split(split: dict[str, float]) -> str:
    return ", ".join(f"{k} {v:.2f}" for k, v in split.items() if v > 0)


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
    pivots = tree_sol.stats.lp_iterations
    cold = _linprog_pivots(topo, bounds)
    crash = _crash_pivots(topo, bounds)
    if pivots > TOUR_PIVOTS * cold:
        failures.append(
            f"tree LP took {pivots} pivots > {TOUR_PIVOTS:g} x linprog's "
            f"{cold} at {sinks} sinks (did it start from the crash?)"
        )
    if crash > CRASH_PIVOTS * cold:
        failures.append(
            f"crash-started tree LP took {crash} pivots > {CRASH_PIVOTS:g}"
            f" x linprog's {cold} at {sinks} sinks"
        )
    print(
        f"tree backend ({sinks} sinks): tree {tree_seconds:.3f}s vs "
        f"{gen_sol.stats.backend} {gen_seconds:.3f}s = {speedup:.1f}x, "
        f"{pivots} LP iterations (crash start: {crash}) vs linprog's "
        f"{cold} on the same model ({pivots / cold:.3f}x, "
        f"{crash / cold:.2f}x), costs "
        + ("match" if not failures else "DIFFER/SLOW")
    )
    return (
        failures
        + check_certificate(topo, tree_sol.edge_lengths)
        + check_resilience(topo, tree_sol)
        + check_stages(sinks)
    )


def check_stages(sinks: int) -> list[str]:
    """Stage gate: the split of ``large-net`` ops at ``sinks`` (median of
    :data:`STAGE_OPS`), where the topology build and ``embed_tree`` may
    take at most :data:`STAGES_SHARE` of the tree solve."""
    split = stage_split(large_net_nets(sinks, 2), STAGE_OPS)
    share = (split["build_net_topology"] + split["embed_tree"]) / split[
        "tree solve"
    ]
    print(f"large-net stages ({sinks} sinks, ms): {format_split(split)}")
    print(
        f"topology build + embed_tree = {share:.3f} x the tree solve "
        f"(gate {STAGES_SHARE:g})"
    )
    if share > STAGES_SHARE:
        return [
            f"topology build + embed_tree took {share:.3f} x the tree solve "
            f"> {STAGES_SHARE:g} at {sinks} sinks ({format_split(split)})"
        ]
    return []


def check_resilience(topo, tree_sol) -> list[str]:
    """Resilience gate: a resilient ``auto`` solve answers on the direct
    tree path with the tree solve's canonical cost, and a diagnosis under
    upper bounds of 0.9 x radius relaxes them into bounds the re-solve
    meets."""
    failures = []
    m = topo.num_sinks
    t0 = time.perf_counter()
    sol = solve_lubt(topo, tree_sol.bounds, check_bounds=False, resilient=True)
    solve_seconds = time.perf_counter() - t0
    if (sol.stats.backend, sol.stats.rounds) != ("tree", 1):
        failures.append(
            f"resilient auto solve ran {sol.stats.backend} in "
            f"{sol.stats.rounds} round(s), not the tree LP, at {m} sinks"
        )
    if canonical_cost(sol.cost) != canonical_cost(tree_sol.cost):
        failures.append(
            f"resilient cost {sol.cost!r} != tree {tree_sol.cost!r} "
            f"(canonical) at {m} sinks"
        )
    bounds = DelayBounds.uniform(m, 0.0, 0.9 * radius_of(topo))
    t0 = time.perf_counter()
    diag = diagnose_infeasibility(topo, bounds)
    diag_seconds = time.perf_counter() - t0
    relaxed = solve_lubt(topo, diag.relaxed_bounds, check_bounds=False)
    inside = diag.relaxed_bounds.satisfied_by(relaxed.delays)
    if not diag.conflicting or not inside:
        failures.append(
            f"diagnosis at upper 0.9 x radius named "
            f"{len(diag.conflicting)} sink(s); relaxed re-solve delays "
            f"{'inside' if inside else 'OUTSIDE'} the relaxed bounds at "
            f"{m} sinks"
        )
    print(
        f"resilience ({m} sinks): resilient auto solve "
        f"{solve_seconds:.3f}s on {sol.stats.backend} in "
        f"{sol.stats.rounds} round(s); diagnosis at upper 0.9 x radius "
        f"{diag_seconds:.3f}s, {len(diag.conflicting)} conflicting "
        f"sink(s), relaxed re-solve "
        + ("inside its bounds" if inside else "OUTSIDE its bounds")
    )
    return failures


def _linprog_pivots(topo, bounds) -> int:
    """Pivots of ``linprog``'s dual simplex (Dantzig pricing, the tree
    LP's settings from any start but the tour start) on the collapsed
    model of ``(topo, bounds)``, from HiGHS's own start."""
    import numpy as np
    from scipy.optimize import linprog

    from repro.ebf.formulation import build_tree_lp
    from repro.lp.treesolve import collapsed_tree_lp

    model = collapsed_tree_lp(build_tree_lp(topo, bounds))
    res = linprog(
        model.c,
        A_ub=model.a_ub,
        b_ub=model.b_ub,
        bounds=np.column_stack([model.lb, model.ub]),
        method="highs-ds",
        options={"simplex_dual_edge_weight_strategy": "dantzig"},
    )
    return int(res.nit)


def _crash_pivots(topo, bounds) -> int:
    """Pivots of the tree LP on the collapsed model of ``(topo,
    bounds)`` from the crash basis."""
    from repro.ebf.formulation import build_tree_lp
    from repro.lp.treesolve import _solve_highs, collapsed_tree_lp, crash_basis

    model = collapsed_tree_lp(build_tree_lp(topo, bounds))
    return _solve_highs(model, [(crash_basis(model), ())], False)[1]


def _best_of_3(fn):
    out, best = None, float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def check_certificate(topo, e) -> list[str]:
    """Certificate gate: ``max_steiner_violation`` equals the pair scan's
    maximum (within the certificate's rounding guard) and beats the
    post-check scan (``tol=1e-5, limit=1``) by ``CERT_FACTOR``."""
    failures = []
    worst, cert_seconds = _best_of_3(lambda: max_steiner_violation(topo, e))
    _, scan_seconds = _best_of_3(
        lambda: steiner_violations(topo, e, tol=1e-5, limit=1)
    )
    scan_max = steiner_violations(topo, e, tol=-float("inf"), limit=1)[0][2]
    _, guard = steiner_certificate(topo, node_delays_linear(topo, e))
    if abs(worst - scan_max) > guard:
        failures.append(
            f"certificate worst pair {worst!r} != scan maximum "
            f"{scan_max!r} (guard {guard:.3g}) at {topo.num_sinks} sinks"
        )
    ratio = scan_seconds / cert_seconds if cert_seconds > 0 else float("inf")
    if ratio < CERT_FACTOR:
        failures.append(
            f"certificate {1e3 * cert_seconds:.2f} ms is only {ratio:.1f}x "
            f"faster than the scan's {1e3 * scan_seconds:.2f} ms (need "
            f"{CERT_FACTOR:g}x) at {topo.num_sinks} sinks"
        )
    print(
        f"Steiner certificate ({topo.num_sinks} sinks): "
        f"{1e3 * cert_seconds:.2f} ms vs scan {1e3 * scan_seconds:.2f} ms "
        f"= {ratio:.0f}x, worst pair {worst:.6g} vs scan {scan_max:.6g}"
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
                    help="skip the warm-vs-cold sweep gate")
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
