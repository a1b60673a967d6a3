"""Scaling study: LUBT solve cost vs net size.

Not a paper table, but the performance claim behind Section 4.6 and the
LOQO remark deserves data: how do lazy row generation and the HiGHS
backend scale with sink count?  Produces a table of sink count vs
constraints used, rounds, and wall time for the lazy loop next to the
default path's wall time, benchmarks a mid-size solve, and measures the
sink count from which ``backend="auto"`` should take the direct tree path
(``auto_crossover``).
"""

import contextlib
import json
import os
import statistics
import time
from pathlib import Path

import pytest
from conftest import full_run, load_scaled, save_output
from perf_smoke import STAGES_SHARE, large_net_nets, large_net_op

from repro.analysis import Table
from repro.data import load_benchmark, synth_instance
from repro.ebf import DelayBounds, solve_lubt
from repro.ebf.formulation import build_tree_lp
from repro.ebf.solver import TREE_MIN_SINKS
from repro.ebf.sweep import canonical_cost
from repro.embedding import solve_and_embed
from repro.geometry import manhattan_radius_from
from repro.lp import solve_tree
from repro.topology import nearest_neighbor_topology

SIZES_QUICK = (16, 32, 64, 128)
SIZES_FULL = (16, 32, 64, 128, 256, 603)

#: Tree-backend tier: synthetic sink counts beyond the paper's suites.
TREE_SIZES_QUICK = (1024,)
TREE_SIZES_FULL = (1024, 4096)

#: ``auto`` crossover sweep: sink counts, and seeds per placement kind.
CROSSOVER_SIZES = (4, 6, 7, 8, 9, 10, 12, 16, 24, 32)
CROSSOVER_SEEDS = range(8)

#: Tour start crossover sweep (``auto`` topology: bipartition up to 256
#: sinks, H-tree beyond), and seeds per placement kind.
TOUR_CROSSOVER_SIZES = (96, 128, 160, 192, 256, 384, 512)
TOUR_CROSSOVER_SEEDS = range(6)

#: ``large_net_stages``: perfbench ``large-net`` nets at its size, and
#: ops per net and pricing.
STAGE_SINKS = 2048
STAGE_NETS = 4
STAGE_ROUNDS = 6

#: Chip-scale point: tree backend only — the generic LP at this size
#: would run for hours (4096 already takes ~6 minutes, see the
#: committed tree_tier), so there is no comparison column to record.
TREE_XL_SINKS = 10240

#: Committed reference timings, consumed by ``benchmarks/perf_smoke.py``.
BASELINE_PATH = Path(__file__).parent.parent / "BENCH_scaling.json"

#: Wall seconds on the same protocol *before* the incremental-assembly /
#: vectorized-row-builder engine (commit b4921d5), best of 3.  Kept so the
#: speedup the engine bought stays measurable against any later run.
PRE_ENGINE_SECONDS = {16: 0.0116, 32: 0.1057, 64: 0.1139, 128: 0.9212}


def _update_baseline(**updates):
    """Merge ``updates`` into BENCH_scaling.json (the generic-scaling and
    tree-tier tests each own different keys of the same file)."""
    data = {}
    if BASELINE_PATH.exists():
        data = json.loads(BASELINE_PATH.read_text())
    data.update(updates)
    BASELINE_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def _prim2_instance(size):
    bench = load_benchmark("prim2").scaled(size)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    return topo, DelayBounds.uniform(size, 0.8 * radius, 1.2 * radius)


def _best_wall(topo, bounds, backend, repeats=3):
    """Best-of-``repeats`` end-to-end ``solve_lubt`` wall (pre-check and
    validation included, as ``perf_smoke.py`` times it) and a solution."""
    best, sol = float("inf"), None
    for _ in range(repeats):
        sol, seconds = _timed_solve(topo, bounds, backend)
        best = min(best, seconds)
    return best, sol


def _solve_at(size):
    topo, bounds = _prim2_instance(size)
    # Solve + embed so the sidecar records the embedding phase too
    # (stats.wall_seconds stays solver-only; embed_seconds is separate).
    sol, _ = solve_and_embed(topo, bounds, check_bounds=False)
    return sol


def test_scaling_table(benchmark):
    sizes = SIZES_FULL if full_run() else SIZES_QUICK
    t = Table(
        [
            "sinks",
            "possible rows",
            "rows used",
            "used %",
            "rounds",
            "lazy s",
            "default s",
            "backend",
            "cost",
        ],
        title="LUBT scaling on prim2 prefixes (window [0.8, 1.2]): the "
        "lazy loop on scipy vs the default path",
    )
    fractions = []
    records = []
    lazy_walls = {}
    for size in sizes:
        topo, bounds = _prim2_instance(size)
        seconds, _ = _best_wall(topo, bounds, "auto")
        lazy_seconds, lazy = _best_wall(topo, bounds, "scipy")
        lazy_walls[size] = lazy.stats.wall_seconds
        sol = _solve_at(size)
        assert canonical_cost(sol.cost) == canonical_cost(lazy.cost)
        frac = lazy.stats.steiner_rows / max(1, lazy.stats.total_pairs)
        fractions.append(frac)
        t.add_row(
            size,
            lazy.stats.total_pairs,
            lazy.stats.steiner_rows,
            f"{100 * frac:.1f}%",
            lazy.stats.rounds,
            lazy_seconds,
            seconds,
            sol.stats.backend,
            sol.cost,
        )
        records.append(
            {
                "sinks": size,
                "possible_rows": lazy.stats.total_pairs,
                "rows_used": lazy.stats.steiner_rows,
                "rounds": lazy.stats.rounds,
                "lazy_seconds": lazy_seconds,
                "seconds": seconds,
                "lp_seconds": sol.stats.lp_seconds,
                "embed_seconds": sol.stats.embed_seconds,
                "backend": sol.stats.backend,
                "cost": sol.cost,
            }
        )
    data = {
        "protocol": "prim2 prefixes, window [0.8, 1.2] x radius; seconds: "
        "best-of-3 solve_lubt wall on the default path (backend, "
        "lp_seconds, embed_seconds, cost from it); rows_used, rounds, "
        "lazy_seconds: the lazy loop on scipy; speedup_at_128: "
        "pre-engine seconds over the lazy loop's solver wall "
        "(stats.wall_seconds, the pre-engine protocol)",
        "sizes": records,
        "pre_engine_seconds": {str(k): v for k, v in PRE_ENGINE_SECONDS.items()},
    }
    if lazy_walls.get(128, 0) > 0:
        data["speedup_at_128"] = PRE_ENGINE_SECONDS[128] / lazy_walls[128]
    save_output("scaling.txt", t.render(), data=data)
    _update_baseline(**data)

    # The fraction of Steiner rows needed must SHRINK as nets grow —
    # the whole point of the Section 4.6 reduction.
    assert fractions[-1] < fractions[0]

    benchmark(_solve_at, sizes[2])


def _timed_solve(topo, bounds, backend):
    t0 = time.perf_counter()
    sol = solve_lubt(topo, bounds, backend=backend, check_bounds=False)
    return sol, time.perf_counter() - t0


@contextlib.contextmanager
def _timed_checks():
    """Record the wall seconds of every post-solve check
    (``repro.ebf.solver._validate_solution``) made inside the block."""
    import repro.ebf.solver as solver

    real = solver._validate_solution
    spent: list[float] = []

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return real(*args)
        finally:
            spent.append(time.perf_counter() - t0)

    solver._validate_solution = timed
    try:
        yield spent
    finally:
        solver._validate_solution = real


def test_tree_tier():
    """Tree-backend tier (1k/4k sinks): record the tree-vs-generic wall
    times in BENCH_scaling.json and gate a >= 10x speedup at 1k sinks."""
    sizes = TREE_SIZES_FULL if full_run() else TREE_SIZES_QUICK
    t = Table(
        ["sinks", "tree s", "check ms", "generic s", "speedup", "LP iters",
         "backend"],
        title="tree backend vs best generic (synth uniform, window [0.8, 1.2])",
    )
    records = []
    for size in sizes:
        topo, bounds = synth_instance(size, 1996)
        with _timed_checks() as checks:
            tree_sol, tree_s = _timed_solve(topo, bounds, "tree")
        # The lazy loop on HiGHS, the best generic backend at this size.
        gen_sol, gen_s = _timed_solve(topo, bounds, "scipy")
        assert canonical_cost(tree_sol.cost) == canonical_cost(gen_sol.cost)
        speedup = gen_s / tree_s
        t.add_row(
            size,
            f"{tree_s:.3f}",
            f"{1e3 * checks[0]:.2f}",
            f"{gen_s:.3f}",
            f"{speedup:.1f}x",
            tree_sol.stats.lp_iterations,
            gen_sol.stats.backend,
        )
        records.append(
            {
                "sinks": size,
                "tree_seconds": tree_s,
                "generic_seconds": gen_s,
                "generic_backend": gen_sol.stats.backend,
                "speedup": speedup,
                "lp_iterations": tree_sol.stats.lp_iterations,
                "check_seconds": checks[0],
                "cost": tree_sol.cost,
            }
        )
    data = _update_baseline(tree_tier=_merge_tree_sizes(records))
    save_output("scaling_tree.txt", t.render(), data=data["tree_tier"])
    # The headline claim: >= 10x over the best generic backend at 1k.
    assert records[0]["speedup"] >= 10.0, records


def _merge_tree_sizes(records):
    """Merge ``records`` into the committed tree_tier by sink count, so
    the quick run (1024 only) and the XL point (10240, tree-only) can
    each refresh their own rows without discarding the other's."""
    tier = {
        "protocol": "synth uniform sinks (seed 1996), window "
        "[0.8, 1.2] x radius, tree vs the lazy loop on scipy (10k+: "
        "tree only, htree topology); one solve_lubt wall each; "
        "check_seconds: the tree solve's post-solve check",
        "nproc": os.cpu_count(),
        "sizes": [],
    }
    if BASELINE_PATH.exists():
        tier["sizes"] = json.loads(BASELINE_PATH.read_text()).get(
            "tree_tier", {}
        ).get("sizes", [])
    fresh = {r["sinks"]: r for r in records}
    tier["sizes"] = sorted(
        [r for r in tier["sizes"] if r["sinks"] not in fresh]
        + list(fresh.values()),
        key=lambda r: r["sinks"],
    )
    return tier


@pytest.mark.skipif(
    not full_run(), reason="10k-sink point runs under FULL=1 only"
)
def test_tree_tier_xl():
    """The chip-scale 10k-sink solve, tree backend only; records the
    point into the committed tree_tier and gates that one LUBT at 10k
    sinks stays under a minute on this class of machine.  Uses the
    H-tree builder — the O(m^2) nearest-neighbor merge would take
    minutes just to *construct* a 10k-sink topology."""
    topo, bounds = synth_instance(TREE_XL_SINKS, 1996, topology="htree")
    with _timed_checks() as checks:
        sol, seconds = _timed_solve(topo, bounds, "tree")
    record = {
        "sinks": TREE_XL_SINKS,
        "topology": "htree",
        "tree_seconds": seconds,
        "generic_seconds": None,
        "generic_backend": None,
        "speedup": None,
        "lp_iterations": sol.stats.lp_iterations,
        "check_seconds": checks[0],
        "cost": sol.cost,
    }
    _update_baseline(tree_tier=_merge_tree_sizes([record]))
    print(
        f"\n{TREE_XL_SINKS} sinks, tree backend: {seconds:.2f}s "
        f"({sol.stats.lp_iterations} LP iterations, post-check "
        f"{1e3 * checks[0]:.1f} ms, cost {sol.cost:,.1f})"
    )
    assert seconds < 60.0, seconds


def test_auto_crossover():
    """Where ``auto`` should switch from the lazy loop to the direct tree
    path: mean best-of-3 ``solve_lubt`` wall per sink count over
    uniform and clustered synth nets, for the lazy loop on each generic
    backend and for the direct tree path.  Records the table, the core
    count and the measured tie under ``auto_crossover`` in
    BENCH_scaling.json, and gates that ``TREE_MIN_SINKS`` sits near the
    tie: tree-direct within 1.25x of the best lazy backend at the
    constant, and ahead of it from twice the constant up."""
    t = Table(
        ["sinks", "lazy simplex ms", "lazy scipy ms", "tree ms", "tree/lazy"],
        title="auto crossover: lazy loop vs direct tree path "
        f"(synth, window [0.8, 1.2], {os.cpu_count()} cores)",
    )
    rows = []
    for size in CROSSOVER_SIZES:
        ms = {"simplex": [], "scipy": [], "tree": []}
        for seed in CROSSOVER_SEEDS:
            for kind in ("uniform", "clustered"):
                topo, bounds = synth_instance(size, seed, kind=kind)
                costs = set()
                for backend, samples in ms.items():
                    seconds, sol = _best_wall(topo, bounds, backend)
                    samples.append(1e3 * seconds)
                    costs.add(canonical_cost(sol.cost))
                assert len(costs) == 1, (size, seed, kind, costs)
        row = {"sinks": size}
        row.update({f"{b}_ms": statistics.mean(v) for b, v in ms.items()})
        row["lazy_ms"] = min(row["simplex_ms"], row["scipy_ms"])
        rows.append(row)
        t.add_row(
            size,
            f"{row['simplex_ms']:.2f}",
            f"{row['scipy_ms']:.2f}",
            f"{row['tree_ms']:.2f}",
            f"{row['tree_ms'] / row['lazy_ms']:.2f}",
        )
    # The tie: the smallest size from which tree-direct is never slower.
    tie = None
    for i, row in enumerate(rows):
        if all(r["tree_ms"] <= r["lazy_ms"] for r in rows[i:]):
            tie = row["sinks"]
            break
    data = {
        "protocol": "synth_instance uniform + clustered, seeds "
        f"0..{len(CROSSOVER_SEEDS) - 1}, window [0.8, 1.2] x radius; "
        "mean over nets of the best-of-3 solve_lubt wall; lazy_ms is the "
        "faster generic lazy loop",
        "cores": os.cpu_count(),
        "tree_min_sinks": TREE_MIN_SINKS,
        "measured_tie": tie,
        "sizes": rows,
    }
    _update_baseline(auto_crossover=data)
    save_output("auto_crossover.txt", t.render(), data=data)
    by_size = {r["sinks"]: r for r in rows}
    at = by_size[TREE_MIN_SINKS]
    assert at["tree_ms"] <= 1.25 * at["lazy_ms"], at
    assert all(
        r["tree_ms"] < r["lazy_ms"]
        for r in rows
        if r["sinks"] >= 2 * TREE_MIN_SINKS
    ), rows


def test_tour_crossover(monkeypatch):
    """Where a cold tree solve should switch from the crash basis to the
    tour start: mean best-of-3 ``solve_tree`` wall (start build and HiGHS
    call included) per sink count over uniform and clustered synth nets,
    from each start.  Records the table, the core count and the measured
    tie under ``tour_crossover`` in BENCH_scaling.json, and gates that
    ``TOUR_MIN_SINKS`` sits near the tie: the tour start within 1.25x of
    the crash at the constant, and ahead of it from twice the constant
    up."""
    import repro.lp.treesolve as treesolve

    floor = treesolve.TOUR_MIN_SINKS
    t = Table(
        ["sinks", "crash ms", "tour ms", "tour/crash", "crash pivots",
         "tour pivots"],
        title="tour start crossover: cold tree LP from each start "
        f"(synth, window [0.8, 1.2], {os.cpu_count()} cores)",
    )
    rows = []
    for size in TOUR_CROSSOVER_SIZES:
        ms = {"crash": [], "tour": []}
        pivots = {"crash": [], "tour": []}
        for seed in TOUR_CROSSOVER_SEEDS:
            for kind in ("uniform", "clustered"):
                topo, bounds = synth_instance(
                    size, seed, kind=kind, topology="auto"
                )
                lp = build_tree_lp(topo, bounds)
                best = {"crash": float("inf"), "tour": float("inf")}
                costs = set()
                for _ in range(3):
                    for start, at in (("crash", 10**9), ("tour", 2)):
                        monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", at)
                        t0 = time.perf_counter()
                        res = solve_tree(lp)
                        best[start] = min(best[start], time.perf_counter() - t0)
                        costs.add(canonical_cost(res.objective))
                        pivots[start].append(res.iterations)
                assert len(costs) == 1, (size, seed, kind, costs)
                for start in ms:
                    ms[start].append(1e3 * best[start])
        row = {"sinks": size}
        row.update({f"{s}_ms": statistics.mean(v) for s, v in ms.items()})
        row.update(
            {f"{s}_pivots": statistics.median(v) for s, v in pivots.items()}
        )
        rows.append(row)
        t.add_row(
            size,
            f"{row['crash_ms']:.2f}",
            f"{row['tour_ms']:.2f}",
            f"{row['tour_ms'] / row['crash_ms']:.2f}",
            row["crash_pivots"],
            row["tour_pivots"],
        )
    monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", floor)
    # The tie: the smallest size from which the tour start is never slower.
    tie = None
    for i, row in enumerate(rows):
        if all(r["tour_ms"] <= r["crash_ms"] for r in rows[i:]):
            tie = row["sinks"]
            break
    data = {
        "protocol": "synth_instance uniform + clustered, auto topology, "
        f"seeds 0..{len(TOUR_CROSSOVER_SEEDS) - 1}, window [0.8, 1.2] x "
        "radius; mean over nets of the best-of-3 solve_tree wall from "
        "the crash basis and from the tour start; median pivots",
        "cores": os.cpu_count(),
        "tour_min_sinks": floor,
        "measured_tie": tie,
        "sizes": rows,
    }
    _update_baseline(tour_crossover=data)
    save_output("tour_crossover.txt", t.render(), data=data)
    by_size = {r["sinks"]: r for r in rows}
    at = by_size[floor]
    assert at["tour_ms"] <= 1.25 * at["crash_ms"], at
    assert all(
        r["tour_ms"] < r["crash_ms"] for r in rows if r["sinks"] >= 2 * floor
    ), rows


def test_large_net_stages(monkeypatch):
    """Where a ``large-net`` op's time goes: the median milliseconds of
    each stage of ``build_net_topology`` + ``solve_and_embed(backend=
    "tree")`` on perfbench's nets at 2048 sinks (uniform and clustered,
    window [0.8, 1.2] x radius), timed inside the op
    (``perf_smoke.large_net_op``), under the tour start's production
    pricing (Devex, ``treesolve._TOUR_OPTIONS``) and under Dantzig,
    interleaved.  Records the split, the HiGHS call,
    the op and the pivots under each pricing, and the core count under
    ``large_net_stages`` in BENCH_scaling.json; gates that both pricings
    reach the same canonical costs and that the topology build and
    ``embed_tree`` stay within ``perf_smoke.STAGES_SHARE`` of the tree
    solve."""
    import repro.lp.treesolve as treesolve

    key = "simplex_dual_edge_weight_strategy"
    assert treesolve._TOUR_OPTIONS == ((key, 1),)
    pricing = {"devex": treesolve._TOUR_OPTIONS, "dantzig": ((key, 0),)}
    nets = large_net_nets(STAGE_SINKS, STAGE_NETS)
    for net in nets:
        large_net_op(*net)
    runs = {name: [] for name in pricing}
    costs = [set() for _ in nets]
    for r in range(STAGE_ROUNDS):
        for k, net in enumerate(nets):
            names = list(pricing)
            for name in names if (r + k) % 2 == 0 else names[::-1]:
                monkeypatch.setattr(treesolve, "_TOUR_OPTIONS", pricing[name])
                split, sol = large_net_op(*net)
                split["pivots"] = sol.stats.lp_iterations
                runs[name].append(split)
                costs[k].add(canonical_cost(sol.cost))
    monkeypatch.setattr(treesolve, "_TOUR_OPTIONS", pricing["devex"])
    median = {
        name: {s: statistics.median(x[s] for x in got) for s in got[0]}
        for name, got in runs.items()
    }
    stages = median["devex"]
    t = Table(
        ["stage", "devex ms", "dantzig ms"],
        title=f"large-net op by stage ({STAGE_SINKS} sinks, median of "
        f"{len(runs['devex'])} ops, {os.cpu_count()} cores)",
    )
    for stage, ms in stages.items():
        other = median["dantzig"][stage]
        if stage == "pivots":
            t.add_row(stage, f"{ms:.0f}", f"{other:.0f}")
        else:
            t.add_row(stage, f"{ms:.2f}", f"{other:.2f}")
    data = {
        "protocol": "perfbench large-net nets (seed 1, uniform and "
        f"clustered in turn, {STAGE_NETS} nets), window [0.8, 1.2] x "
        "radius; build_net_topology + solve_and_embed(backend='tree') "
        "with every stage timed inside the op; "
        f"{STAGE_ROUNDS} rounds, each net once under Devex and once "
        "under Dantzig, alternating which goes first; median ms per "
        "stage (HiGHS call = _solve_highs less the cold starts and "
        "_accepts, tree solve = solve_lubt, rest = op less every stage)",
        "nproc": os.cpu_count(),
        "sinks": STAGE_SINKS,
        "ops": len(runs["devex"]),
        "stages_ms": {k: v for k, v in stages.items() if k != "pivots"},
        "pricing": {
            name: {
                "highs_call_ms": m["HiGHS call"],
                "op_ms": m["op"],
                "pivots": m["pivots"],
            }
            for name, m in median.items()
        },
    }
    _update_baseline(large_net_stages=data)
    save_output("large_net_stages.txt", t.render(), data=data)
    assert all(len(c) == 1 for c in costs), costs
    share = (stages["build_net_topology"] + stages["embed_tree"]) / stages[
        "tree solve"
    ]
    assert share <= STAGES_SHARE, stages

