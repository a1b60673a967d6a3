"""Ablation A: constraint reduction (Section 4.6).

Full C(m,2)-row EBF vs lazy row generation: same optimum, far fewer
constraints, and (usually) less time.  This regenerates the paper's claim
that "the reduction of constraints speeds up the execution".
"""

import pytest
from conftest import load_scaled, save_output

from repro.analysis import Table
from repro.ebf import DelayBounds, solve_lubt
from repro.geometry import manhattan_radius_from
from repro.topology import nearest_neighbor_topology


@pytest.fixture(scope="module")
def instance():
    bench = load_scaled("prim2")
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    bounds = DelayBounds.uniform(bench.num_sinks, 0.7 * radius, 1.2 * radius)
    return bench, topo, bounds


def test_reduction_equivalence(instance, benchmark):
    bench, topo, bounds = instance
    lazy = benchmark.pedantic(
        solve_lubt,
        args=(topo, bounds),
        # The lazy loop on scipy ("auto" is the direct tree path here).
        kwargs={"mode": "lazy", "backend": "scipy", "check_bounds": False},
        rounds=1,
        iterations=1,
    )
    full = solve_lubt(topo, bounds, mode="full", check_bounds=False)
    assert lazy.cost == pytest.approx(full.cost, rel=1e-6)

    t = Table(
        ["mode", "steiner rows", "of possible", "rounds", "seconds", "cost"],
        title=f"Ablation A (constraint reduction) on {bench.name}",
    )
    for sol in (lazy, full):
        t.add_row(
            sol.stats.mode,
            sol.stats.steiner_rows,
            sol.stats.total_pairs,
            sol.stats.rounds,
            sol.stats.wall_seconds,
            sol.cost,
        )
    save_output("ablation_reduction.txt", t.render())
    # Lazy must end with a small fraction of the full constraint set.
    assert lazy.stats.steiner_rows < 0.5 * lazy.stats.total_pairs


def test_lazy_timing(instance, benchmark):
    _, topo, bounds = instance
    benchmark(
        solve_lubt, topo, bounds, mode="lazy", backend="scipy", check_bounds=False
    )


def test_full_timing(instance, benchmark):
    _, topo, bounds = instance
    benchmark(solve_lubt, topo, bounds, mode="full", check_bounds=False)
