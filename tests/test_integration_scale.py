"""End-to-end integration at realistic scale.

The whole pipeline — surrogate benchmark, topology, lazy LP, embedding,
full validation — on a mid-size net by default and the full paper-scale
nets when ``FULL=1`` is set.  Also pins determinism: two runs of the
identical instance must produce bit-identical costs.
"""

import os

import numpy as np
import pytest

from repro.analysis import validate_lubt_solution
from repro.baselines import bounded_skew_tree
from repro.data import load_benchmark
from repro.ebf import DelayBounds, solve_lubt, solve_zero_skew
from repro.ebf.bounds import radius_of
from repro.embedding import embed_tree
from repro.topology import nearest_neighbor_topology

FULL = os.environ.get("FULL", "") == "1"
SIZE = None if FULL else 96


def load(name):
    bench = load_benchmark(name)
    return bench if SIZE is None else bench.scaled(SIZE)


@pytest.mark.parametrize("name", ["prim1", "r1"])
class TestFullPipeline:
    def test_solve_embed_validate(self, name):
        bench = load(name)
        topo = nearest_neighbor_topology(list(bench.sinks), bench.source)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(bench.num_sinks, 0.8 * r, 1.2 * r)
        # The lazy loop on scipy (``auto`` is the direct tree path here).
        sol = solve_lubt(topo, bounds, check_bounds=False, backend="scipy")
        validate_lubt_solution(sol)
        tree = embed_tree(topo, sol.edge_lengths)
        assert tree.cost == pytest.approx(sol.cost)
        # Lazy reduction must actually reduce at this size.
        assert sol.stats.steiner_rows < sol.stats.total_pairs

    def test_determinism(self, name):
        bench = load(name)
        topo = nearest_neighbor_topology(list(bench.sinks), bench.source)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(bench.num_sinks, 0.8 * r, 1.2 * r)
        a = solve_lubt(topo, bounds, check_bounds=False)
        b = solve_lubt(topo, bounds, check_bounds=False)
        assert a.cost == b.cost  # bit-identical, not approx
        assert np.array_equal(a.edge_lengths, b.edge_lengths)

    def test_baseline_protocol_consistency(self, name):
        bench = load(name)
        r_abs = radius_of(
            nearest_neighbor_topology(list(bench.sinks), bench.source)
        )
        base = bounded_skew_tree(
            list(bench.sinks), 0.5 * r_abs, bench.source, verify=False
        )
        sol = solve_lubt(
            base.topology,
            DelayBounds.uniform(
                bench.num_sinks, base.shortest_delay, base.longest_delay
            ),
            check_bounds=False,
        )
        assert sol.cost <= base.cost + 1e-6 * base.cost

    def test_zero_skew_scales(self, name):
        bench = load(name)
        topo = nearest_neighbor_topology(list(bench.sinks), bench.source)
        zst = solve_zero_skew(topo)
        tree = embed_tree(topo, zst.edge_lengths)
        d = tree.sink_delays()
        assert float(d.max() - d.min()) <= 1e-6 * zst.delay


class TestLargestNet:
    """The r5 surrogate (3101 sinks, ~4.8M potential Steiner rows) —
    scaled down by default, the real thing under FULL=1."""

    def test_r5_solves(self):
        bench = load_benchmark("r5")
        if not FULL:
            bench = bench.scaled(384)
        topo = nearest_neighbor_topology(list(bench.sinks), bench.source)
        r = radius_of(topo)
        sol = solve_lubt(
            topo,
            DelayBounds.uniform(bench.num_sinks, 0.8 * r, 1.2 * r),
            check_bounds=False,
            backend="scipy",  # the lazy loop, whose rows are counted
        )
        assert sol.stats.steiner_rows < 0.25 * sol.stats.total_pairs
        embed_tree(topo, sol.edge_lengths)
