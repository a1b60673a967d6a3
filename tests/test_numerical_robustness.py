"""Numerical robustness: extreme scales and degenerate geometry.

A routing library meets chips with nanometer grids (1e9-unit coordinates)
and pathological nets (all-collinear pins, duplicated pins, single-pin
nets).  Everything must stay exact-ish and validated.
"""

import numpy as np
import pytest

from repro.analysis import validate_lubt_solution
from repro.baselines import bounded_skew_tree
from repro.ebf import DelayBounds, solve_lubt, solve_zero_skew
from repro.ebf.bounds import radius_of
from repro.embedding import embed_tree
from repro.geometry import Point
from repro.topology import nearest_neighbor_topology


class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6, 1e9])
    def test_scale_invariance_of_normalized_cost(self, scale):
        """Solving a scaled instance scales the cost linearly."""
        base = [Point(0, 0), Point(7, 3), Point(2, 9), Point(8, 8)]
        costs = {}
        for s in (1.0, scale):
            sinks = [Point(p.x * s, p.y * s) for p in base]
            topo = nearest_neighbor_topology(sinks, Point(5 * s, 5 * s))
            r = radius_of(topo)
            sol = solve_lubt(topo, DelayBounds.uniform(4, 0.8 * r, 1.2 * r))
            costs[s] = sol.cost
        assert costs[scale] == pytest.approx(costs[1.0] * scale, rel=1e-6)

    def test_huge_coordinates_still_embed(self):
        rng = np.random.default_rng(3)
        sinks = [
            Point(float(x), float(y))
            for x, y in rng.integers(0, 2_000_000_000, (10, 2))
        ]
        topo = nearest_neighbor_topology(sinks, Point(1e9, 1e9))
        r = radius_of(topo)
        sol = solve_lubt(topo, DelayBounds.uniform(10, 0.0, 1.5 * r))
        validate_lubt_solution(sol, tol=1e-3)  # absolute tol scales badly

    def test_tiny_coordinates(self):
        sinks = [Point(0, 0), Point(3e-7, 0), Point(0, 4e-7)]
        topo = nearest_neighbor_topology(sinks, Point(1e-7, 1e-7))
        r = radius_of(topo)
        sol = solve_lubt(topo, DelayBounds.uniform(3, 0.0, 2 * r))
        assert sol.cost > 0


class TestDegenerateGeometry:
    def test_all_collinear(self):
        sinks = [Point(float(i * 10), 0.0) for i in range(9)]
        topo = nearest_neighbor_topology(sinks, Point(40.0, 0.0))
        r = radius_of(topo)
        sol = solve_lubt(topo, DelayBounds.uniform(9, 0.9 * r, 1.1 * r))
        tree = embed_tree(topo, sol.edge_lengths)
        assert tree.cost == pytest.approx(sol.cost)

    def test_all_identical_points(self):
        sinks = [Point(5.0, 5.0)] * 6
        topo = nearest_neighbor_topology(sinks, Point(0.0, 0.0))
        sol = solve_lubt(topo, DelayBounds.uniform(6, 10.0, 12.0))
        assert np.all(np.abs(sol.delays - 10.0) < 1e-6)
        embed_tree(topo, sol.edge_lengths)

    def test_sink_at_source(self):
        sinks = [Point(0.0, 0.0), Point(10.0, 0.0)]
        topo = nearest_neighbor_topology(sinks, Point(0.0, 0.0))
        r = radius_of(topo)
        sol = solve_lubt(topo, DelayBounds.uniform(2, 0.0, r))
        assert sol.delays[0] >= 0.0

    def test_zero_skew_collinear(self):
        sinks = [Point(float(i * 7), 0.0) for i in range(8)]
        topo = nearest_neighbor_topology(sinks)
        zst = solve_zero_skew(topo)
        tree = embed_tree(topo, zst.edge_lengths)
        d = tree.sink_delays()
        assert float(d.max() - d.min()) <= 1e-9 * max(1.0, zst.delay)

    def test_baseline_on_degenerate_net(self):
        sinks = [Point(5.0, 5.0)] * 3 + [Point(5.0, 6.0)]
        tree = bounded_skew_tree(sinks, 0.0, Point(5.0, 5.0))
        assert tree.skew <= 1e-9

    def test_two_point_net_grid_aligned(self):
        """Sinks sharing a coordinate (width-0 merge regions)."""
        sinks = [Point(0.0, 0.0), Point(10.0, 0.0), Point(10.0, 10.0)]
        topo = nearest_neighbor_topology(sinks, Point(0.0, 10.0))
        r = radius_of(topo)
        sol = solve_lubt(topo, DelayBounds.zero_skew(3, 2.0 * r), check_bounds=False)
        assert sol.skew == pytest.approx(0.0, abs=1e-6)


class TestPrecisionAccumulation:
    def test_deep_tree_delay_sums(self):
        """300-level chains of tiny edges keep delay sums accurate."""
        from repro.topology import chain_topology
        from repro.delay import node_delays_linear

        m = 300
        sinks = [Point(float(i) * 0.1, 0.0) for i in range(1, m + 1)]
        topo = chain_topology(sinks, Point(0.0, 0.0))
        e = np.full(topo.num_nodes, 0.1)
        e[0] = 0.0
        d = node_delays_linear(topo, e)
        assert d[m] == pytest.approx(m * 0.1, rel=1e-12)

    def test_lazy_and_full_agree_on_awkward_scales(self):
        rng = np.random.default_rng(11)
        sinks = [
            Point(float(x) * 1e7, float(y) * 1e-3)
            for x, y in rng.integers(0, 100, (8, 2))
        ]
        topo = nearest_neighbor_topology(sinks)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(8, 0.5 * r, 1.5 * r)
        # The lazy loop on simplex, which "auto" picks for it at this size.
        lazy = solve_lubt(topo, bounds, mode="lazy", backend="simplex")
        full = solve_lubt(topo, bounds, mode="full")
        assert lazy.cost == pytest.approx(full.cost, rel=1e-6)
