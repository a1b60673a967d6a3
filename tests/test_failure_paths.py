"""Failure-injection tests: wrong inputs must fail loudly and precisely.

A production library's error paths matter as much as its happy paths —
each test here pins the *specific* exception and message family for a
class of misuse.
"""

import numpy as np
import pytest

from repro.ebf import BoundsError, DelayBounds, solve_lubt
from repro.ebf.bounds import radius_of
from repro.embedding import EmbeddingError, embed_tree, feasible_regions
from repro.geometry import Point
from repro.lp import LinearProgram, LpStatus, Sense
from repro.lp.simplex import solve_simplex
from repro.topology import Topology, nearest_neighbor_topology


def topo6(seed=0):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 50, (6, 2))]
    return nearest_neighbor_topology(pts, Point(25.0, 25.0))


class TestSolverMisuse:
    def test_bounds_wrong_sink_count(self):
        topo = topo6()
        with pytest.raises(Exception):
            solve_lubt(topo, DelayBounds.uniform(5, 0, 1e9))

    def test_eq3_violation_reported_via_check(self):
        topo = topo6()
        with pytest.raises(BoundsError, match="Eq. 3"):
            solve_lubt(topo, DelayBounds.uniform(6, 0.0, 1.0))

    def test_weights_wrong_shape(self):
        topo = topo6()
        r = radius_of(topo)
        with pytest.raises(ValueError, match="weights"):
            solve_lubt(
                topo,
                DelayBounds.uniform(6, 0, 2 * r),
                weights=np.ones(3),
            )

    def test_lazy_round_exhaustion(self):
        """Starving the lazy loop (batch=1, max_rounds=2) on an instance
        known to need many rounds raises the non-convergence error."""
        rng = np.random.default_rng(2)
        pts = [
            Point(float(x), float(y)) for x, y in rng.integers(0, 50, (24, 2))
        ]
        topo = nearest_neighbor_topology(pts, Point(25.0, 25.0))
        r = radius_of(topo)
        with pytest.raises(RuntimeError, match="converge"):
            solve_lubt(
                topo,
                DelayBounds.uniform(24, 0, 2 * r),
                mode="lazy",
                backend="scipy",
                batch=1,
                max_rounds=2,
            )

    def test_zero_edge_out_of_range(self):
        topo = topo6()
        r = radius_of(topo)
        with pytest.raises(ValueError):
            solve_lubt(
                topo,
                DelayBounds.uniform(6, 0, 2 * r),
                zero_edges=(0,),  # edge ids start at 1
            )


class TestEmbeddingMisuse:
    def test_lengths_violating_constraints(self):
        topo = topo6()
        bad = np.zeros(topo.num_nodes)
        with pytest.raises(EmbeddingError, match="Steiner constraint"):
            embed_tree(topo, bad)

    def test_negative_lengths(self):
        topo = topo6()
        e = np.full(topo.num_nodes, 50.0)
        e[2] = -3.0
        with pytest.raises(EmbeddingError, match="negative"):
            feasible_regions(topo, e)

    def test_partial_violation_named_node(self):
        """The error message names the node whose region collapsed."""
        topo = nearest_neighbor_topology(
            [Point(0, 0), Point(100, 0)], Point(50, 50)
        )
        e = np.full(topo.num_nodes, 1.0)  # way too short to span 100
        with pytest.raises(EmbeddingError, match=r"node \d+"):
            feasible_regions(topo, e)


class TestSimplexLimits:
    def test_iteration_limit_reported_as_error(self):
        lp = LinearProgram()
        xs = [lp.add_variable(cost=1.0) for _ in range(6)]
        for k in range(6):
            lp.add_constraint(
                {xs[k]: 1.0, xs[(k + 1) % 6]: 0.5}, Sense.GE, float(k + 1)
            )
        res = solve_simplex(lp, max_iterations=1)
        assert res.status in (LpStatus.ERROR, LpStatus.OPTIMAL)

    def test_infinite_lower_bound_rejected(self):
        lp = LinearProgram()
        lp.add_variable(cost=1.0, lb=-np.inf)
        with pytest.raises(ValueError, match="finite lower bounds"):
            solve_simplex(lp)


class TestTopologyMisuse:
    def test_parents_too_short(self):
        with pytest.raises(ValueError):
            Topology([None], 1, [Point(0, 0)])

    def test_lca_on_foreign_ids(self):
        topo = topo6()
        with pytest.raises(IndexError):
            topo.lca(0, topo.num_nodes + 5)
