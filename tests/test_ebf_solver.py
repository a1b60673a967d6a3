"""Tests for the LUBT solver — the paper's core claims.

Covers: the Section 4.5 example's formulation size, Theorem 4.2 optimality
via closed forms and cross-checks, the Figure 1 feasibility behaviour,
Lemma 3.1, the special-case reductions of Section 4.3, lazy-vs-full and
simplex-vs-scipy agreement, and the tolerable-skew mapping of Section 6.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay import sink_delays_linear
from repro.ebf import DelayBounds, build_ebf_lp, solve_lubt
from repro.ebf.bounds import radius_of
from repro.geometry import Point, manhattan
from repro.lp import InfeasibleError
from repro.topology import (
    Topology,
    chain_topology,
    nearest_neighbor_topology,
    star_topology,
)


@pytest.fixture
def fig3():
    """Section 4.5 five-point example (free source)."""
    parents = [None, 6, 8, 7, 7, 6, 0, 8, 0]
    sinks = [Point(0, 0), Point(4, 0), Point(8, 2), Point(8, 0), Point(2, 3)]
    return Topology(parents, 5, sinks)


def random_topo(m, seed, fixed=False):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 60, (m, 2))]
    src = Point(30.0, 30.0) if fixed else None
    return nearest_neighbor_topology(pts, src)


class TestSection45Example:
    def test_formulation_size(self, fig3):
        """C(5,2)=10 Steiner rows + 2 rows per sink = 20 rows, 8 vars."""
        lp = build_ebf_lp(fig3, DelayBounds.uniform(5, 4.0, 6.0))
        assert lp.num_variables == 8
        assert lp.num_constraints == 10 + 10

    def test_solves_within_bounds(self, fig3):
        sol = solve_lubt(fig3, DelayBounds.uniform(5, 4.0, 6.0))
        assert np.all(sol.delays >= 4.0 - 1e-6)
        assert np.all(sol.delays <= 6.0 + 1e-6)
        assert sol.cost > 0

    def test_example_cost_between_lp_relaxations(self, fig3):
        """Sanity envelope: unbounded Steiner optimum <= LUBT cost <=
        Lemma 3.1 construction (all Steiner at one point, elongate)."""
        bounds = DelayBounds.uniform(5, 4.0, 6.0)
        relaxed = solve_lubt(fig3, DelayBounds.unbounded(5))
        sol = solve_lubt(fig3, bounds)
        assert relaxed.cost <= sol.cost + 1e-6
        # Lemma 3.1: collapse to best single hub, each sink edge max(l, dist).
        best_hub = min(
            (
                sum(
                    max(4.0, manhattan(hub, s))
                    for s in fig3.sink_locations
                )
                for hub in fig3.sink_locations
            ),
        )
        assert sol.cost <= best_hub + 1e-6


class TestClosedFormTwoSinks:
    """Free root over two sinks: min cost = max(dist, 2l) when u >= ...."""

    @given(
        st.floats(0, 50),
        st.floats(0, 50),
        st.floats(0, 30),
        st.floats(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_sink_formula(self, x2, y2, l_extra, u_extra):
        s1, s2 = Point(0, 0), Point(x2, y2)
        d = manhattan(s1, s2)
        r = d / 2.0
        lower = max(0.0, r - l_extra)
        upper = r + u_extra
        topo = nearest_neighbor_topology([s1, s2])
        sol = solve_lubt(topo, DelayBounds.uniform(2, lower, upper))
        assert sol.cost == pytest.approx(max(d, 2 * lower), abs=1e-6)


class TestFeasibility:
    def test_figure1a_chain_infeasible(self):
        """Figure 1: source (0,0) -> s1 (3,0)... -> s2 with total forced
        path > u makes the chain topology infeasible."""
        # Chain source -> s1 -> s2; dist source->s1 = 4, s1->s2 = 4, so
        # delay(s2) >= 8 always; u = 6 has no solution.
        topo = chain_topology([Point(4, 0), Point(8, 0)], source=Point(0, 0))
        bounds = DelayBounds.uniform(2, 0.0, 6.0)
        with pytest.raises(InfeasibleError):
            solve_lubt(topo, bounds, check_bounds=False)

    def test_figure1bc_star_feasible(self):
        """Same sinks, sink-leaf topology: solution exists (Lemma 3.1)."""
        topo = star_topology([Point(4, 0), Point(8, 0)], source=Point(0, 0))
        sol = solve_lubt(topo, DelayBounds.uniform(2, 0.0, 8.0))
        assert sol.cost <= 12.0 + 1e-6

    @given(st.integers(2, 12), st.integers(0, 500), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lemma31_always_feasible(self, m, seed, fixed):
        """Sink-leaf topologies admit LUBTs for any valid bounds."""
        topo = random_topo(m, seed, fixed)
        r = radius_of(topo)
        rng = np.random.default_rng(seed)
        lo = float(rng.uniform(0, 2 * r))
        hi = max(float(rng.uniform(lo, 3 * r)), r, lo)
        if fixed:
            hi = max(
                hi,
                max(
                    manhattan(topo.source_location, s)
                    for s in topo.sink_locations
                ),
            )
        sol = solve_lubt(topo, DelayBounds.uniform(m, lo, hi))
        assert sol.delays.min() >= lo - 1e-6
        assert sol.delays.max() <= hi + 1e-6

    def test_bounds_checked_by_default(self):
        topo = random_topo(4, 1)
        tight = DelayBounds.uniform(4, 0.0, 0.01)
        with pytest.raises(Exception):
            solve_lubt(topo, tight)  # Eq. 4 violated


class TestSpecialCases:
    """Section 4.3's reductions of LUBT to known problems."""

    def test_unbounded_is_topology_steiner_optimum(self):
        """l=0, u=inf: cost equals the best 'rectilinear merge' value —
        lower-bounded by half-perimeter of the sink bbox for a free root."""
        topo = random_topo(8, 3)
        sol = solve_lubt(topo, DelayBounds.unbounded(8))
        from repro.geometry import bounding_box

        xmin, ymin, xmax, ymax = bounding_box(topo.sink_locations)
        half_perimeter = (xmax - xmin) + (ymax - ymin)
        assert sol.cost >= half_perimeter - 1e-6

    def test_zero_skew_equal_delays(self):
        topo = random_topo(6, 4)
        r = radius_of(topo)
        # Find the minimal feasible common delay by bisection on the LP.
        sol = solve_lubt(topo, DelayBounds.zero_skew(6, 2 * r))
        assert sol.skew == pytest.approx(0.0, abs=1e-6)

    def test_upper_bounded_only_global_routing(self):
        topo = random_topo(7, 5, fixed=True)
        r = radius_of(topo)
        sol = solve_lubt(topo, DelayBounds.uniform(7, 0.0, 1.2 * r))
        assert sol.longest_delay <= 1.2 * r + 1e-6

    def test_tolerable_skew_section6(self):
        topo = random_topo(9, 6)
        r = radius_of(topo)
        bounds = DelayBounds.tolerable_skew(9, upper=1.5 * r, skew=0.3 * r)
        sol = solve_lubt(topo, bounds)
        assert sol.skew <= 0.3 * r + 1e-6
        assert sol.longest_delay <= 1.5 * r + 1e-6


class TestOptimalityCrossChecks:
    @given(st.integers(2, 10), st.integers(0, 300), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_lazy_equals_full(self, m, seed, fixed):
        topo = random_topo(m, seed, fixed)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(m, 0.7 * r, 1.3 * r)
        if fixed:
            hi = max(
                manhattan(topo.source_location, s) for s in topo.sink_locations
            )
            bounds = DelayBounds.uniform(m, 0.7 * r, max(1.3 * r, hi))
        # The lazy loop on simplex, which "auto" picks for it at this size.
        lazy = solve_lubt(topo, bounds, mode="lazy", backend="simplex")
        full = solve_lubt(topo, bounds, mode="full")
        assert lazy.cost == pytest.approx(full.cost, rel=1e-6, abs=1e-6)

    @given(st.integers(2, 8), st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_simplex_equals_scipy(self, m, seed):
        topo = random_topo(m, seed)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(m, 0.5 * r, 1.5 * r)
        a = solve_lubt(topo, bounds, backend="simplex", mode="full")
        b = solve_lubt(topo, bounds, backend="scipy", mode="full")
        assert a.cost == pytest.approx(b.cost, rel=1e-6, abs=1e-6)

    @given(st.integers(3, 10), st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_skew_bound(self, m, seed):
        """Loosening the window never increases cost (Table 1 shape)."""
        topo = random_topo(m, seed)
        r = radius_of(topo)
        costs = []
        for s in (0.0, 0.25, 0.5, 1.0):
            b = DelayBounds.uniform(m, max(0.0, r * (1 - s / 2)), r * (1 + s / 2))
            costs.append(solve_lubt(topo, b).cost)
        for tight, loose in zip(costs, costs[1:]):
            assert loose <= tight + 1e-6


class TestWeightedObjective:
    def test_weights_steer_solution(self):
        """Section 7: expensive edges get shorter at the optimum."""
        s1, s2 = Point(0, 0), Point(10, 0)
        topo = nearest_neighbor_topology([s1, s2])
        bounds = DelayBounds.uniform(2, 5.0, 12.0)
        w = np.ones(topo.num_nodes)
        w[1] = 10.0  # edge to sink 1 is 10x as expensive
        sol = solve_lubt(topo, bounds, weights=w)
        # Sink 1's edge shrinks to its lower bound of 5 (cannot be less).
        assert sol.edge_lengths[1] == pytest.approx(5.0, abs=1e-6)

    def test_negative_weight_rejected(self):
        topo = nearest_neighbor_topology([Point(0, 0), Point(4, 0)])
        w = np.ones(topo.num_nodes)
        w[2] = -1.0
        with pytest.raises(ValueError):
            solve_lubt(topo, DelayBounds.uniform(2, 0, 10), weights=w)

    def test_uniform_weights_match_unweighted(self):
        topo = random_topo(5, 11)
        r = radius_of(topo)
        b = DelayBounds.uniform(5, 0.5 * r, 1.5 * r)
        plain = solve_lubt(topo, b)
        weighted = solve_lubt(topo, b, weights=np.ones(topo.num_nodes))
        assert plain.cost == pytest.approx(weighted.cost)


class TestZeroEdges:
    def test_pinned_edges_stay_zero(self):
        from repro.topology import split_high_degree_steiner

        topo = star_topology(
            [Point(0, 0), Point(4, 0), Point(0, 4), Point(4, 4)],
            source=Point(2, 2),
        )
        split, zero_edges = split_high_degree_steiner(topo)
        assert zero_edges
        sol = solve_lubt(
            split, DelayBounds.uniform(4, 0.0, 10.0), zero_edges=zero_edges
        )
        for k in zero_edges:
            assert sol.edge_lengths[k] == pytest.approx(0.0, abs=1e-9)


class TestSolutionObject:
    def test_fields_consistent(self, fig3):
        sol = solve_lubt(fig3, DelayBounds.uniform(5, 4.0, 6.0))
        assert sol.cost == pytest.approx(float(sol.edge_lengths[1:].sum()))
        d = sink_delays_linear(fig3, sol.edge_lengths)
        assert d == pytest.approx(sol.delays)
        assert sol.shortest_delay == pytest.approx(float(d.min()))
        assert sol.longest_delay == pytest.approx(float(d.max()))
        assert sol.skew == pytest.approx(float(d.max() - d.min()))
        assert sol.stats.rounds >= 1
        assert sol.stats.steiner_rows <= sol.stats.total_pairs

    def test_invalid_mode(self, fig3):
        with pytest.raises(ValueError):
            solve_lubt(fig3, DelayBounds.uniform(5, 4, 6), mode="eager")
