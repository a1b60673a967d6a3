"""Tests for the linear and Elmore delay models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay import (
    ElmoreParameters,
    delay_spread,
    delay_to_node_linear,
    downstream_capacitance,
    node_delays_elmore,
    node_delays_linear,
    sink_delays_elmore,
    sink_delays_linear,
    skew,
    tree_cost,
)
from repro.geometry import Point
from repro.topology import Topology, nearest_neighbor_topology


@pytest.fixture
def small_tree():
    """Fixed root 0 -> steiner 3 -> sinks 1, 2."""
    topo = Topology(
        [None, 3, 3, 0], 2, [Point(0, 0), Point(4, 0)], source_location=Point(2, 3)
    )
    e = np.array([0.0, 2.0, 3.0, 1.5])
    return topo, e


class TestLinear:
    def test_single_sink_delay(self, small_tree):
        topo, e = small_tree
        assert delay_to_node_linear(topo, e, 1) == pytest.approx(3.5)
        assert delay_to_node_linear(topo, e, 2) == pytest.approx(4.5)
        assert delay_to_node_linear(topo, e, 0) == 0.0

    def test_sink_delays_vector(self, small_tree):
        topo, e = small_tree
        d = sink_delays_linear(topo, e)
        assert d == pytest.approx([3.5, 4.5])

    def test_node_delays_matches_scalar(self, small_tree):
        topo, e = small_tree
        d = node_delays_linear(topo, e)
        for i in range(topo.num_nodes):
            assert d[i] == pytest.approx(delay_to_node_linear(topo, e, i))

    @given(st.integers(1, 40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_node_delays_bit_identical_to_preorder_walk(self, m, seed):
        """One NumPy step per depth level adds exactly what a preorder
        walk adds, node by node: ``d[parent] + e[node]``."""
        rng = np.random.default_rng(seed)
        n = m + 1 + int(rng.integers(0, m + 1))
        parents = [None] + [int(rng.integers(0, i)) for i in range(1, n)]
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 99, (m, 2))]
        topo = Topology(parents, m, pts)
        e = rng.uniform(0.0, 1e3, n) * 10.0 ** rng.integers(-6, 6, n)
        ref = np.zeros(n)
        for i in topo.preorder():
            if i:
                ref[i] = ref[topo.parent(i)] + e[i]
        assert np.array_equal(node_delays_linear(topo, e), ref)

    def test_tree_cost(self, small_tree):
        topo, e = small_tree
        assert tree_cost(topo, e) == pytest.approx(6.5)

    def test_weighted_tree_cost(self, small_tree):
        topo, e = small_tree
        w = np.array([0.0, 2.0, 1.0, 1.0])
        assert tree_cost(topo, e, weights=w) == pytest.approx(2 * 2 + 3 + 1.5)

    def test_weight_shape_mismatch(self, small_tree):
        topo, e = small_tree
        with pytest.raises(ValueError):
            tree_cost(topo, e, weights=np.ones(2))

    def test_edge_vector_shape_checked(self, small_tree):
        topo, _ = small_tree
        with pytest.raises(ValueError):
            sink_delays_linear(topo, np.ones(3))

    def test_skew_and_spread(self):
        d = np.array([1.0, 3.0, 2.0])
        assert skew(d) == 2.0
        assert delay_spread(d) == (1.0, 3.0)
        assert skew(np.array([])) == 0.0
        assert delay_spread(np.array([])) == (0.0, 0.0)

    @given(st.integers(min_value=2, max_value=20), st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_delays_nonnegative_and_additive(self, m, seed):
        rng = np.random.default_rng(seed)
        pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 100, (m, 2))]
        topo = nearest_neighbor_topology(pts, source=Point(50, 50))
        e = np.abs(rng.normal(size=topo.num_nodes))
        e[0] = 0.0
        d = node_delays_linear(topo, e)
        assert np.all(d >= 0)
        # Child delay = parent delay + own edge.
        for i in range(1, topo.num_nodes):
            assert d[i] == pytest.approx(d[topo.parent(i)] + e[i])


class TestElmore:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            ElmoreParameters(wire_resistance=0.0)
        with pytest.raises(ValueError):
            ElmoreParameters(wire_capacitance=-1.0)

    def test_sink_cap_lookup(self):
        p = ElmoreParameters(default_sink_cap=0.5, sink_caps={2: 1.5})
        assert p.sink_cap(1) == 0.5
        assert p.sink_cap(2) == 1.5

    def test_downstream_capacitance(self, small_tree):
        topo, e = small_tree
        params = ElmoreParameters(sink_caps={1: 0.1, 2: 0.2})
        cap = downstream_capacitance(topo, e, params)
        # Leaves: just their load.
        assert cap[1] == pytest.approx(0.1)
        assert cap[2] == pytest.approx(0.2)
        # Steiner 3: child subtree caps + child wire caps.
        assert cap[3] == pytest.approx(0.1 + 0.2 + 2.0 + 3.0)
        # Root: steiner subtree + steiner edge wire.
        assert cap[0] == pytest.approx(cap[3] + 1.5)

    def test_single_wire_formula(self):
        """One sink, one wire: d = r*e*(c*e/2 + C_sink)."""
        topo = Topology([None, 0], 1, [Point(5, 0)], Point(0, 0))
        params = ElmoreParameters(
            wire_resistance=2.0, wire_capacitance=3.0, sink_caps={1: 0.5}
        )
        e = np.array([0.0, 5.0])
        d = sink_delays_elmore(topo, e, params)
        assert d[0] == pytest.approx(2.0 * 5.0 * (3.0 * 5.0 / 2 + 0.5))

    def test_elmore_vs_hand_computation(self, small_tree):
        topo, e = small_tree
        params = ElmoreParameters(
            wire_resistance=1.0, wire_capacitance=1.0, sink_caps={1: 0.0, 2: 0.0}
        )
        cap = downstream_capacitance(topo, e, params)
        d = node_delays_elmore(topo, e, params)
        d3 = 1.0 * 1.5 * (1.5 / 2 + cap[3])
        assert d[3] == pytest.approx(d3)
        assert d[1] == pytest.approx(d3 + 2.0 * (2.0 / 2 + 0.0))
        assert d[2] == pytest.approx(d3 + 3.0 * (3.0 / 2 + 0.0))

    def test_elmore_monotone_in_downstream_cap(self, small_tree):
        """Raising a sink load increases delays through shared edges."""
        topo, e = small_tree
        light = ElmoreParameters(sink_caps={1: 0.0, 2: 0.0})
        heavy = ElmoreParameters(sink_caps={1: 5.0, 2: 0.0})
        d_light = sink_delays_elmore(topo, e, light)
        d_heavy = sink_delays_elmore(topo, e, heavy)
        assert d_heavy[0] > d_light[0]
        assert d_heavy[1] > d_light[1]  # shared edge e_3 got slower

    def test_zero_lengths_zero_delay(self, small_tree):
        topo, _ = small_tree
        params = ElmoreParameters(sink_caps={1: 1.0, 2: 1.0})
        d = sink_delays_elmore(topo, np.zeros(topo.num_nodes), params)
        assert d == pytest.approx([0.0, 0.0])

    @given(st.integers(min_value=2, max_value=15), st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_elmore_dominates_when_scaled(self, m, seed):
        """Elmore delay is monotone: growing any edge never reduces any
        delay (all coefficients are non-negative)."""
        rng = np.random.default_rng(seed)
        pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 50, (m, 2))]
        topo = nearest_neighbor_topology(pts, source=Point(0, 0))
        params = ElmoreParameters(default_sink_cap=0.3)
        e = np.abs(rng.normal(size=topo.num_nodes)) + 0.1
        e[0] = 0.0
        d0 = sink_delays_elmore(topo, e, params)
        grown = e.copy()
        j = int(rng.integers(1, topo.num_nodes))
        grown[j] += 1.0
        d1 = sink_delays_elmore(topo, grown, params)
        assert np.all(d1 >= d0 - 1e-12)
