"""Tests for Steiner constraint generation and violation checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay import node_delays_linear
from repro.ebf import (
    DelayBounds,
    seed_constraint_pairs,
    sink_pair_count,
    steiner_constraint_rows,
    steiner_violations,
)
from repro.ebf import solver
from repro.ebf.constraints import (
    all_sink_pairs,
    max_steiner_violation,
    steiner_certificate,
)
from repro.geometry import Point, manhattan
from repro.topology import (
    Topology,
    chain_topology,
    htree_topology,
    nearest_neighbor_topology,
)


@pytest.fixture
def fig3():
    parents = [None, 6, 8, 7, 7, 6, 0, 8, 0]
    sinks = [Point(0, 0), Point(4, 0), Point(8, 2), Point(8, 0), Point(2, 3)]
    return Topology(parents, 5, sinks)


def random_topo(m, seed, fixed=False):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 100, (m, 2))]
    src = Point(50.0, 50.0) if fixed else None
    return nearest_neighbor_topology(pts, src)


class TestPairEnumeration:
    def test_all_pairs_count(self, fig3):
        pairs = list(all_sink_pairs(fig3))
        assert len(pairs) == sink_pair_count(fig3) == 10

    def test_all_pairs_unique_and_cross(self, fig3):
        pairs = list(all_sink_pairs(fig3))
        normalized = {tuple(sorted(p)) for p in pairs}
        assert len(normalized) == 10

    @given(st.integers(2, 25), st.integers(0, 999), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_count_formula(self, m, seed, fixed):
        topo = random_topo(m, seed, fixed)
        assert len(list(all_sink_pairs(topo))) == m * (m - 1) // 2

    def test_rows_have_correct_paths(self, fig3):
        rows = {
            tuple(sorted((i, j))): (sorted(edges), d)
            for i, j, edges, d in steiner_constraint_rows(fig3)
        }
        edges_15, d_15 = rows[(1, 5)]
        assert edges_15 == [1, 5]
        assert d_15 == manhattan(Point(0, 0), Point(2, 3))
        edges_13, _ = rows[(1, 3)]
        assert edges_13 == [1, 3, 6, 7, 8]


class TestInteriorSinkPairs:
    """Ancestor-descendant sink pairs (Figure 1(a) chains) must be
    enumerated too — their LCA is the ancestor sink itself."""

    def test_chain_pairs_complete(self):
        from repro.topology import chain_topology

        topo = chain_topology(
            [Point(4, 0), Point(0, 4), Point(4, 4)], source=Point(0, 0)
        )
        pairs = {tuple(sorted(p)) for p in all_sink_pairs(topo)}
        assert pairs == {(1, 2), (1, 3), (2, 3)}

    def test_chain_violations_detected(self):
        from repro.topology import chain_topology

        topo = chain_topology([Point(4, 0), Point(0, 4)], source=Point(0, 0))
        e = np.array([0.0, 4.0, 1.0])  # path(s1,s2) = e2 = 1 < dist = 8
        v = steiner_violations(topo, e)
        assert any({i, j} == {1, 2} for i, j, _ in v)

    def test_chain_row_path(self):
        from repro.topology import chain_topology

        topo = chain_topology([Point(4, 0), Point(0, 4)], source=Point(0, 0))
        rows = {
            tuple(sorted((i, j))): (sorted(edges), d)
            for i, j, edges, d in steiner_constraint_rows(topo)
        }
        edges, d = rows[(1, 2)]
        assert edges == [2]  # only the descendant's edge
        assert d == 8.0


class TestSeeds:
    def test_one_seed_per_branching_site(self, fig3):
        seeds = seed_constraint_pairs(fig3)
        # fig3 has 3 branching nodes (0, 6 is not branching... 6 has
        # children 1,5; 7 has 3,4; 8 has 2,7; 0 has 6,8) -> 4 sites.
        assert len(seeds) == 4

    def test_seed_is_farthest_cross_pair(self, fig3):
        seeds = {tuple(sorted(p)) for p in seed_constraint_pairs(fig3)}
        # At LCA 0 the cross pairs are {1,5} x {2,3,4}; the farthest is
        # (1,3): dist((0,0),(8,2)) = 10.
        assert (1, 3) in seeds

    @given(st.integers(2, 20), st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_seeds_are_valid_pairs(self, m, seed):
        topo = random_topo(m, seed)
        valid = {tuple(sorted(p)) for p in all_sink_pairs(topo)}
        for i, j in seed_constraint_pairs(topo):
            assert tuple(sorted((i, j))) in valid

    @given(st.integers(2, 20), st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_seed_dominates_its_group(self, m, seed):
        """Seed pair distance >= any other cross distance at the same LCA
        (checked globally: max seed dist == max pair dist)."""
        topo = random_topo(m, seed)
        seeds = seed_constraint_pairs(topo)
        all_d = [
            manhattan(topo.sink_location(i), topo.sink_location(j))
            for i, j in all_sink_pairs(topo)
        ]
        seed_d = [
            manhattan(topo.sink_location(i), topo.sink_location(j))
            for i, j in seeds
        ]
        assert max(seed_d) == pytest.approx(max(all_d))


class TestViolations:
    def test_zero_lengths_violate(self, fig3):
        e = np.zeros(fig3.num_nodes)
        v = steiner_violations(fig3, e)
        assert len(v) == 10  # every pair with distinct locations violated
        # Sorted by decreasing violation.
        amounts = [a for _, _, a in v]
        assert amounts == sorted(amounts, reverse=True)

    def test_limit(self, fig3):
        e = np.zeros(fig3.num_nodes)
        v = steiner_violations(fig3, e, limit=3)
        assert len(v) == 3

    def test_violation_amounts_match_bruteforce(self, fig3):
        rng = np.random.default_rng(7)
        e = rng.uniform(0, 2, fig3.num_nodes)
        e[0] = 0
        got = {
            tuple(sorted((i, j))): a for i, j, a in steiner_violations(fig3, e, tol=-np.inf)
        }
        d = node_delays_linear(fig3, e)
        for i, j, edges, dist in steiner_constraint_rows(fig3):
            expect = dist - float(e[edges].sum())
            assert got[tuple(sorted((i, j)))] == pytest.approx(expect)

    def test_satisfied_lengths_no_violations(self, fig3):
        # Give every edge a huge length: all constraints hold.
        e = np.full(fig3.num_nodes, 100.0)
        e[0] = 0
        assert steiner_violations(fig3, e) == []
        assert max_steiner_violation(fig3, e) <= 0

    def test_single_sink_no_violations(self):
        topo = nearest_neighbor_topology([Point(3, 3)], source=Point(0, 0))
        assert steiner_violations(topo, np.zeros(2)) == []
        assert max_steiner_violation(topo, np.zeros(2)) == 0.0

    @given(st.integers(2, 15), st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_max_violation_consistency(self, m, seed):
        topo = random_topo(m, seed)
        rng = np.random.default_rng(seed + 1)
        e = rng.uniform(0, 30, topo.num_nodes)
        e[0] = 0
        v = steiner_violations(topo, e, tol=-np.inf)
        assert max_steiner_violation(topo, e) == pytest.approx(v[0][2])


TOPOLOGY_KINDS = ("nn", "htree", "chain", "recursive", "coincident")


def certificate_instance(kind, m, seed, zeros, scale_exp):
    """A topology of ``kind`` and a non-negative edge vector for it.

    ``recursive`` attaches every node to a random earlier one, so sinks
    sit inside the tree with any number of children (Fig. 1(a) chains
    generalised) and some Steiner nodes have no sink below;
    ``coincident`` puts several sinks on one point.  Coordinates and
    edges are scaled by ``2**scale_exp`` (exactly) to vary the magnitude
    the certificate's guard scales with; ``zeros`` zeroes a third of
    the edges.
    """
    rng = np.random.default_rng(seed)
    xy = rng.integers(0, 100, (m, 2))
    if kind == "coincident":
        xy = xy[rng.integers(0, max(1, m // 3), m)]
    unit = 2.0 ** scale_exp
    pts = [Point(unit * float(x), unit * float(y)) for x, y in xy]
    source = Point(50.0 * unit, 50.0 * unit)
    if kind == "htree":
        topo = htree_topology(pts, source)
    elif kind == "chain":
        topo = chain_topology(pts, source)
    elif kind == "recursive":
        n = m + 1 + int(rng.integers(0, m + 1))
        parents = [None] + [int(rng.integers(0, i)) for i in range(1, n)]
        topo = Topology(parents, m, pts, source)
    else:
        topo = nearest_neighbor_topology(pts, source if seed % 2 else None)
    e = unit * rng.uniform(0.0, 60.0, topo.num_nodes)
    if zeros:
        e[rng.random(topo.num_nodes) < 1 / 3] = 0.0
    e[0] = 0.0
    return topo, e


def scan_worst(topo, e):
    """The pair scan's largest ``dist - pathsum`` (None without pairs)."""
    top = steiner_violations(topo, e, tol=-np.inf, limit=1)
    return top[0][2] if top else None


def guarded_check_raises(topo, e):
    """Whether ``solve_lubt``'s post-check (certificate, then the scan
    on borderline cases) rejects ``e`` under open delay windows."""
    bounds = DelayBounds.unbounded(topo.num_sinks)
    try:
        solver._validate_solution(topo, bounds, e, node_delays_linear(topo, e))
    except AssertionError:
        return True
    return False


def scan_check_raises(topo, e):
    return bool(steiner_violations(topo, e, tol=solver._CHECK_TOL, limit=1))


def crossing(topo, e, target):
    """Adjacent scale factors ``a < b`` with the scan's worst pair of
    ``a * e`` above ``target`` and that of ``b * e`` at or below it, or
    None when no rescaling of ``e`` crosses ``target``."""
    start = scan_worst(topo, 0.0 * e)
    if start is None or start <= target:
        return None
    lo, hi = 0.0, 1.0
    while scan_worst(topo, hi * e) > target:
        lo, hi = hi, 2.0 * hi
        if hi > 2.0**40:
            return None  # the worst pair's path has zero length
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if scan_worst(topo, mid * e) > target:
            lo = mid
        else:
            hi = mid


class TestCertificate:
    """The O(n log n) certificate against the O(m^2) pair scan."""

    @given(
        kind=st.sampled_from(TOPOLOGY_KINDS),
        m=st.integers(1, 24),
        seed=st.integers(0, 10_000),
        zeros=st.booleans(),
        scale_exp=st.integers(-8, 24),
    )
    @settings(max_examples=150, deadline=None)
    def test_certificate_equals_scan(self, kind, m, seed, zeros, scale_exp):
        topo, e = certificate_instance(kind, m, seed, zeros, scale_exp)
        worst, guard = steiner_certificate(topo, node_delays_linear(topo, e))
        ref = scan_worst(topo, e)
        if ref is None:
            assert worst == 0.0
        else:
            assert abs(worst - ref) <= guard, (worst, ref, guard)
        assert max_steiner_violation(topo, e) == worst

    @given(
        kind=st.sampled_from(TOPOLOGY_KINDS),
        m=st.integers(1, 16),
        seed=st.integers(0, 10_000),
        zeros=st.booleans(),
        scale_exp=st.integers(-4, 24),
    )
    @settings(max_examples=40, deadline=None)
    def test_guarded_verdict_is_the_scans(
        self, kind, m, seed, zeros, scale_exp
    ):
        """Rescale the edges so the scan's worst pair sits just above and
        at-or-below ``tol``, ``tol +- 1 ulp`` and ``tol +- guard``: the
        post-check must reject exactly when the scan reports a pair."""
        topo, e = certificate_instance(kind, m, seed, zeros, scale_exp)
        tol = solver._CHECK_TOL
        _, guard = steiner_certificate(topo, node_delays_linear(topo, e))
        targets = (
            tol,
            np.nextafter(tol, np.inf),
            np.nextafter(tol, -np.inf),
            tol + guard,
            tol - guard,
        )
        scales = [1.0]
        for target in targets:
            scales += crossing(topo, e, target) or ()
        for a in scales:
            assert guarded_check_raises(topo, a * e) == scan_check_raises(
                topo, a * e
            ), (a, scan_worst(topo, a * e))

    def test_interior_sink_pairs_count(self):
        """A chain's only pairs are ancestor-descendant ones."""
        topo = chain_topology([Point(4, 0), Point(0, 4)], source=Point(0, 0))
        e = np.array([0.0, 4.0, 1.0])  # path(s1,s2) = e2 = 1 < dist = 8
        assert max_steiner_violation(topo, e) == 7.0
