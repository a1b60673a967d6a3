"""Tests for feasible regions, placement, and Theorem 4.1 end-to-end.

The central property: for ANY edge lengths satisfying the Steiner
constraints (in particular every EBF solution), the two sweeps produce a
valid embedding with ``e_k >= dist(child, parent)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay import sink_delays_linear
from repro.ebf import DelayBounds, solve_lubt, solve_zero_skew
from repro.ebf.bounds import radius_of
from repro.embedding import (
    EmbeddingError,
    embed_tree,
    embedding_violations,
    feasible_regions,
    place_points,
    solve_and_embed,
    verify_embedding,
)
from repro.embedding.feasible import feasible_region_via_sinks
from repro.embedding.verify import tight_edges
from repro.geometry import Point, manhattan
from repro.topology import Topology, nearest_neighbor_topology


def random_topo(m, seed, fixed=False):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 80, (m, 2))]
    src = Point(40.0, 40.0) if fixed else None
    return nearest_neighbor_topology(pts, src)


def random_bounds(topo, seed):
    rng = np.random.default_rng(seed + 77)
    r = radius_of(topo)
    lo = float(rng.uniform(0, 1.2)) * r
    hi = max(lo, r, float(rng.uniform(1.0, 2.0)) * r)
    if topo.source_location is not None:
        hi = max(
            hi,
            max(manhattan(topo.source_location, s) for s in topo.sink_locations),
        )
    return DelayBounds.uniform(topo.num_sinks, lo, hi)


class TestFeasibleRegions:
    def test_sink_regions_are_points(self):
        topo = random_topo(5, 1)
        sol = solve_lubt(topo, DelayBounds.unbounded(5))
        fr = feasible_regions(topo, sol.edge_lengths)
        for i in topo.sink_ids():
            assert fr[i].is_point()
            assert fr[i].contains(topo.sink_location(i))

    def test_matches_equation13(self):
        """Sweep FRs equal the appendix's sink-ball characterization."""
        topo = random_topo(7, 2)
        sol = solve_lubt(topo, random_bounds(topo, 2))
        fr = feasible_regions(topo, sol.edge_lengths)
        for k in list(topo.steiner_ids()) + [0]:
            via_sinks = feasible_region_via_sinks(topo, sol.edge_lengths, k)
            assert via_sinks.contains_trr(fr[k], tol=1e-6)
            assert fr[k].contains_trr(via_sinks, tol=1e-6)

    def test_violating_lengths_raise(self):
        topo = random_topo(4, 3)
        e = np.zeros(topo.num_nodes)  # all-zero violates Steiner constraints
        with pytest.raises(EmbeddingError):
            feasible_regions(topo, e)

    def test_negative_length_rejected(self):
        topo = random_topo(3, 4)
        e = np.full(topo.num_nodes, 10.0)
        e[1] = -1.0
        with pytest.raises(EmbeddingError):
            feasible_regions(topo, e)

    def test_shape_mismatch(self):
        topo = random_topo(3, 5)
        with pytest.raises(ValueError):
            feasible_regions(topo, np.ones(2))


class TestPlacement:
    def test_policies(self):
        topo = random_topo(6, 6)
        sol = solve_lubt(topo, random_bounds(topo, 6))
        fr = feasible_regions(topo, sol.edge_lengths)
        for policy in ("nearest", "center"):
            placements = place_points(topo, sol.edge_lengths, fr, policy)
            verify_embedding(topo, sol.edge_lengths, placements)

    def test_unknown_policy(self):
        topo = random_topo(3, 7)
        sol = solve_lubt(topo, DelayBounds.unbounded(3))
        fr = feasible_regions(topo, sol.edge_lengths)
        with pytest.raises(ValueError):
            place_points(topo, sol.edge_lengths, fr, "random")

    def test_fixed_source_placed_at_source(self):
        topo = random_topo(5, 8, fixed=True)
        _, tree = solve_and_embed(topo, random_bounds(topo, 8))
        assert tree.root_location() == topo.source_location


class TestTheorem41:
    """The paper's key theorem, exercised as a property."""

    @given(st.integers(2, 14), st.integers(0, 1000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_lubt_solution_embeds(self, m, seed, fixed):
        topo = random_topo(m, seed, fixed)
        sol = solve_lubt(topo, random_bounds(topo, seed))
        tree = embed_tree(topo, sol.edge_lengths)
        assert embedding_violations(topo, sol.edge_lengths, tree.placements) == []

    @given(st.integers(2, 14), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_zero_skew_solutions_embed(self, m, seed):
        topo = random_topo(m, seed)
        zst = solve_zero_skew(topo)
        tree = embed_tree(topo, zst.edge_lengths)
        assert tree.cost == pytest.approx(zst.cost)

    @given(st.integers(2, 10), st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_inflated_lengths_still_embed(self, m, seed):
        """Satisfying lengths stay satisfying when grown uniformly."""
        topo = random_topo(m, seed)
        sol = solve_lubt(topo, DelayBounds.unbounded(m))
        rng = np.random.default_rng(seed)
        e = sol.edge_lengths * (1.0 + rng.uniform(0, 1))
        tree = embed_tree(topo, e)
        assert tree.drawn_wirelength <= tree.cost + 1e-6


class TestEmbeddedTree:
    def test_cost_and_drawn_wirelength(self):
        topo = random_topo(8, 9)
        sol, tree = solve_and_embed(topo, random_bounds(topo, 9))
        assert tree.cost == pytest.approx(sol.cost)
        assert tree.drawn_wirelength <= tree.cost + 1e-6
        assert tree.elongation >= -1e-6

    def test_delays_preserved(self):
        """The embedded tree's LP delays are the solution's delays."""
        topo = random_topo(6, 10)
        sol, tree = solve_and_embed(topo, random_bounds(topo, 10))
        assert tree.sink_delays() == pytest.approx(sol.delays)

    def test_tight_edge_classification(self):
        # Two sinks, lower bound forces elongation of both edges.
        topo = nearest_neighbor_topology([Point(0, 0), Point(10, 0)])
        sol = solve_lubt(
            topo, DelayBounds.uniform(2, 8.0, 9.0), check_bounds=False
        )
        tree = embed_tree(topo, sol.edge_lengths)
        tight, elongated, degenerate = tight_edges(
            topo, sol.edge_lengths, tree.placements
        )
        # Each edge is 8 long but spans only 5 of distance: elongated.
        assert len(elongated) == 2
        assert not tight
        assert not degenerate

    def test_degenerate_edges(self):
        """Coincident sinks produce zero-length (degenerate) edges."""
        topo = nearest_neighbor_topology([Point(3, 3), Point(3, 3)])
        sol = solve_lubt(topo, DelayBounds.unbounded(2))
        tree = embed_tree(topo, sol.edge_lengths)
        _, _, degenerate = tight_edges(topo, sol.edge_lengths, tree.placements)
        assert len(degenerate) == 2


class TestVerifier:
    def test_detects_moved_sink(self):
        topo = random_topo(4, 11)
        sol, tree = solve_and_embed(topo, random_bounds(topo, 11))
        bad = dict(tree.placements)
        bad[1] = Point(-999, -999)
        problems = embedding_violations(topo, sol.edge_lengths, bad)
        assert any("sink 1" in p for p in problems)

    def test_detects_overlong_span(self):
        topo = random_topo(4, 12)
        sol, tree = solve_and_embed(topo, random_bounds(topo, 12))
        steiner = next(iter(topo.steiner_ids()), None)
        if steiner is None:
            pytest.skip("no steiner points")
        bad = dict(tree.placements)
        bad[steiner] = Point(1e6, 1e6)
        problems = embedding_violations(topo, sol.edge_lengths, bad)
        assert any("shorter than embedded distance" in p for p in problems)

    def test_missing_placement(self):
        topo = random_topo(3, 13)
        sol, tree = solve_and_embed(topo, random_bounds(topo, 13))
        partial = dict(tree.placements)
        del partial[1]
        problems = embedding_violations(topo, sol.edge_lengths, partial)
        assert problems

    #: Sinks 1-4 under Steiner 5 (1, 2) and 6 (3, 4), both under 7 on a
    #: fixed source, with a moved sink, an unplaced sink, a moved source,
    #: two short edges and an unplaced Steiner point.
    FAULTY = (
        Topology(
            [None, 5, 5, 6, 6, 7, 7, 0], 4,
            [Point(0.0, 0.0), Point(4.0, 0.0), Point(0.0, 6.0),
             Point(4.0, 6.0)],
            Point(2.0, 10.0),
        ),
        np.array([0.0, 1.5, 2.0, 2.0, 2.0, 6.0, 0.0, 4.0]),
        {0: Point(2.0, 11.0), 1: Point(0.0, 0.0), 2: Point(5.0, 0.0),
         3: Point(0.0, 6.0), 5: Point(2.0, 0.0), 7: Point(2.0, 6.0)},
    )
    FAULTS = [
        "sink 2 placed at (5, 0), expected (4, 0)",
        "sink 4 not placed",
        "source placed at (2, 11), expected (2, 10)",
        "edge e_1 = 1.5 shorter than embedded distance 2",
        "edge e_2 = 2 shorter than embedded distance 3",
        "edge e_3: endpoint missing",
        "edge e_4: endpoint missing",
        "edge e_6: endpoint missing",
        "edge e_7 = 4 shorter than embedded distance 5",
    ]

    def test_every_fault_listed_in_order(self):
        topo, e, placements = self.FAULTY
        assert embedding_violations(topo, e, placements) == self.FAULTS
        with pytest.raises(AssertionError) as err:
            verify_embedding(topo, e, placements)
        assert str(err.value) == "invalid embedding:\n  " + "\n  ".join(
            self.FAULTS
        )

    def test_array_verification_lists_the_same_faults(self):
        """``embed_tree`` verifies the kernel's ``(n, 2)`` array; with
        every node placed it reports what the map check reports."""
        topo, e, placements = self.FAULTY
        full = dict(placements)
        full[4], full[6] = Point(4.0, 6.0), Point(2.0, 6.0)
        xy = np.array([[full[k].x, full[k].y] for k in range(8)])
        with pytest.raises(AssertionError) as err:
            verify_embedding(topo, e, xy)
        want = embedding_violations(topo, e, full)
        assert want == [
            "sink 2 placed at (5, 0), expected (4, 0)",
            "source placed at (2, 11), expected (2, 10)",
            "edge e_1 = 1.5 shorter than embedded distance 2",
            "edge e_2 = 2 shorter than embedded distance 3",
            "edge e_7 = 4 shorter than embedded distance 5",
        ]
        assert str(err.value) == "invalid embedding:\n  " + "\n  ".join(want)

    def test_placements_are_one_map_built_on_first_read(self):
        """Every reader of ``embed_tree``'s placements sees the map the
        kernel's points make, however it reads it."""
        import pickle

        from repro.embedding import embed_placements

        topo = random_topo(9, 14, fixed=True)
        sol, tree = solve_and_embed(topo, random_bounds(topo, 14))
        want = embed_placements(topo, sol.edge_lengths)
        got = tree.placements
        assert len(got) == topo.num_nodes
        assert got[3] is got[3]
        assert list(got) == list(want) and dict(got) == want
        assert got.get(topo.num_nodes) is None and 0 in got
        assert got == want and repr(got) == repr(want)
        assert dict(pickle.loads(pickle.dumps(tree)).placements) == want

