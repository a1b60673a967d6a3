"""Unit and property tests for the Topology data structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.topology import (
    NodeKind,
    Topology,
    chain_topology,
    star_topology,
    topology_from_parents,
)


@pytest.fixture
def paper_fig3():
    """The 5-point example of Section 4.5 / Figure 3.

    Free source s_0 with Steiner points; sinks s_1..s_5.  We pick the
    standard reading of Figure 3: s_0 is the (free) root with children
    s_6-side and s_8-side; paths match the constraint rows of the paper's
    LP (e.g. path(s_1, s_3) = {e_1, e_6, e_8, e_7, e_3}).
    """
    # nodes: 0=root, 1..5 sinks, 6,7,8 steiner
    # root children: 6 and 8; 6 children: 1, 5; 8 children: 2, 7;
    # 7 children: 3, 4.
    parents = [None, 6, 8, 7, 7, 6, 0, 8, 0]
    sinks = [
        Point(0, 0),
        Point(4, 0),
        Point(8, 2),
        Point(8, 0),
        Point(2, 3),
    ]
    return Topology(parents, 5, sinks, source_location=None)


class TestConstruction:
    def test_basic_shape(self, paper_fig3):
        t = paper_fig3
        assert t.num_nodes == 9
        assert t.num_sinks == 5
        assert t.num_steiner == 3
        assert t.num_edges == 8

    def test_kinds(self, paper_fig3):
        t = paper_fig3
        assert t.kind(0) is NodeKind.ROOT
        assert t.kind(3) is NodeKind.SINK
        assert t.kind(7) is NodeKind.STEINER

    def test_children_and_parent(self, paper_fig3):
        t = paper_fig3
        assert set(t.children(0)) == {6, 8}
        assert t.parent(3) == 7
        assert t.parent(0) is None

    def test_rejects_root_with_parent(self):
        with pytest.raises(ValueError):
            Topology([0, 0], 1, [Point(0, 0)])

    def test_rejects_cycle(self):
        # 1 and 2 point at each other — unreachable from root.
        with pytest.raises(ValueError):
            Topology([None, 2, 1, 0], 3, [Point(0, 0)] * 3)

    def test_rejects_self_parent(self):
        with pytest.raises(ValueError):
            Topology([None, 1], 1, [Point(0, 0)])

    def test_rejects_wrong_location_count(self):
        with pytest.raises(ValueError):
            Topology([None, 0], 2, [Point(0, 0)])

    def test_rejects_zero_sinks(self):
        with pytest.raises(ValueError):
            Topology([None], 0, [])


class TestPathsAndLca:
    def test_path_to_root(self, paper_fig3):
        assert paper_fig3.path_to_root(3) == [3, 7, 8]
        assert paper_fig3.path_to_root(0) == []

    def test_lca(self, paper_fig3):
        t = paper_fig3
        assert t.lca(1, 5) == 6
        assert t.lca(3, 4) == 7
        assert t.lca(1, 3) == 0
        assert t.lca(2, 3) == 8
        assert t.lca(3, 3) == 3
        assert t.lca(3, 7) == 7

    def test_path_between_matches_paper_constraints(self, paper_fig3):
        """The Section 4.5 LP lists path(s_1,s_3) = e1+e6+e8+e7+e3."""
        t = paper_fig3
        assert sorted(t.path_between(1, 3)) == [1, 3, 6, 7, 8]
        assert sorted(t.path_between(1, 5)) == [1, 5]
        assert sorted(t.path_between(3, 4)) == [3, 4]
        assert sorted(t.path_between(2, 5)) == [2, 5, 6, 8]

    def test_path_between_symmetry(self, paper_fig3):
        t = paper_fig3
        for a in range(t.num_nodes):
            for b in range(t.num_nodes):
                assert sorted(t.path_between(a, b)) == sorted(t.path_between(b, a))

    def test_deep_chain_no_recursion_error(self):
        m = 3000
        sinks = [Point(i, 0) for i in range(m)]
        t = chain_topology(sinks)
        assert t.depth(m) == m
        assert len(t.path_to_root(m)) == m
        assert t.lca(m, m - 1) == m - 1


class TestTraversal:
    def test_postorder_children_first(self, paper_fig3):
        t = paper_fig3
        pos = {node: idx for idx, node in enumerate(t.postorder())}
        for i in range(1, t.num_nodes):
            assert pos[i] < pos[t.parent(i)]

    def test_preorder_parents_first(self, paper_fig3):
        t = paper_fig3
        seen = set()
        for node in t.preorder():
            p = t.parent(node)
            assert p is None or p in seen
            seen.add(node)

    def test_subtree_sinks(self, paper_fig3):
        t = paper_fig3
        assert sorted(t.subtree_sinks(7)) == [3, 4]
        assert sorted(t.subtree_sinks(8)) == [2, 3, 4]
        assert sorted(t.subtree_sinks(0)) == [1, 2, 3, 4, 5]
        assert t.subtree_sinks(3) == [3]

    def test_sinks_under_matches_subtree_sinks(self, paper_fig3):
        t = paper_fig3
        table = t.sinks_under()
        for k in range(t.num_nodes):
            assert sorted(table[k]) == sorted(t.subtree_sinks(k))

    def test_levels_partition_by_depth(self, paper_fig3):
        t = paper_fig3
        levels = t.levels()
        assert sorted(v for lv in levels for v in lv.nodes.tolist()) == list(
            range(1, t.num_nodes)
        )
        for d, (nodes, parents) in enumerate(levels, start=1):
            assert list(nodes) == sorted(nodes)
            assert all(t.depth(v) == d for v in nodes)
            assert list(parents) == [t.parent(v) for v in nodes]
        assert list(t.parent_array()) == [0] + [
            t.parent(i) for i in range(1, t.num_nodes)
        ]
        # Memoized and shared, so callers cannot write to them.
        with pytest.raises(ValueError):
            t.parent_array()[1] = 0
        with pytest.raises(ValueError):
            levels[0].nodes[0] = 0

    def test_sink_arrays_match_the_points(self, paper_fig3):
        t = paper_fig3
        xy = t.sink_xy()
        assert xy.shape == (t.num_sinks, 2)
        assert [tuple(row) for row in xy.tolist()] == [
            (p.x, p.y) for p in t.sink_locations
        ]
        su, sv = t.sink_uv()
        assert su.tolist() == [0.0] + [p.u for p in t.sink_locations] + [
            0.0
        ] * t.num_steiner
        assert sv[1 : t.num_sinks + 1].tolist() == [
            p.v for p in t.sink_locations
        ]
        assert t.sink_xy() is xy
        with pytest.raises(ValueError):
            xy[0, 0] = 1.0

    def test_source_distances_match_manhattan(self):
        from repro.geometry import manhattan

        sinks = [Point(0.1, 7.3), Point(-2.5, 0.0), Point(1e4, -0.0)]
        src = Point(3.3, -1.7)
        t = Topology([None, 0, 0, 0], 3, sinks, src)
        assert t.source_distances().tolist() == [
            manhattan(src, p) for p in sinks
        ]
        with pytest.raises(ValueError):
            Topology([None, 0, 0, 0], 3, sinks).source_distances()

    def test_pickle_leaves_out_memoized_tables(self, paper_fig3):
        """Worker payloads carry the tree, not its derived tables, which
        the receiving side rebuilds on demand."""
        import pickle

        t = paper_fig3
        t.levels(), t.sink_uv(), t.sink_xy(), t.sinks_under(), t.lca(1, 2)
        t.root_path_incidence()
        copy = pickle.loads(pickle.dumps(t))
        assert all(getattr(copy, name) is None for name in t._DERIVED)
        assert [copy.parent(i) for i in range(t.num_nodes)] == [
            t.parent(i) for i in range(t.num_nodes)
        ]
        assert copy.lca(3, 4) == t.lca(3, 4) == 7
        assert [lv.nodes.tolist() for lv in copy.levels()] == [
            lv.nodes.tolist() for lv in t.levels()
        ]


class TestDegenerateBuilders:
    def test_star(self):
        t = star_topology([Point(0, 0), Point(1, 1)], source=Point(0, 1))
        assert t.num_steiner == 0
        assert set(t.children(0)) == {1, 2}
        assert t.source_location == Point(0, 1)

    def test_chain_interior_sinks_not_leaves(self):
        t = chain_topology([Point(0, 0), Point(1, 1), Point(2, 2)])
        assert not t.is_leaf(1)
        assert not t.is_leaf(2)
        assert t.is_leaf(3)

    def test_topology_from_parents(self):
        t = topology_from_parents([None, 0], [Point(5, 5)], Point(0, 0))
        assert t.num_sinks == 1
        assert t.sink_location(1) == Point(5, 5)
        with pytest.raises(ValueError):
            t.sink_location(0)


@st.composite
def random_topologies(draw):
    """Random full binary sink-leaf topologies via random merge orders."""
    m = draw(st.integers(min_value=1, max_value=12))
    pts = [
        Point(
            draw(st.integers(min_value=0, max_value=100)),
            draw(st.integers(min_value=0, max_value=100)),
        )
        for _ in range(m)
    ]
    from repro.topology import nearest_neighbor_topology

    with_source = draw(st.booleans())
    source = Point(50, 50) if with_source else None
    return nearest_neighbor_topology(pts, source)


class TestTopologyProperties:
    @given(random_topologies())
    @settings(max_examples=60, deadline=None)
    def test_lca_is_common_ancestor(self, t):
        import itertools

        for a, b in itertools.combinations(range(t.num_nodes), 2):
            k = t.lca(a, b)
            assert k in t.path_to_root(a) + [0] or k == a
            assert k in t.path_to_root(b) + [0] or k == b

    @given(random_topologies())
    @settings(max_examples=60, deadline=None)
    def test_path_between_is_disjoint_union(self, t):
        """path(a,b) edges = symmetric difference of root paths."""
        import itertools

        for a, b in itertools.combinations(range(1, t.num_nodes), 2):
            pa = set(t.path_to_root(a))
            pb = set(t.path_to_root(b))
            assert set(t.path_between(a, b)) == pa ^ pb

    @given(random_topologies())
    @settings(max_examples=60, deadline=None)
    def test_edge_count(self, t):
        assert t.num_edges == t.num_nodes - 1
        assert sum(len(t.children(i)) for i in range(t.num_nodes)) == t.num_edges
