"""Tests for the SVG tree exporter."""

import math

import numpy as np
import pytest

from repro.analysis import render_tree, save_svg, tree_to_svg
from repro.ebf import DelayBounds
from repro.embedding import EmbeddedTree, solve_and_embed
from repro.geometry import Point, manhattan
from repro.topology import nearest_neighbor_topology


@pytest.fixture
def tree():
    sinks = [Point(0, 0), Point(100, 0), Point(100, 80), Point(0, 80)]
    topo = nearest_neighbor_topology(sinks, Point(50, 40))
    _, t = solve_and_embed(topo, DelayBounds.normalized(topo, 0.0, 2.0))
    return t


@pytest.fixture
def elongated_tree():
    sinks = [Point(0, 0), Point(10, 0)]
    topo = nearest_neighbor_topology(sinks)
    _, t = solve_and_embed(
        topo, DelayBounds.uniform(2, 8.0, 9.0), check_bounds=False
    )
    return t


class TestSvg:
    def test_wellformed_document(self, tree):
        svg = tree_to_svg(tree)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        import xml.etree.ElementTree as ET

        ET.fromstring(svg)  # parses as XML

    def test_markers_present(self, tree):
        svg = tree_to_svg(tree)
        assert 'class="source"' in svg
        assert svg.count('class="sink"') == 4
        assert "cost=" in svg

    def test_labels_toggle(self, tree):
        with_labels = tree_to_svg(tree, label_sinks=True)
        without = tree_to_svg(tree, label_sinks=False)
        assert ">s1<" in with_labels
        assert ">s1<" not in without

    def test_elongated_edges_dashed(self, elongated_tree):
        svg = tree_to_svg(elongated_tree)
        assert 'class="elong"' in svg

    def test_no_false_elongation(self, tree):
        # Unbounded solve: edges are tight, nothing dashed... unless some
        # zero-length overlaps; allow zero or more but require wires.
        svg = tree_to_svg(tree)
        assert 'class="wire"' in svg

    def test_size_validation(self, tree):
        with pytest.raises(ValueError):
            tree_to_svg(tree, size=10)

    def test_save(self, tree, tmp_path):
        path = tmp_path / "tree.svg"
        save_svg(path, tree, size=320)
        assert path.read_text().startswith("<svg")


def _rounded_below(tree):
    """``tree`` with every edge a hair shorter than its drawn span, as
    rounding leaves a tree without detours."""
    topo, pts = tree.topology, tree.placements
    e = np.array(tree.edge_lengths, dtype=float)
    for k in range(1, topo.num_nodes):
        e[k] = max(manhattan(pts[k], pts[topo.parent(k)]) - 1e-11, 0.0)
    return EmbeddedTree(topo, e, pts)


class TestElongationTotal:
    """The total counts exactly the detours the drawing dashes."""

    def test_rounding_is_no_detour(self, tree):
        flat = _rounded_below(tree)
        assert flat.cost < flat.drawn_wirelength
        assert flat.elongation == 0.0
        assert math.copysign(1.0, flat.elongation) == 1.0
        svg = tree_to_svg(flat)
        assert 'class="elong"' not in svg
        assert "elongation=0.0<" in svg
        assert render_tree(flat).endswith("elongation=0")
        assert f"{flat.elongation:,.1f}" == "0.0"

    def test_total_is_the_dashed_detours(self, elongated_tree):
        t = elongated_tree
        assert t.detours()[0] == 0.0
        assert np.count_nonzero(t.detours()) == 2
        assert t.elongation == pytest.approx(t.cost - t.drawn_wirelength)
        assert tree_to_svg(t).count('class="elong"') == 2
