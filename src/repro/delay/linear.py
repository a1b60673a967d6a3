"""Linear (pathlength) delay model — Equation 1.

``delay(s_i) = sum of edge lengths on path(s_0, s_i)``.  All functions take
an edge-length vector ``e`` indexed by node id (``e[0]`` unused, by the
paper's ``e_i <-> s_i`` identification).
"""

from __future__ import annotations

import numpy as np

from repro.topology import Topology


def _as_edge_vector(topo: Topology, e) -> np.ndarray:
    e = np.asarray(e, dtype=float)
    if e.shape != (topo.num_nodes,):
        raise ValueError(
            f"edge vector has shape {e.shape}, expected ({topo.num_nodes},)"
        )
    return e


def delay_to_node_linear(topo: Topology, e, node: int) -> float:
    """Pathlength from the root to ``node``."""
    e = _as_edge_vector(topo, e)
    return float(e[topo.path_to_root(node)].sum())


def node_delays_linear(topo: Topology, e) -> np.ndarray:
    """Root-to-node pathlength for *every* node, one step per depth level
    (each node gets ``d[parent] + e[node]``, as a preorder walk adds)."""
    e = _as_edge_vector(topo, e)
    d = np.zeros(topo.num_nodes)
    for level in topo.levels():
        d[level.nodes] = d[level.parents] + e[level.nodes]
    return d


def sink_delays_linear(topo: Topology, e) -> np.ndarray:
    """Array of length ``m``: linear delay of sink ``i`` at index ``i - 1``."""
    d = node_delays_linear(topo, e)
    return d[1 : topo.num_sinks + 1]


def tree_cost(topo: Topology, e, weights=None) -> float:
    """Total (optionally weighted) wirelength — the EBF objective."""
    e = _as_edge_vector(topo, e)
    if weights is None:
        return float(e[1:].sum())
    w = np.asarray(weights, dtype=float)
    if w.shape != e.shape:
        raise ValueError("weights must align with the edge vector")
    return float((w[1:] * e[1:]).sum())


def skew(delays: np.ndarray) -> float:
    """``skew(T)`` — max minus min source-sink delay (Section 2)."""
    d = np.asarray(delays, dtype=float)
    if d.size == 0:
        return 0.0
    return float(d.max() - d.min())


def delay_spread(delays: np.ndarray) -> tuple[float, float]:
    """(shortest, longest) sink delay — the Table 1 columns."""
    d = np.asarray(delays, dtype=float)
    if d.size == 0:
        return (0.0, 0.0)
    return float(d.min()), float(d.max())
