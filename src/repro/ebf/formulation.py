"""EBF LP assembly (Section 4.3's "Summary of the Formulation").

Variables are the edge lengths ``e_1 .. e_n`` (variable ``j`` is edge
``j + 1``).  Rows:

* Steiner constraints for a chosen set of sink pairs (all pairs by
  default; the lazy solver passes a growing subset);
* delay range rows per sink: ``l_i <= sum path(s_0, s_i) <= u_i``;
* zero-pinned tie edges from degree-4 splitting.

When the source location is *given*, the effective lower bound of each
delay row is raised to ``max(l_i, dist(s_0, s_i))`` — the path from a fixed
source to a sink can never embed shorter than their Manhattan distance, so
this strengthening is sound and makes Theorem 4.1's embedding guarantee
carry over to the fixed-source case (the source acts as an extra terminal
of every root path).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.ebf.bounds import DelayBounds
from repro.ebf.constraints import all_sink_pairs, steiner_row_matrix
from repro.lp import LinearProgram, Sense
from repro.topology import Topology


def edge_var(edge_id: int) -> int:
    """Column index of edge ``e_i`` (paper numbering) in the EBF LP."""
    if edge_id < 1:
        raise ValueError(f"edge ids start at 1, got {edge_id}")
    return edge_id - 1


def build_ebf_lp(
    topo: Topology,
    bounds: DelayBounds,
    *,
    weights: Sequence[float] | None = None,
    pairs: Sequence[tuple[int, int]] | None = None,
    zero_edges: Iterable[int] = (),
) -> LinearProgram:
    """Build the EBF LP for ``topo`` with the given delay bounds.

    ``weights`` (indexed by node id, entry 0 ignored) give the Section 7
    weighted objective; ``pairs`` restricts the Steiner rows to a subset
    (used by lazy row generation); ``zero_edges`` pins tie edges to zero.
    """
    lp = build_tree_lp(topo, bounds, weights=weights, zero_edges=zero_edges)
    meta = lp.tree_meta
    add_delay_rows(lp, topo, meta.lower, meta.upper)
    add_steiner_rows(lp, topo, pairs)
    meta.covered_rows = lp.num_constraints
    return lp


def build_tree_lp(
    topo: Topology,
    bounds: DelayBounds,
    *,
    weights: Sequence[float] | None = None,
    zero_edges: Iterable[int] = (),
) -> LinearProgram:
    """The EBF model as ``backend="tree"`` reads it: one cost-weighted
    variable per edge (``zero_edges`` pinned to zero) and the
    :class:`~repro.lp.TreeLpMeta` stamp, with no rows.

    :func:`repro.lp.treesolve.solve_tree` rebuilds the delay windows and
    the whole Steiner family from the stamp, so it returns the same
    answer on this model as on :func:`build_ebf_lp`'s — which adds the
    rows to it — for any ``pairs``, without the rows it would ignore.
    """
    from repro.lp import TreeLpMeta

    if bounds.num_sinks != topo.num_sinks:
        raise ValueError("bounds/sink count mismatch")
    if weights is not None and len(weights) != topo.num_nodes:
        raise ValueError("weights must be indexed by node id (len = num_nodes)")

    cost = 1.0
    if weights is not None:
        cost = np.asarray(weights, dtype=float)[1:]
        negative = np.flatnonzero(cost < 0)
        if negative.size:
            raise ValueError(f"negative edge weight for e_{negative[0] + 1}")
    lp = LinearProgram()
    lp.add_variables(topo.num_edges, prefix="e", cost=cost, first=1)
    zero_edges = tuple(zero_edges)
    for i in zero_edges:
        lp.fix_variable(edge_var(i), 0.0)

    # The tree facts the flat rows no longer expose, enabling the
    # structure-aware backend="tree" (see repro.lp.treesolve).
    su, sv = topo.sink_uv()
    lower, upper = sink_windows(topo, bounds)
    src = topo.source_location
    lp.tree_meta = TreeLpMeta(
        parents=topo.parent_array(),
        levels=tuple(level.nodes for level in topo.levels()),
        num_sinks=topo.num_sinks,
        su=su,
        sv=sv,
        lower=lower,
        upper=upper,
        zero_edges=zero_edges,
        weights=None if weights is None else np.asarray(weights, dtype=float),
        covered_rows=0,
        source_uv=None if src is None else np.array([src.u, src.v]),
    )
    return lp


def sink_windows(
    topo: Topology, bounds: DelayBounds
) -> tuple[np.ndarray, np.ndarray]:
    """Effective ``(lower, upper)`` delay windows indexed by node id.

    Sink entries carry the fixed-source strengthening described in the
    module docstring; inverted windows are returned raw.  Both the delay
    rows and the tree stamp read their windows from here, so the two
    formulations can never drift.
    """
    src = topo.source_location
    lo = bounds.lower
    if src is not None:
        floor = topo.source_distances()
        lo = np.where(floor > lo, floor, lo)  # max(lo, floor), lo on ties
    lower = np.zeros(topo.num_nodes)
    upper = np.zeros(topo.num_nodes)
    lower[1 : topo.num_sinks + 1] = lo
    upper[1 : topo.num_sinks + 1] = bounds.upper
    return lower, upper


def add_delay_rows(
    lp: LinearProgram,
    topo: Topology,
    lower: np.ndarray,
    upper: np.ndarray,
) -> None:
    """One range row per sink (Equation 8) over the :func:`sink_windows`
    arrays ``lower`` / ``upper``."""
    for i in topo.sink_ids():
        lo, hi = float(lower[i]), float(upper[i])
        if lo > hi + 1e-12:
            # Bounds violating Eq. 3 produce an immediately-infeasible row
            # rather than a silent wrong answer.
            lp.add_constraint({}, Sense.GE, 1.0, name=f"delay{i}.impossible")
            continue
        coeffs = {edge_var(k): 1.0 for k in topo.path_to_root(i)}
        lp.add_range_constraint(coeffs, lo, hi, name=f"delay{i}")


def add_steiner_rows(
    lp: LinearProgram,
    topo: Topology,
    pairs: Sequence[tuple] | None,
) -> list[int]:
    """Append Steiner rows for ``pairs`` (all sink pairs when ``None``);
    returns the new row indices.

    ``pairs`` entries are ``(i, j)`` or ``(i, j, lca)``.  Rows are built
    in one vectorized pass (:func:`steiner_row_matrix`) and appended as a
    CSR block — no per-pair path walk or per-row tuple construction.
    """
    if pairs is None:
        pairs = list(all_sink_pairs(topo))
    if not pairs:
        return []
    block, dist = steiner_row_matrix(topo, pairs)
    # Node-id columns -> LP columns (edge e_i lives in column i - 1).
    sub = block[:, 1:]
    names = [f"steiner{p[0]},{p[1]}" for p in pairs]
    rows = list(
        lp.add_rows(sub.data, sub.indices, sub.indptr, Sense.GE, dist, names)
    )
    # Every Steiner row is a member of the family the tree backend's
    # collapsed formulation implies, so appending one keeps the model
    # tree-solvable: advance the coverage watermark.
    if lp.tree_meta is not None:
        lp.tree_meta.covered_rows = lp.num_constraints
    return rows


def expand_edge_vector(topo: Topology, x: np.ndarray) -> np.ndarray:
    """LP solution vector -> edge-length vector indexed by node id."""
    e = np.zeros(topo.num_nodes)
    e[1:] = np.maximum(np.asarray(x, dtype=float), 0.0)
    return e
