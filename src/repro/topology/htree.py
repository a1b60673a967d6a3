"""Recursive H-tree topologies and per-net builder dispatch.

An H-tree recursively bisects the die at the geometric center of the
current region, alternating cut axes — the classic CTS skeleton, here
encoded as a full binary tree (each H level is two alternating binary
cuts).  Like the paper's nearest-neighbor generator, every sink is a
leaf, so Lemma 3.1 guarantees LUBT feasibility for any valid bounds;
unlike it, construction is O(m log m)-ish top-down and produces the
spatially balanced trunk structure a chip-scale clock net wants.

:func:`build_net_topology` is the per-net dispatcher the CTS driver
uses: nearest-neighbor merge for small nets (best quality, O(m^2)
merge), balanced bipartition for mid-size nets, H-tree for large ones —
selectable explicitly or by sink count with ``kind="auto"``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import Point, points_xy
from repro.topology.builders import (
    balanced_bipartition_topology,
    nearest_neighbor_topology,
)
from repro.topology.tree import Topology

#: ``kind="auto"`` thresholds: nets up to this many sinks use the
#: nearest-neighbor merge ...
AUTO_NN_MAX_SINKS = 32
#: ... up to this many the balanced bipartition, beyond it the H-tree.
AUTO_BIPARTITION_MAX_SINKS = 256

#: Builder names accepted by :func:`build_net_topology`.
TOPOLOGY_KINDS = ("auto", "nn", "bipartition", "htree")


def htree_topology(
    sinks: list[Point], source: Point | None = None
) -> Topology:
    """Recursive H-tree over ``sinks`` (full binary, all sinks leaves).

    Each recursion cuts the current sink set at the geometric center of
    its bounding box, alternating axes, starting across the wider span.
    A cut that separates nothing (every sink on one side — collinear or
    coincident points, or a span collapsed to zero) falls back to a
    stable median split on the same axis, so the recursion always
    terminates with depth O(log m + float-span bits).  Steiner point
    locations are left to the LP, as everywhere else in the repro — the
    topology only fixes the H-tree's *connectivity*.

    The recursion runs one NumPy step per depth: the groups of a depth
    are contiguous runs of one sink order, and every run is cut at once
    (a stable left/right partition, or the stable median split where one
    side is empty).  Steiner ids follow the recursion's post-order,
    read off subtree sizes: a group of ``s`` sinks whose subtree's first
    merge is the ``lo``-th owns merge ``lo + s - 2``.
    """
    m = len(sinks)
    if m == 0:
        raise ValueError("cannot build a topology over zero sinks")
    if m == 1:
        return Topology([None, 0], 1, sinks, source)

    xy = points_xy(sinks)
    span = xy.max(axis=0) - xy.min(axis=0)
    axis = 0 if span[0] >= span[1] else 1
    order = np.arange(m)
    # Tokens: sink ``t`` is ``t``, the merge created ``k``-th is ``m + k``;
    # ``up[t]`` is the token of the merge that takes ``t`` in.
    up = np.full(2 * m - 1, -1, dtype=np.int64)
    # The groups of this depth: first position in ``order``, size, and
    # the post-order rank of their subtree's first merge.
    start = np.zeros(1, dtype=np.int64)
    size = np.full(1, m, dtype=np.int64)
    lo = np.zeros(1, dtype=np.int64)
    with np.errstate(invalid="ignore"):  # inf + -inf, as floats give
        while start.size:
            head = np.cumsum(size) - size
            group = np.repeat(np.arange(start.size), size)
            pos = np.arange(group.size) + (start - head)[group]
            key = xy[order[pos], axis]
            mid = (
                np.maximum.reduceat(key, head) + np.minimum.reduceat(key, head)
            ) / 2.0
            left = key <= mid[group]
            rank = np.cumsum(left) - left
            nleft = np.add.reduceat(left, head).astype(np.int64)
            rank -= rank[head][group]
            within = np.arange(pos.size) - head[group]
            dest = np.where(left, rank, nleft[group] + within - rank)
            median = (nleft == 0) | (nleft == size)
            if median.any():
                # Nothing separated: sort the group stably on the key and
                # cut it in half.
                at = np.flatnonzero(median[group])
                by = at[np.lexsort((key[at], group[at]))]
                dest[by] = within[at]
                nleft[median] = size[median] // 2
            order[start[group] + dest] = order[pos]
            token = m + lo + size - 2
            right = size - nleft
            up[np.where(nleft == 1, order[start], m + lo + nleft - 2)] = token
            # A right subtree's own merge comes just before its parent's.
            up[np.where(right == 1, order[start + nleft], token - 1)] = token
            start = _interleave(start, start + nleft)
            lo = _interleave(lo, lo + nleft - 1)
            size = _interleave(nleft, right)
            keep = size > 1
            start, lo, size = start[keep], lo[keep], size[keep]
            axis = 1 - axis

    # Token ``t`` is node ``t + 1``; the last merge is the source's
    # child, or the root itself when the source floats.
    parents = up + 1
    if source is None:
        parents[parents == 2 * m - 1] = 0
        parents = parents[:-1]
    else:
        parents[-1] = 0
    return Topology([None, *parents.tolist()], m, sinks, source)


def build_net_topology(
    sinks: list[Point],
    source: Point | None = None,
    *,
    kind: str = "auto",
) -> Topology:
    """Build one net's topology with the builder suited to its size.

    ``kind``: ``"nn"`` (nearest-neighbor merge), ``"bipartition"``
    (balanced median bipartition), ``"htree"``, or ``"auto"`` — by sink
    count: nn up to :data:`AUTO_NN_MAX_SINKS`, bipartition up to
    :data:`AUTO_BIPARTITION_MAX_SINKS`, H-tree beyond.  Every builder
    returns a full binary tree with all sinks as leaves.
    """
    if kind == "auto":
        m = len(sinks)
        if m <= AUTO_NN_MAX_SINKS:
            kind = "nn"
        elif m <= AUTO_BIPARTITION_MAX_SINKS:
            kind = "bipartition"
        else:
            kind = "htree"
    if kind == "nn":
        return nearest_neighbor_topology(sinks, source)
    if kind == "bipartition":
        return balanced_bipartition_topology(sinks, source)
    if kind == "htree":
        return htree_topology(sinks, source)
    raise ValueError(
        f"unknown topology kind {kind!r} (expected one of {TOPOLOGY_KINDS})"
    )


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[0], b[0], a[1], b[1], ...``: each group's halves, in order."""
    out = np.empty(2 * a.size, dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out
