"""Array embedding kernel: level-batched feasible regions and placement.

The Section 5 sweeps are box arithmetic in the rotated (u, v) frame —
per node, four floats ``(u_lo, u_hi, v_lo, v_hi)``.  The scalar
implementation (kept in :mod:`repro.embedding.feasible` /
:mod:`repro.embedding.placement` as the reference path) materializes a
Python :class:`~repro.geometry.TRR` object per node per pass, which on
paper-scale nets dominates the embedding phase.  This module runs both
sweeps over whole ``(n, 4)`` / ``(n, 2)`` float64 arrays instead,
batched by tree depth: every child of a depth-``d`` node lives at depth
``d + 1``, so one scatter-reduce (``np.minimum.at`` / ``np.maximum.at``)
per level replaces the per-node Python loop.

Bit-compatibility with the scalar path is a hard contract, pinned by
``tests/test_embedding_kernel.py``.  Three details carry it:

* min/max/add/sub on float64 arrays are the same IEEE-754 operations the
  scalar code performs one at a time, and min/max folds are
  order-insensitive, so the scatter-reduce reproduces the per-child
  ``intersect``/``expanded`` folds exactly;
* the scalar top-down pass stores each placement as a :class:`Point`
  (x, y) and re-derives ``u = x + y`` / ``v = y - x`` when the node acts
  as a parent — a lossy round-trip in floating point — so this kernel
  stores (x, y) too and re-rotates per level instead of carrying (u, v);
* emptiness uses the same ``GEOM_EPS`` test, and the offending node
  reported on failure is the postorder-first (bottom-up) /
  preorder-first (top-down) problem node, exactly like the scalar loops
  (nodes ordered before the first problem compute identically in both
  paths, so the first problem node is the same).

Column layout everywhere: ``[u_lo, u_hi, v_lo, v_hi]``.
"""

from __future__ import annotations

import numpy as np

from repro.embedding.feasible import EmbeddingError
from repro.geometry import Point
from repro.geometry.trr import GEOM_EPS
from repro.topology import Topology

#: Same numerical cushion the scalar placement path uses at region
#: boundaries (``placement._SLACK``).
PLACEMENT_SLACK = 1e-9

_ULO, _UHI, _VLO, _VHI = 0, 1, 2, 3


def _first_in_order(order, problem: np.ndarray) -> int:
    for k in order:
        if problem[k]:
            return k
    raise AssertionError("no problem node found")  # pragma: no cover


def feasible_bounds(topo: Topology, edge_lengths) -> np.ndarray:
    """Bottom-up feasible regions for every node as an ``(n, 4)`` array.

    Row ``k`` is ``FR_k`` in rotated coordinates; sinks are point rows.
    Raises :class:`EmbeddingError` — identifying the first offending node
    in postorder, exactly like the scalar path — when any region is
    empty (Theorem 4.1 contrapositive).
    """
    e = np.asarray(edge_lengths, dtype=float)
    if e.shape != (topo.num_nodes,):
        raise ValueError("edge vector shape mismatch")
    if np.any(e[1:] < -1e-9):
        raise EmbeddingError("negative edge length")

    n = topo.num_nodes
    r = np.maximum(0.0, e)  # the scalar path clamps per-child radii
    su, sv = topo.sink_uv()
    is_sink = np.zeros(n, dtype=bool)
    is_sink[1 : topo.num_sinks + 1] = True

    fb = np.empty((n, 4), dtype=np.float64)
    # Steiner/root rows start as the whole plane and shrink by
    # intersection; sink rows are pinned to their point and never widen.
    fb[:, _ULO] = -np.inf
    fb[:, _UHI] = np.inf
    fb[:, _VLO] = -np.inf
    fb[:, _VHI] = np.inf
    fb[is_sink, _ULO] = su[is_sink]
    fb[is_sink, _UHI] = su[is_sink]
    fb[is_sink, _VLO] = sv[is_sink]
    fb[is_sink, _VHI] = sv[is_sink]

    # Deepest level first: when level d is processed every node there is
    # final, and its expanded box folds into its (depth d-1) parent.
    for c, p in reversed(topo.levels()):
        # Interior sinks keep their point region — the scalar sweep never
        # intersects children into a sink node.
        grow = ~is_sink[p]
        c, p = c[grow], p[grow]
        if not len(c):
            continue
        np.maximum.at(fb[:, _ULO], p, fb[c, _ULO] - r[c])
        np.minimum.at(fb[:, _UHI], p, fb[c, _UHI] + r[c])
        np.maximum.at(fb[:, _VLO], p, fb[c, _VLO] - r[c])
        np.minimum.at(fb[:, _VHI], p, fb[c, _VHI] + r[c])

    src = topo.source_location
    if src is not None:
        fb[0, _ULO] = max(fb[0, _ULO], src.u)
        fb[0, _UHI] = min(fb[0, _UHI], src.u)
        fb[0, _VLO] = max(fb[0, _VLO], src.v)
        fb[0, _VHI] = min(fb[0, _VHI], src.v)

    empty = (fb[:, _UHI] - fb[:, _ULO] < -GEOM_EPS) | (
        fb[:, _VHI] - fb[:, _VLO] < -GEOM_EPS
    )
    # A childless Steiner node never shrinks from the whole plane; the
    # scalar loop reports it the moment postorder reaches it.
    childless = np.ones(n, dtype=bool)
    childless[topo.parent_array()[1:]] = False
    childless &= ~is_sink
    childless[0] = False
    problem = empty | childless
    if problem.any():
        k = _first_in_order(topo.postorder(), problem)
        if childless[k]:
            raise EmbeddingError(f"Steiner node {k} has no children")
        raise EmbeddingError(
            f"feasible region of node {k} is empty: the edge lengths "
            "violate a Steiner constraint (Theorem 4.1 contrapositive)"
        )
    return fb


def place_xy(
    topo: Topology,
    edge_lengths,
    fb: np.ndarray,
    policy: str = "nearest",
) -> np.ndarray:
    """Top-down placement over the array bounds; returns ``(n, 2)``
    original-frame ``(x, y)`` coordinates.

    ``fb`` is the output of :func:`feasible_bounds`.  Policies match the
    scalar path: ``"nearest"`` clamps the parent's position into the
    child's region, ``"center"`` takes the region midpoint.
    """
    if policy not in ("nearest", "center"):
        raise ValueError(f"unknown placement policy {policy!r}")
    e = np.asarray(edge_lengths, dtype=float)
    n = topo.num_nodes
    ball = np.maximum(0.0, e) + PLACEMENT_SLACK

    xy = np.empty((n, 2), dtype=np.float64)
    src = topo.source_location
    if src is not None:
        xy[0, 0] = src.x
        xy[0, 1] = src.y
    else:
        u0 = (fb[0, _ULO] + fb[0, _UHI]) / 2.0
        v0 = (fb[0, _VLO] + fb[0, _VHI]) / 2.0
        xy[0, 0] = (u0 - v0) / 2.0
        xy[0, 1] = (u0 + v0) / 2.0

    any_empty = np.zeros(n, dtype=bool)
    for c, p in topo.levels():
        # Re-derive (u, v) from the stored (x, y) exactly as Point.u /
        # Point.v do — the rotation round-trip is lossy in floating
        # point, and the scalar path goes through Point between levels.
        px, py = xy[p, 0], xy[p, 1]
        pu = px + py
        pv = py - px
        ulo = np.maximum(fb[c, _ULO], pu - ball[c])
        uhi = np.minimum(fb[c, _UHI], pu + ball[c])
        vlo = np.maximum(fb[c, _VLO], pv - ball[c])
        vhi = np.minimum(fb[c, _VHI], pv + ball[c])
        any_empty[c] = (uhi - ulo < -GEOM_EPS) | (vhi - vlo < -GEOM_EPS)
        if policy == "center":
            cu = (ulo + uhi) / 2.0
            cv = (vlo + vhi) / 2.0
        else:
            cu = np.minimum(np.maximum(pu, ulo), uhi)
            cv = np.minimum(np.maximum(pv, vlo), vhi)
        xy[c, 0] = (cu - cv) / 2.0  # Point.from_uv
        xy[c, 1] = (cu + cv) / 2.0
    if any_empty.any():
        # Positions below an empty region are garbage; the scalar loop
        # never reaches them because it raises at the preorder-first
        # empty node — report exactly that node.
        node = _first_in_order(topo.preorder(), any_empty)
        raise EmbeddingError(
            f"placement region of node {node} is empty "
            "(edge lengths inconsistent with feasible regions)"
        )
    return xy


def embed_placements(
    topo: Topology, edge_lengths, policy: str = "nearest"
) -> dict[int, Point]:
    """Both sweeps end to end; returns the node -> :class:`Point` map the
    pipeline and SVG layers consume.

    Bit-identical to the scalar
    ``place_points(topo, e, feasible_regions(topo, e))`` composition.
    """
    fb = feasible_bounds(topo, edge_lengths)
    return points_by_node(place_xy(topo, edge_lengths, fb, policy=policy))


def points_by_node(xy: np.ndarray) -> dict[int, Point]:
    """The node id -> :class:`Point` map of an ``(n, 2)`` placement."""
    return dict(enumerate(map(Point, *xy.T.tolist())))
