"""Top-down placement (Section 5, Figure 7).

Once feasible regions exist, points are placed root-first: the possible
placements of child ``c`` of an already-placed parent ``p`` are

    FR_c  intersect  TRR({p}, e_c)

which Theorem 4.1 guarantees non-empty.  Within that region any point is
valid; two policies are provided:

* ``"nearest"`` (default) — the point closest to the parent, which keeps
  the *drawn* wire as short as possible (elongation is then realized as a
  serpentine detour of exactly ``e_c`` total length, the paper's "wire
  elongation");
* ``"center"`` — the region center, matching the illustrative figures.
"""

from __future__ import annotations

import numpy as np

from repro.embedding.feasible import EmbeddingError
from repro.geometry import Point, TRR
from repro.topology import Topology

#: Numerical cushion for region intersections at the float boundary.
_SLACK = 1e-9

PLACEMENT_POLICIES = ("nearest", "center")


def place_points(
    topo: Topology,
    edge_lengths,
    fr: dict[int, TRR],
    policy: str = "nearest",
) -> dict[int, Point]:
    """Return a location for every node, consistent with ``edge_lengths``.

    ``fr`` is the output of :func:`repro.embedding.feasible_regions`.
    Runs on the array kernel (:func:`repro.embedding.kernel.place_xy`),
    bit-identical to :func:`place_points_scalar`.
    """
    if policy not in PLACEMENT_POLICIES:
        raise ValueError(f"unknown placement policy {policy!r}")
    # cycle: kernel imports feasible
    from repro.embedding.kernel import place_xy, points_by_node

    fb = np.empty((topo.num_nodes, 4), dtype=np.float64)
    for k in range(topo.num_nodes):
        t = fr[k]
        fb[k, 0] = t.ulo
        fb[k, 1] = t.uhi
        fb[k, 2] = t.vlo
        fb[k, 3] = t.vhi
    return points_by_node(place_xy(topo, edge_lengths, fb, policy=policy))


def place_points_scalar(
    topo: Topology,
    edge_lengths,
    fr: dict[int, TRR],
    policy: str = "nearest",
) -> dict[int, Point]:
    """The per-node scalar sweep — reference path for the array kernel.

    Kept verbatim so ``tests/test_embedding_kernel.py`` can pin the
    kernel's bit-compatibility against it; production callers go through
    :func:`place_points`.
    """
    if policy not in PLACEMENT_POLICIES:
        raise ValueError(f"unknown placement policy {policy!r}")
    e = np.asarray(edge_lengths, dtype=float)

    placements: dict[int, Point] = {}
    if topo.source_location is not None:
        placements[0] = topo.source_location
    else:
        placements[0] = fr[0].center()

    for node in topo.preorder():
        if node == 0:
            continue
        parent_at = placements[topo.parent(node)]  # placed before (preorder)
        ball = TRR.square(parent_at, max(0.0, e[node]) + _SLACK)  # noqa: RL006 (scalar reference path)
        region = fr[node].intersect(ball)
        if region.is_empty():
            raise EmbeddingError(
                f"placement region of node {node} is empty "
                "(edge lengths inconsistent with feasible regions)"
            )
        if policy == "center":
            placements[node] = region.center()
        else:
            placements[node] = region.closest_point_to(parent_at)
    return placements
