"""End-to-end embedding pipeline and the combined solve-and-embed entry.

This is the full two-stage flow of the paper: EBF LP for edge lengths,
then feasible regions + top-down placement for coordinates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.delay import sink_delays_linear
from repro.ebf.bounds import DelayBounds
from repro.ebf.solver import LubtSolution, solve_lubt
from repro.embedding.kernel import feasible_bounds, place_xy, points_by_node
from repro.embedding.verify import verify_embedding
from repro.geometry import Point, manhattan
from repro.topology import Topology


#: An edge longer than its drawn Manhattan span by more than this is a
#: detour (the SVG export dashes it); anything less is rounding.
DETOUR_TOL = 1e-6


@dataclass(frozen=True)
class EmbeddedTree:
    """A routed tree: edge lengths plus realized coordinates.

    ``cost`` counts the LP edge lengths (what the wires consume,
    serpentine detours included); ``drawn_wirelength`` counts only the
    point-to-point Manhattan distances (what a plot shows), which is
    always <= cost.
    """

    topology: Topology
    edge_lengths: np.ndarray
    placements: dict[int, Point]

    @property
    def cost(self) -> float:
        return float(self.edge_lengths[1:].sum())

    @property
    def drawn_wirelength(self) -> float:
        return sum(
            manhattan(self.placements[k], self.placements[self.topology.parent(k)])
            for k in range(1, self.topology.num_nodes)
        )

    def detours(self) -> np.ndarray:
        """Each edge's detour by node id (entry 0 is 0): its length minus
        its drawn span where that exceeds :data:`DETOUR_TOL`, else 0."""
        topo, pts = self.topology, self.placements
        out = np.zeros(topo.num_nodes)
        for k in range(1, topo.num_nodes):
            extra = float(self.edge_lengths[k]) - manhattan(
                pts[k], pts[topo.parent(k)]
            )
            if extra > DETOUR_TOL:
                out[k] = extra
        return out

    @property
    def elongation(self) -> float:
        """Total detour length, the sum of :meth:`detours`: exactly 0.0
        for a tree without detours."""
        return float(self.detours().sum())

    def sink_delays(self) -> np.ndarray:
        return sink_delays_linear(self.topology, self.edge_lengths)

    def root_location(self) -> Point:
        return self.placements[0]


def embed_tree(
    topo: Topology,
    edge_lengths,
    policy: str = "nearest",
    verify: bool = True,
) -> EmbeddedTree:
    """Realize ``edge_lengths`` as coordinates (Theorem 4.1 in code).

    Raises :class:`repro.embedding.EmbeddingError` when the lengths
    violate a Steiner constraint, and (with ``verify=True``) asserts the
    resulting placement is valid.
    """
    e = np.asarray(edge_lengths, dtype=float)
    xy = place_xy(topo, e, feasible_bounds(topo, e), policy=policy)
    if verify:
        verify_embedding(topo, e, xy, tol=1e-5)
    return EmbeddedTree(topo, e, points_by_node(xy))


def solve_and_embed(
    topo: Topology,
    bounds: DelayBounds,
    *,
    policy: str = "nearest",
    resilient: bool = False,
    on_infeasible: str = "raise",
    **solve_kwargs,
) -> tuple[LubtSolution, EmbeddedTree]:
    """One-call LUBT: LP solve then placement.

    Resilience knobs pass straight through to :func:`solve_lubt`:
    ``resilient=True`` runs every LP through the backend fallback chain
    on the caller's thread, and ``on_infeasible="relax"`` degrades
    gracefully — the returned solution carries ``sol.diagnosis`` and the
    tree is embedded under the minimally relaxed bounds, which stay
    embeddable because the elastic re-solve keeps the geometric
    ``path >= dist(source, sink)`` floor hard (see docs/ROBUSTNESS.md).
    """
    sol = solve_lubt(
        topo,
        bounds,
        resilient=resilient,
        on_infeasible=on_infeasible,
        **solve_kwargs,
    )
    t0 = time.perf_counter()
    tree = embed_tree(topo, sol.edge_lengths, policy=policy)
    embed_seconds = time.perf_counter() - t0
    sol = replace(sol, stats=replace(sol.stats, embed_seconds=embed_seconds))
    return sol, tree
