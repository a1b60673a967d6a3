"""Embedding verification.

A valid embedding must satisfy, for every non-root node ``k`` with parent
``p`` (Section 2):

    e_k >= dist(location(k), location(p))

with equality for *tight* edges and strict inequality for *elongated*
ones.  Sinks must sit at their given coordinates and a fixed source at its
given location.  The verifier reports every violation rather than stopping
at the first, which makes property-test failures diagnosable.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.geometry import Point, manhattan
from repro.topology import Topology


def embedding_violations(
    topo: Topology,
    edge_lengths,
    placements: Mapping[int, Point],
    tol: float = 1e-6,
) -> list[str]:
    """All violations of embedding validity, as human-readable strings."""
    n = topo.num_nodes
    xy = np.zeros((n, 2))
    placed = np.zeros(n, dtype=bool)
    for k in range(n):
        p = placements.get(k)
        if p is not None:
            xy[k] = p.x, p.y
            placed[k] = True
    return placement_violations(topo, edge_lengths, xy, placed, tol)


def placement_violations(
    topo: Topology,
    edge_lengths,
    xy: np.ndarray,
    placed: np.ndarray | None = None,
    tol: float = 1e-6,
) -> list[str]:
    """:func:`embedding_violations` on an ``(n, 2)`` array of node
    ``(x, y)`` rows, as the embedding kernel returns them; ``placed``
    masks the nodes that have a location (default: all).  Distances take
    the float operations of :func:`~repro.geometry.manhattan`, and the
    messages come in the same order: sinks, the source, then edges by
    node id."""
    e = np.asarray(edge_lengths, dtype=float)
    n, m = topo.num_nodes, topo.num_sinks
    if placed is None:
        placed = np.ones(n, dtype=bool)

    def at(k: int) -> Point:
        return Point(float(xy[k, 0]), float(xy[k, 1]))

    problems: list[str] = []
    sinks = slice(1, m + 1)
    off = _manhattan_rows(topo.sink_xy(), xy[sinks])
    for i in (np.flatnonzero(~placed[sinks] | (off > tol)) + 1).tolist():
        if not placed[i]:
            problems.append(f"sink {i} not placed")
        else:
            problems.append(
                f"sink {i} placed at {at(i)}, expected {topo.sink_location(i)}"
            )

    src = topo.source_location
    if src is not None and (
        not placed[0] or manhattan(src, at(0)) > tol
    ):
        problems.append(
            f"source placed at {at(0) if placed[0] else None}, expected {src}"
        )

    par = topo.parent_array()[1:]
    ends = placed[1:] & placed[par]
    d = _manhattan_rows(xy[1:], xy[par])
    short = ends & (d > e[1:] + tol)
    for k in (np.flatnonzero(~ends | short) + 1).tolist():
        if not ends[k - 1]:
            problems.append(f"edge e_{k}: endpoint missing")
        else:
            problems.append(
                f"edge e_{k} = {e[k]:g} shorter than embedded distance "
                f"{d[k - 1]:g}"
            )
    return problems


def _manhattan_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`~repro.geometry.manhattan` between matching ``(x, y)`` rows
    of ``a`` and ``b``."""
    return np.abs(a[:, 0] - b[:, 0]) + np.abs(a[:, 1] - b[:, 1])


def verify_embedding(
    topo: Topology,
    edge_lengths,
    placements: Mapping[int, Point] | np.ndarray,
    tol: float = 1e-6,
) -> None:
    """Raise ``AssertionError`` listing all problems, if any.
    ``placements`` is a node id -> :class:`Point` map or the embedding
    kernel's ``(n, 2)`` array."""
    if isinstance(placements, np.ndarray):
        problems = placement_violations(topo, edge_lengths, placements, tol=tol)
    else:
        problems = embedding_violations(topo, edge_lengths, placements, tol)
    if problems:
        raise AssertionError(
            "invalid embedding:\n  " + "\n  ".join(problems)
        )


def tight_edges(
    topo: Topology,
    edge_lengths,
    placements: dict[int, Point],
    tol: float = 1e-6,
) -> tuple[list[int], list[int], list[int]]:
    """Classify edges as (tight, elongated, degenerate) — Section 2 terms."""
    e = np.asarray(edge_lengths, dtype=float)
    tight: list[int] = []
    elongated: list[int] = []
    degenerate: list[int] = []
    for k in range(1, topo.num_nodes):
        d = manhattan(placements[k], placements[topo.parent(k)])
        if e[k] <= tol:
            degenerate.append(k)
        elif abs(e[k] - d) <= tol:
            tight.append(k)
        else:
            elongated.append(k)
    return tight, elongated, degenerate
