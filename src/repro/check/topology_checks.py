"""Topology-level checks (``TP0xx``).

Two entry points, because :class:`~repro.topology.Topology` refuses to
construct the worst breakages (cycles, orphans):

* :func:`check_parents` works on a *raw* parents array and finds the
  structural errors — cycles, orphan nodes, unreachable sinks,
  self-parents — before a ``Topology`` is ever built;
* :func:`check_topology` works on a constructed instance and finds the
  softer problems — dangling or pass-through Steiner points, duplicate
  or non-finite sink locations.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from repro.check.diagnostics import Diagnostic
from repro.topology.tree import Topology

#: Per-node reachability states for the raw-parents walk.
_UNKNOWN, _OK, _BAD = 0, 1, 2


def check_parents(
    parents: Sequence[int | None], num_sinks: int | None = None
) -> list[Diagnostic]:
    """Structural checks on a raw parents array (root is node 0)."""
    out: list[Diagnostic] = []
    n = len(parents)
    if n == 0:
        return [Diagnostic("TP002", "empty parents array", locus="node 0")]

    def kindof(i: int) -> str:
        if i == 0:
            return "root"
        if num_sinks is not None and i <= num_sinks:
            return "sink"
        return "node" if num_sinks is None else "steiner"

    if parents[0] is not None:
        out.append(
            Diagnostic(
                "TP001",
                f"root lists parent {parents[0]!r}; node 0 must be "
                "parentless",
                locus="node 0",
            )
        )

    state = [_UNKNOWN] * n
    state[0] = _OK
    for start in range(1, n):
        if state[start] != _UNKNOWN:
            continue
        path: list[int] = []
        on_path: set[int] = set()
        i = start
        verdict = _OK
        while True:
            if state[i] != _UNKNOWN:
                verdict = state[i]
                break
            if i in on_path:
                # Closed a cycle: report it once, through its smallest node.
                cycle = path[path.index(i):]
                out.append(
                    Diagnostic(
                        "TP001",
                        "parent chain cycles through nodes "
                        f"{sorted(cycle)}",
                        locus=f"node {min(cycle)}",
                    )
                )
                verdict = _BAD
                break
            path.append(i)
            on_path.add(i)
            p = parents[i]
            if p == i:
                out.append(
                    Diagnostic(
                        "TP004", "node is its own parent", locus=f"node {i}"
                    )
                )
                verdict = _BAD
                break
            if p is None or not (0 <= p < n):
                out.append(
                    Diagnostic(
                        "TP002",
                        f"node has invalid parent {p!r}",
                        locus=f"node {i}",
                    )
                )
                verdict = _BAD
                break
            i = p
        for j in path:
            state[j] = verdict

    for i in range(1, n):
        if state[i] == _BAD:
            k = kindof(i)
            if k == "sink":
                out.append(
                    Diagnostic(
                        "TP003",
                        "sink cannot reach the root",
                        locus=f"sink {i}",
                    )
                )
            else:
                out.append(
                    Diagnostic(
                        "TP002",
                        f"{k} cannot reach the root",
                        locus=f"node {i}",
                    )
                )
    return out


def check_topology(topo: Topology) -> list[Diagnostic]:
    """Run every ``TP0xx`` check a constructed topology can still fail."""
    out: list[Diagnostic] = []

    src = topo.source_location
    if src is not None and not (
        math.isfinite(src.x) and math.isfinite(src.y)
    ):
        out.append(
            Diagnostic(
                "TP008",
                f"source location ({src.x!r}, {src.y!r}) is not finite",
                locus="node 0",
            )
        )

    xy = topo.sink_xy()
    # Two screens on the sinks as complex numbers pass the common net,
    # every sink finite and at its own location: a finite sum (an
    # overflowing one only costs the per-row pass) and as many distinct
    # values as sinks (``-0.0 == 0.0``).
    z = xy.view(complex).ravel().tolist()
    if not (cmath.isfinite(sum(z)) and len(set(z)) == len(z)):
        out.extend(_sink_location_diagnostics(topo, xy))

    # Children per node (the root's entry counts itself: entry 0 of the
    # parent array is 0, and no Steiner point is read from it).
    kids = np.bincount(topo.parent_array(), minlength=topo.num_nodes)
    steiner = topo.num_sinks + 1
    for k in (kids[steiner:] < 2).nonzero()[0].tolist():
        k += steiner
        if not kids[k]:
            out.append(
                Diagnostic(
                    "TP005",
                    "Steiner point is a leaf (contributes nothing)",
                    locus=f"node {k}",
                )
            )
        else:
            out.append(
                Diagnostic(
                    "TP006",
                    "Steiner point has a single child (pass-through)",
                    locus=f"node {k}",
                )
            )
    return out


def _sink_location_diagnostics(
    topo: Topology, xy: np.ndarray
) -> list[Diagnostic]:
    """``TP008`` for each non-finite sink and ``TP007`` for each sink at
    the location of an earlier finite one, in sink order."""
    finite = np.isfinite(xy).all(axis=1)
    first = _first_at_same_location(xy, finite)
    out: list[Diagnostic] = []
    for idx in (~finite | (first != np.arange(len(xy)))).nonzero()[0].tolist():
        p = topo.sink_location(idx + 1)
        if not finite[idx]:
            out.append(
                Diagnostic(
                    "TP008",
                    f"sink location ({p.x!r}, {p.y!r}) is not finite",
                    locus=f"sink {idx + 1}",
                )
            )
        else:
            out.append(
                Diagnostic(
                    "TP007",
                    f"same location ({p.x:g}, {p.y:g}) as sink "
                    f"{first[idx] + 1}",
                    locus=f"sink {idx + 1}",
                )
            )
    return out


def _first_at_same_location(xy: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """For each sink row, the row of the first finite sink at the same
    location (itself when it is the first); ``-0.0`` and ``0.0`` are one
    location.  Non-finite rows map to themselves."""
    first = np.arange(len(xy))
    at = finite.nonzero()[0]
    # By x, then y (complex order); stable, so the rows at one location
    # stay in id order.
    key = np.empty(at.size, dtype=complex)
    key.real = xy[at, 0]
    key.imag = xy[at, 1]
    at = at[np.argsort(key, kind="stable")]
    new = np.ones(at.size, dtype=bool)
    new[1:] = np.any(xy[at[1:]] != xy[at[:-1]], axis=1)
    first[at] = at[new][np.cumsum(new) - 1]
    return first
