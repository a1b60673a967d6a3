"""Topology and routed-tree (de)serialization.

Plain-JSON format so solved trees can be stored next to a design, diffed,
and reloaded without this library.  Schema::

    {
      "format": "lubt-tree-v1",
      "num_sinks": 3,
      "parents": [null, 4, 4, 0, 0],
      "sinks": [[x, y], ...],
      "source": [x, y] | null,
      "edge_lengths": [...],        # optional
      "placements": [[x, y], ...]   # optional, index = node id
    }
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.geometry import Point
from repro.topology.tree import Topology

FORMAT = "lubt-tree-v1"

def topology_hash(topo: Topology) -> str:
    """Structural SHA-256 of a topology (hex digest).

    Two topologies hash equally iff their serialized ``lubt-tree-v1``
    documents (parents, sink/source coordinates, sink count) are
    identical — i.e. they are the *same instance* for solving purposes,
    regardless of which Python objects hold them.  This is the canonical
    key for cross-request caches and :class:`repro.ebf.WarmStart` reuse.

    Topologies are immutable, so the digest is stored on the instance:
    hashing on every solve of a sweep costs one attribute read after the
    first, the digest lives and dies with its topology, and it rides the
    topology's pickle, so a pool worker never re-hashes what its parent
    already hashed.
    """
    digest = topo._digest
    if digest is None:
        blob = json.dumps(
            topology_to_dict(topo), sort_keys=True, separators=(",", ":")
        )
        digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        topo._digest = digest
    return digest


def topology_to_dict(
    topo: Topology,
    edge_lengths: np.ndarray | None = None,
    placements: dict[int, Point] | None = None,
) -> dict[str, Any]:
    """Serialize a topology (optionally with lengths and placements)."""
    out: dict[str, Any] = {
        "format": FORMAT,
        "num_sinks": topo.num_sinks,
        "parents": [topo.parent(i) for i in range(topo.num_nodes)],
        "sinks": [[p.x, p.y] for p in topo.sink_locations],
        "source": (
            [topo.source_location.x, topo.source_location.y]
            if topo.source_location is not None
            else None
        ),
    }
    if edge_lengths is not None:
        e = np.asarray(edge_lengths, dtype=float)
        if e.shape != (topo.num_nodes,):
            raise ValueError("edge_lengths shape mismatch")
        out["edge_lengths"] = e.tolist()
    if placements is not None:
        out["placements"] = [
            [placements[i].x, placements[i].y] for i in range(topo.num_nodes)
        ]
    return out


def topology_from_dict(
    data: dict[str, Any],
) -> tuple[Topology, np.ndarray | None, dict[int, Point] | None]:
    """Inverse of :func:`topology_to_dict`.

    Returns ``(topology, edge_lengths | None, placements | None)``.
    """
    if data.get("format") != FORMAT:
        raise ValueError(f"not a {FORMAT} document")
    sinks = [Point(float(x), float(y)) for x, y in data["sinks"]]
    src = data.get("source")
    source = Point(float(src[0]), float(src[1])) if src is not None else None
    topo = Topology(data["parents"], int(data["num_sinks"]), sinks, source)

    e = None
    if "edge_lengths" in data:
        e = np.asarray(data["edge_lengths"], dtype=float)
        if e.shape != (topo.num_nodes,):
            raise ValueError("edge_lengths shape mismatch")
    placements = None
    if "placements" in data:
        raw = data["placements"]
        if len(raw) != topo.num_nodes:
            raise ValueError("placements length mismatch")
        placements = {
            i: Point(float(x), float(y)) for i, (x, y) in enumerate(raw)
        }
    return topo, e, placements


def save_tree(
    path: str | Path,
    topo: Topology,
    edge_lengths: np.ndarray | None = None,
    placements: dict[int, Point] | None = None,
) -> None:
    """Write a topology/tree JSON file."""
    doc = topology_to_dict(topo, edge_lengths, placements)
    Path(path).write_text(json.dumps(doc, indent=1))


def load_tree(
    path: str | Path,
) -> tuple[Topology, np.ndarray | None, dict[int, Point] | None]:
    """Read a topology/tree JSON file."""
    return topology_from_dict(json.loads(Path(path).read_text()))
