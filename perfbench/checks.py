"""Answer checks for the benchmark, independent of the solver's own.

Every op's answer is checked here with code that later solver changes do
not touch: sink delays are recomputed from the returned edge lengths and
must sit in their windows, the tree's edge sum must equal the reported
cost, the Steiner constraint of every sink pair must hold (an all-pairs
scan over a lowest-common-ancestor table, for nets up to a few hundred
sinks), and the canonical cost must match the reference recorded for the
seed by the inline serial path.  A failed check counts the op as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Mantissa bits kept by :func:`canonical_cost`; the same grid the
#: solver reports sweep costs on (~1e-10 relative).
CANONICAL_BITS = 33

#: Absolute slack on delays and Steiner rows, plus a relative share of
#: the net's coordinate scale for summation-order rounding.
ABS_TOL = 1e-5
REL_TOL = 1e-9


def canonical_cost(cost: float) -> float:
    """Round ``cost`` to :data:`CANONICAL_BITS` significant bits."""
    if not math.isfinite(cost) or not cost:
        return cost
    _, exp = math.frexp(cost)
    scaled = math.ldexp(cost, CANONICAL_BITS - exp)
    return math.ldexp(float(round(scaled)), exp - CANONICAL_BITS)


def costs_match(cost: float, reference: float) -> bool:
    """Canonical costs equal, or one canonical grid step apart (a raw
    cost sitting on a rounding boundary may fall either way)."""
    a = canonical_cost(float(cost))
    if a == reference:
        return True
    step = math.ldexp(1.0, 1 - CANONICAL_BITS) * max(abs(a), abs(reference))
    return abs(a - reference) <= step


class TreeView:
    """Parent array, sink coordinates and (optionally) the all-pairs LCA
    table of one topology, read once through its public accessors."""

    def __init__(self, topo, *, pairs: bool = True) -> None:
        n = topo.num_nodes
        m = topo.num_sinks
        self.m = m
        self.parent = np.array(
            [-1] + [topo.parent(i) for i in range(1, n)], dtype=np.int64
        )
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            children[self.parent[i]].append(i)
        order = [0]
        for k in order:
            order.extend(children[k])
        if len(order) != n:
            raise ValueError("topology is not a tree rooted at node 0")
        self.order = np.array(order[1:], dtype=np.int64)
        xy = np.array([(p.x, p.y) for p in topo.sink_locations], dtype=float)
        self.u = xy[:, 0] + xy[:, 1]
        self.v = xy[:, 0] - xy[:, 1]
        self.tol = ABS_TOL + REL_TOL * max(1.0, float(np.abs(xy).max()))
        self.lca = self._lca_table(children, order) if pairs else None

    def _lca_table(self, children, order) -> np.ndarray:
        m = self.m
        lca = np.zeros((m, m), dtype=np.int64)
        under: dict[int, np.ndarray] = {}
        for k in reversed(order):
            groups = [under.pop(c) for c in children[k]]
            groups = [g for g in groups if len(g)]
            if 1 <= k <= m:
                groups.append(np.array([k - 1], dtype=np.int64))
            for a in range(len(groups)):
                for b in range(a + 1, len(groups)):
                    ga, gb = groups[a], groups[b]
                    lca[np.ix_(ga, gb)] = k
                    lca[np.ix_(gb, ga)] = k
            under[k] = (
                np.concatenate(groups) if groups else np.zeros(0, np.int64)
            )
        return lca

    def node_delays(self, e: np.ndarray) -> np.ndarray:
        d = np.zeros(len(self.parent))
        parent = self.parent
        for k in self.order:
            d[k] = d[parent[k]] + e[k]
        return d

    def max_steiner_violation(self, d: np.ndarray) -> float:
        """Largest ``dist(s_i, s_j) - pathlength(s_i, s_j)`` over pairs."""
        if self.m < 2:
            return 0.0
        ds = d[1:self.m + 1]
        path = ds[:, None] + ds[None, :] - 2.0 * d[self.lca]
        dist = np.maximum(
            np.abs(self.u[:, None] - self.u[None, :]),
            np.abs(self.v[:, None] - self.v[None, :]),
        )
        iu = np.triu_indices(self.m, 1)
        return float((dist - path)[iu].max())


def check_solution(
    view: TreeView,
    edge_lengths,
    lower,
    upper,
    cost: float,
    reference: float | None,
) -> list[str]:
    """Failure messages for one answer (empty when it passes)."""
    e = np.asarray(edge_lengths, dtype=float)
    if e.shape != (len(view.parent),) or not np.all(np.isfinite(e)):
        return [f"edge vector malformed (shape {e.shape})"]
    out: list[str] = []
    tol = view.tol
    if e[1:].min(initial=0.0) < -tol:
        out.append(f"negative edge length {e[1:].min():g}")
    d = view.node_delays(e)
    sink_d = d[1:view.m + 1]
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    worst = max(float((lo - sink_d).max()), float((sink_d - hi).max()))
    if worst > tol:
        out.append(f"sink delay outside its window by {worst:g}")
    edge_sum = float(e[1:].sum())
    if abs(edge_sum - cost) > 1e-9 * max(1.0, abs(edge_sum)):
        out.append(f"reported cost {cost!r} != edge sum {edge_sum!r}")
    if view.lca is not None:
        v = view.max_steiner_violation(d)
        if v > tol:
            out.append(f"Steiner constraint violated by {v:g}")
    if reference is not None and not costs_match(cost, reference):
        out.append(
            f"canonical cost {canonical_cost(cost)!r} != reference "
            f"{reference!r}"
        )
    return out


class Tally:
    """Ops attempted and failed, and how many met a stored reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.skipped = 0
        self.examples: list[str] = []

    def record(self, failures: list[str], reference_checked: bool) -> None:
        self.attempted += 1
        if reference_checked:
            self.checked += 1
        else:
            self.skipped += 1
        if failures:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append("; ".join(failures))

    def fail(self, message: str) -> None:
        self.record([message], False)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int, sizes: dict) -> dict | None:
    """Stored canonical costs for ``(workload, seed)`` at these sizes."""
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc.get("sizes") != sizes:
        return None
    return doc["costs"]


def save_reference(workload: str, seed: int, sizes: dict, costs: dict) -> Path:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "source": "inline serial solve",
        "costs": {k: canonical_cost(v) for k, v in costs.items()},
    }
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return path
