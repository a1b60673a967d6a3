"""The rooted topology data structure (paper Section 2).

Node numbering follows the paper exactly:

* node ``0`` is the root/source ``s_0`` (its location may be ``None``),
* nodes ``1..m`` are sinks with given locations,
* nodes ``m+1..n`` are Steiner points whose locations are unknown.

Each non-root node ``i`` owns edge ``e_i`` connecting it to its parent, so an
edge-length assignment is simply a vector indexed by node id with entry 0
unused.  All traversals are iterative (topologies can be chains hundreds of
nodes deep).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.geometry import Point, points_xy


class NodeKind(Enum):
    ROOT = "root"
    SINK = "sink"
    STEINER = "steiner"


class Level(NamedTuple):
    """The nodes at one depth and their parents (``parents[t]`` is the
    parent of ``nodes[t]``)."""

    nodes: np.ndarray
    parents: np.ndarray


class Topology:
    """An immutable rooted tree over source, sinks and Steiner points.

    Parameters
    ----------
    parents:
        ``parents[i]`` is the parent node id of node ``i``; ``parents[0]``
        must be ``None``.  Length is ``n + 1`` (total node count).
    num_sinks:
        ``m``; nodes ``1..m`` are sinks, the rest Steiner points.
    sink_locations:
        The ``m`` given sink locations, ``sink_locations[i - 1]`` for sink
        ``i``.
    source_location:
        Location of ``s_0`` or ``None`` when the source may float (the
        paper's "source location is not given" case).
    """

    def __init__(
        self,
        parents: Sequence[int | None],
        num_sinks: int,
        sink_locations: Sequence[Point],
        source_location: Point | None = None,
    ) -> None:
        if not parents or parents[0] is not None:
            raise ValueError("parents[0] must be None (node 0 is the root)")
        if num_sinks < 1:
            raise ValueError("a topology needs at least one sink")
        if len(sink_locations) != num_sinks:
            raise ValueError(
                f"{num_sinks} sinks declared but {len(sink_locations)} locations given"
            )
        if len(parents) < num_sinks + 1:
            raise ValueError("parents array shorter than 1 + num_sinks")

        self._parents: tuple[int | None, ...] = tuple(parents)
        self._m = num_sinks
        self._sink_locations: tuple[Point, ...] = tuple(sink_locations)
        self._source_location = source_location

        n_nodes = len(parents)
        self._children: list[list[int]] = [[] for _ in range(n_nodes)]
        for i in range(1, n_nodes):
            p = parents[i]
            if p is None or not (0 <= p < n_nodes) or p == i:
                raise ValueError(f"node {i} has invalid parent {p!r}")
            self._children[p].append(i)

        self._depth, self._post = self._walk()
        # Lazily-built, memoized derived tables (the topology is
        # immutable, so they never invalidate): binary-lifting ancestors,
        # per-subtree sink lists, sink coordinates and their rotation,
        # the root-path edge-incidence matrix used by the vectorized
        # Steiner-row builder, and the parent array and depth levels
        # the array tree sweeps step by.
        self._lift: list[list[int]] | None = None
        self._sinks_under: list[list[int]] | None = None
        self._sink_xy: np.ndarray | None = None
        self._source_dist: np.ndarray | None = None
        self._sink_uv: tuple[np.ndarray, np.ndarray] | None = None
        self._incidence = None
        self._parent_array: np.ndarray | None = None
        self._levels: tuple[Level, ...] | None = None
        # The structural digest topology_hash stores; unlike the tables
        # above it is pickled, so a pool worker reads it instead of
        # re-hashing.
        self._digest: str | None = None

    #: The memoized tables above: cheap to rebuild, so pickles (worker
    #: task and result payloads) leave them out.
    _DERIVED = (
        "_lift", "_sinks_under", "_sink_xy", "_source_dist", "_sink_uv",
        "_incidence", "_parent_array", "_levels",
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in self._DERIVED:
            state[name] = None
        return state

    # ------------------------------------------------------------------
    # shape accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._parents)

    @property
    def num_sinks(self) -> int:
        return self._m

    @property
    def num_edges(self) -> int:
        """``n`` — one edge per non-root node."""
        return self.num_nodes - 1

    @property
    def num_steiner(self) -> int:
        return self.num_nodes - 1 - self._m

    @property
    def source_location(self) -> Point | None:
        return self._source_location

    @property
    def sink_locations(self) -> tuple[Point, ...]:
        return self._sink_locations

    def sink_ids(self) -> range:
        return range(1, self._m + 1)

    def steiner_ids(self) -> range:
        return range(self._m + 1, self.num_nodes)

    def kind(self, i: int) -> NodeKind:
        if i == 0:
            return NodeKind.ROOT
        if i <= self._m:
            return NodeKind.SINK
        return NodeKind.STEINER

    def is_sink(self, i: int) -> bool:
        return 1 <= i <= self._m

    def is_leaf(self, i: int) -> bool:
        return not self._children[i]

    def parent(self, i: int) -> int | None:
        return self._parents[i]

    def children(self, i: int) -> tuple[int, ...]:
        return tuple(self._children[i])

    def degree(self, i: int) -> int:
        """Tree degree (children + parent edge)."""
        return len(self._children[i]) + (0 if i == 0 else 1)

    def depth(self, i: int) -> int:
        return self._depth[i]

    def sink_location(self, i: int) -> Point:
        if not self.is_sink(i):
            raise ValueError(f"node {i} is not a sink")
        return self._sink_locations[i - 1]

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def postorder(self) -> tuple[int, ...]:
        """Children before parents; root last."""
        return self._post

    def preorder(self) -> Iterator[int]:
        """Parents before children; root first."""
        return reversed(self._post)

    def path_to_root(self, i: int) -> list[int]:
        """Edge ids (= node ids) on the path from node ``i`` up to the root.

        ``path_to_root(0)`` is empty; otherwise the list starts at ``i``.
        """
        out = []
        while i != 0:
            out.append(i)
            i = self._parents[i]  # type: ignore[assignment]
        return out

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor via binary lifting (O(log n) per query)."""
        if self._lift is None:
            self._build_lift()
        lift = self._lift
        assert lift is not None
        if self._depth[a] < self._depth[b]:
            a, b = b, a
        diff = self._depth[a] - self._depth[b]
        level = 0
        while diff:
            if diff & 1:
                a = lift[level][a]
            diff >>= 1
            level += 1
        if a == b:
            return a
        for level in range(len(lift) - 1, -1, -1):
            if lift[level][a] != lift[level][b]:
                a = lift[level][a]
                b = lift[level][b]
        return self._parents[a]  # type: ignore[return-value]

    def path_between(self, a: int, b: int) -> list[int]:
        """Edge ids on the tree path between nodes ``a`` and ``b``.

        This is the paper's ``path(s_a, s_b)``: both legs down from the LCA.
        """
        k = self.lca(a, b)
        out = []
        i = a
        while i != k:
            out.append(i)
            i = self._parents[i]  # type: ignore[assignment]
        i = b
        while i != k:
            out.append(i)
            i = self._parents[i]  # type: ignore[assignment]
        return out

    def subtree_nodes(self, k: int) -> list[int]:
        """All nodes of the subtree rooted at ``k`` (including ``k``)."""
        out = [k]
        stack = list(self._children[k])
        while stack:
            i = stack.pop()
            out.append(i)
            stack.extend(self._children[i])
        return out

    def subtree_sinks(self, k: int) -> list[int]:
        """Sink ids in the subtree rooted at ``k`` (the sinks of ``T_k``)."""
        return [i for i in self.subtree_nodes(k) if self.is_sink(i)]

    def sinks_under(self) -> list[list[int]]:
        """For every node, the sorted sinks of its subtree — O(n * m) total,
        computed in one postorder sweep.

        Memoized on the instance (repeated constraint/violation passes in
        the lazy solver call this every round): treat the returned lists
        as read-only.
        """
        if self._sinks_under is None:
            acc: list[list[int]] = [[] for _ in range(self.num_nodes)]
            for i in self._post:
                own = [i] if self.is_sink(i) else []
                merged = own
                for c in self._children[i]:
                    merged = merged + acc[c]
                acc[i] = merged
            self._sinks_under = acc
        return self._sinks_under

    def sink_xy(self) -> np.ndarray:
        """The sink locations as an ``(m, 2)`` float array of ``(x, y)``
        rows, row ``i - 1`` for sink ``i``; memoized, read-only."""
        if self._sink_xy is None:
            xy = points_xy(self._sink_locations)
            xy.flags.writeable = False
            self._sink_xy = xy
        return self._sink_xy

    def source_distances(self) -> np.ndarray:
        """Manhattan distance from the fixed source to each sink, entry
        ``i - 1`` for sink ``i`` (each equal to
        :func:`~repro.geometry.manhattan`'s); memoized, read-only.
        Raises ``ValueError`` when the source floats."""
        if self._source_location is None:
            raise ValueError("the source location is not given")
        if self._source_dist is None:
            src = self._source_location
            xy = self.sink_xy()
            d = np.abs(xy[:, 0] - src.x)
            d += np.abs(xy[:, 1] - src.y)
            d.flags.writeable = False
            self._source_dist = d
        return self._source_dist

    def sink_uv(self) -> tuple[np.ndarray, np.ndarray]:
        """Rotated (u, v) sink coordinates indexed by *node id*, with
        non-sink entries zeroed; memoized (read-only)."""
        if self._sink_uv is None:
            xy = self.sink_xy()
            su = np.zeros(self.num_nodes)
            sv = np.zeros(self.num_nodes)
            np.add(xy[:, 0], xy[:, 1], out=su[1 : self._m + 1])  # Point.u
            np.subtract(xy[:, 1], xy[:, 0], out=sv[1 : self._m + 1])  # Point.v
            self._sink_uv = (su, sv)
        return self._sink_uv

    def parent_array(self) -> np.ndarray:
        """Parent ids as an int64 array, entry 0 (the root) set to 0;
        memoized, read-only."""
        if self._parent_array is None:
            par = np.zeros(self.num_nodes, dtype=np.int64)
            par[1:] = self._parents[1:]
            par.flags.writeable = False
            self._parent_array = par
        return self._parent_array

    def levels(self) -> tuple[Level, ...]:
        """The non-root nodes by depth, shallowest first (entry 0 holds
        the root's children); memoized, read-only.

        Walking the tuple forwards visits every parent before its
        children (root-to-leaf sweeps), backwards every child before its
        parent (subtree sweeps): one NumPy step per depth instead of one
        Python step per node.  Within a level nodes are in id order.
        """
        if self._levels is None:
            depth = np.asarray(self._depth, dtype=np.int64)
            nodes = np.argsort(depth, kind="stable")
            nodes.flags.writeable = False
            parents = self.parent_array()[nodes]
            parents.flags.writeable = False
            ends = np.cumsum(np.bincount(depth)).tolist()
            self._levels = tuple(
                Level(nodes[a:b], parents[a:b])
                for a, b in zip(ends[:-1], ends[1:])
            )
        return self._levels

    def root_path_incidence(self):
        """CSR edge-incidence of every root path, memoized (read-only).

        Row ``v`` has a 1.0 in column ``e`` iff edge ``e`` (owned by node
        ``e``) lies on ``path(s_0, s_v)``; column 0 is always empty.  The
        Steiner row for a sink pair then falls out without walking any
        path:  ``row(i, j) = inc[i] + inc[j] - 2 * inc[lca(i, j)]`` (the
        shared root prefix cancels exactly).
        """
        if self._incidence is None:
            from scipy import sparse

            n = self.num_nodes
            depth = np.asarray(self._depth, dtype=np.int64)
            ptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(depth, out=ptr[1:])
            cols = np.empty(int(ptr[-1]), dtype=np.int32)
            for v in self.preorder():
                p = self._parents[v]
                if p is None:
                    continue
                a = ptr[v]
                cols[a : a + depth[p]] = cols[ptr[p] : ptr[p + 1]]
                cols[ptr[v + 1] - 1] = v
            self._incidence = sparse.csr_matrix(
                (np.ones(len(cols)), cols, ptr), shape=(n, n)
            )
        return self._incidence

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _walk(self) -> tuple[list[int], tuple[int, ...]]:
        """Node depths and the postorder, from one iterative depth-first
        walk from the root (chains of any depth work)."""
        children = self._children
        depth = [0] * len(children)
        order: list[int] = []
        stack: list[int] = [0]
        while stack:
            i = stack.pop()
            order.append(i)
            kids = children[i]
            if kids:
                d = depth[i] + 1
                for c in kids:
                    depth[c] = d
                stack.extend(kids)
        if len(order) != len(children):
            raise ValueError("parents array does not form a tree rooted at 0")
        order.reverse()  # reversed preorder with children pushed = postorder
        return depth, tuple(order)

    def _build_lift(self) -> None:
        n = self.num_nodes
        max_depth = max(self._depth)
        levels = max(1, max_depth.bit_length())
        lift = [[0] * n]
        for i in range(n):
            p = self._parents[i]
            lift[0][i] = p if p is not None else 0
        for lv in range(1, levels):
            prev = lift[lv - 1]
            lift.append([prev[prev[i]] for i in range(n)])
        self._lift = lift

    def __repr__(self) -> str:
        return (
            f"Topology(nodes={self.num_nodes}, sinks={self.num_sinks}, "
            f"steiner={self.num_steiner}, "
            f"source={'fixed' if self._source_location else 'free'})"
        )
