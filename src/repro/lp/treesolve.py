"""Tree-structured LUBT backend: node potentials + telescoped min-chains.

The EBF LP is generic-looking (delay range rows, C(m,2) Steiner rows) but
every row is a path sum over *one fixed topology*.  This backend exploits
that structure instead of pivoting a generic basis:

**Node potentials.**  Reparametrize from edge lengths ``e_v`` to node
delays ``d_v`` (``d_0 = 0``, ``e_v = d_v - d_parent(v)``).  Edge
non-negativity becomes one 2-nnz monotonicity row per edge; each sink's
delay *range row* becomes a plain variable bound ``lo_k <= d_k <= hi_k``
(rows disappear into the bound vector).

**Min-chain collapse.**  The Steiner family — for every sink pair
``(i, j)`` with LCA ``k``: ``(d_i - d_k) + (d_j - d_k) >= dist(i, j)``
where ``dist`` is the Chebyshev distance of the rotated coordinates
``(u, v) = (x + y, x - y)`` — collapses exactly to ``O(n)`` rows.  Per
sink-bearing node ``k`` introduce four auxiliary variables bounded above
by subtree minima,

    A_k <= min over sinks i under k of (d_i - su_i)
    B_k <= min (d_i + su_i),  C_k <= min (d_i - sv_i),  D_k <= min (d_i + sv_i)

expressed as telescoped 2-nnz chain rows (``A_k <= A_c`` per sink-bearing
child ``c``; ``A_k <= d_k - su_k`` when ``k`` itself is a sink), plus two
3-nnz geometry rows at every node that is the LCA of some pair:

    A_k + B_k >= 2 d_k        C_k + D_k >= 2 d_k

Both directions of the equivalence are exact: the maximal feasible value
of ``A_k`` *is* the subtree minimum, so the geometry rows hold iff every
pair under ``k`` satisfies its Steiner row (``max(|du|, |dv|)`` splits
into the two one-sided combinations); conversely pair rows at higher
ancestors are implied by monotonicity (``d_ancestor <= d_k``).  The
collapsed model has ``O(n)`` rows and ``O(n)`` nonzeros regardless of the
pair count, and one HiGHS solve on it replaces the whole lazy cutting
plane loop — at 1024 sinks that is ~28x faster than the generic path
(see docs/PERFORMANCE.md).

The backend consumes a :class:`~repro.lp.LinearProgram` like any other,
but needs the tree facts the flat rows no longer expose.
:func:`repro.ebf.build_ebf_lp` stamps them on the model as a
:class:`TreeLpMeta` (and :func:`repro.ebf.formulation.build_tree_lp`
builds the row-less stamped model ``solve_lubt``'s direct path solves);
any LP without the stamp — or with rows appended outside the tree-aware
builders (watermarked by ``covered_rows``) — is declined with
:class:`BackendCapabilityError`, which the resilient cascade and the
race path treat as a clean fall-through to a generic backend.  Elastic
infeasibility-diagnosis LPs carry no stamp, so infeasible instances
route through ``diagnose_infeasibility`` exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.lp.model import _RANGE_COLLAPSE_RTOL, LinearProgram
from repro.lp.result import BackendCapabilityError, LpResult, LpStatus

#: Mirror of ``add_delay_rows``: a sink window inverted by more than this
#: produces an infeasibility certificate (the generic builder emits a
#: ``delay{i}.impossible`` row; we return INFEASIBLE directly).
_IMPOSSIBLE_TOL = 1e-12

_STATUS_MAP = {
    0: LpStatus.OPTIMAL,
    1: LpStatus.ERROR,  # iteration limit
    2: LpStatus.INFEASIBLE,
    3: LpStatus.UNBOUNDED,
    4: LpStatus.ERROR,
}


@dataclass
class TreeLpMeta:
    """Tree facts of an EBF model, stamped by ``build_ebf_lp`` and
    ``build_tree_lp``.

    All fields are plain arrays indexed by node id (entry 0 is the root;
    sinks are ids ``1..num_sinks``), so the solver needs no topology
    object.  ``covered_rows`` is a watermark: the number of LP rows
    produced by the tree-aware builders (``add_delay_rows`` /
    ``add_steiner_rows`` keep it current).  If the model has grown past
    the watermark, someone appended rows the tree formulation does not
    imply, and :func:`solve_tree` declines the model.
    """

    #: ``parents[v]`` is the parent node id of ``v``; ``parents[0] == 0``.
    parents: np.ndarray
    num_sinks: int
    #: Rotated sink coordinates ``u = x + y``, ``v = x - y`` by node id.
    su: np.ndarray
    sv: np.ndarray
    #: Effective delay window per node id (meaningful at sink ids), after
    #: the fixed-source ``max(lo, manhattan)`` strengthening.
    lower: np.ndarray
    upper: np.ndarray
    zero_edges: tuple[int, ...] = ()
    #: Per-edge objective weights by node id (entry 0 ignored), or None.
    weights: np.ndarray | None = None
    covered_rows: int = 0


def _infeasible(message: str) -> LpResult:
    return LpResult(LpStatus.INFEASIBLE, None, None, 0, "tree", message=message)


def _bfs_order(parents: np.ndarray) -> np.ndarray:
    """Root-first traversal order from a parents array (children of a
    node appear in increasing id order)."""
    n = parents.shape[0]
    counts = np.bincount(parents[1:], minlength=n)
    cptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=cptr[1:])
    kids = np.argsort(parents[1:], kind="stable").astype(np.int64) + 1
    order = np.empty(n, dtype=np.int64)
    order[0] = 0
    head, tail = 0, 1
    while head < tail:
        v = int(order[head])
        head += 1
        a, b = int(cptr[v]), int(cptr[v + 1])
        if b > a:
            order[tail : tail + b - a] = kids[a:b]
            tail += b - a
    if tail != n:
        raise BackendCapabilityError(
            "tree metadata parents array is not a rooted tree"
        )
    return order


def solve_tree(lp: LinearProgram) -> LpResult:
    """Solve a tree-stamped EBF model via the collapsed node-potential LP.

    Raises :class:`BackendCapabilityError` for models without (current)
    tree metadata; returns an :class:`LpResult` in the *original* edge
    variable space, with the HiGHS iteration count of the collapsed LP.
    Only the stamp and the variable box are read, so a row-less
    :func:`repro.ebf.formulation.build_tree_lp` model gives the same
    answer as a full one.  Row duals are not produced (the collapsed
    model's rows do not map 1:1 onto the flat model's).
    """
    meta = lp.tree_meta
    if meta is None:
        raise BackendCapabilityError(
            "tree backend needs tree metadata (models built by "
            "repro.ebf.build_ebf_lp); this model carries none"
        )
    if meta.covered_rows != lp.num_constraints:
        raise BackendCapabilityError(
            f"{lp.num_constraints - meta.covered_rows} row(s) appended "
            "outside the tree-aware builders; the tree backend cannot "
            "prove they are implied — use a generic backend"
        )
    parents = np.asarray(meta.parents, dtype=np.int64)
    n = int(parents.shape[0])
    m = int(meta.num_sinks)
    if n < 2 or lp.num_variables != n - 1:
        raise BackendCapabilityError(
            "model variable count does not match the tree's edge count"
        )

    # ---- effective sink delay windows (mirror of add_delay_rows) ------
    lo = np.asarray(meta.lower, dtype=np.float64)[1 : m + 1].copy()
    hi = np.asarray(meta.upper, dtype=np.float64)[1 : m + 1].copy()
    impossible = lo > hi + _IMPOSSIBLE_TOL
    if bool(np.any(impossible)):
        k = int(np.argmax(impossible)) + 1
        return _infeasible(
            f"delay window for sink {k} is empty "
            f"([{lo[k - 1]:g}, {hi[k - 1]:g}])"
        )
    noisy = lo > hi
    if bool(np.any(noisy)):
        # Same float-noise collapse add_range_constraint applies (BD006).
        mag = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        mid = 0.5 * (lo + hi)
        collapse = noisy & (lo - hi <= _RANGE_COLLAPSE_RTOL * mag)
        lo = np.where(collapse, mid, lo)
        hi = np.where(collapse, mid, hi)

    # ---- d-space variable bounds --------------------------------------
    # Sinks are node ids 1..m, i.e. the first m columns of d.  Path sums
    # of non-negative edges are non-negative, so lo floors at 0 exactly
    # as the flat model implies.
    lb = np.zeros(n - 1)
    ub = np.full(n - 1, np.inf)
    lb[:m] = np.maximum(lo, 0.0)
    ub[:m] = hi

    zero_edges = tuple(int(v) for v in meta.zero_edges)
    for v in zero_edges:
        if int(parents[v]) == 0:
            # e_v pinned to zero on a root edge: d_v = d_0 = 0.
            ub[v - 1] = min(ub[v - 1], 0.0)
    if bool(np.any(lb > ub)):
        j = int(np.argmax(lb > ub)) + 1
        return _infeasible(
            f"node {j}: pinned/strengthened bounds force an empty delay "
            f"window [{lb[j - 1]:g}, {ub[j - 1]:g}]"
        )

    # ---- tree walks: order, sink accounting ---------------------------
    order = _bfs_order(parents)
    nsink = np.zeros(n, dtype=np.int64)
    nsink[1 : m + 1] = 1
    for idx in range(n - 1, 0, -1):
        v = int(order[idx])
        nsink[parents[v]] += nsink[v]
    has = nsink > 0

    # ---- auxiliary min-chain variables --------------------------------
    auxpos = np.full(n, -1, dtype=np.int64)
    num_aux = 0
    if m >= 2:
        bearing = np.flatnonzero(has)
        auxpos[bearing] = (n - 1) + 4 * np.arange(bearing.size, dtype=np.int64)
        num_aux = 4 * int(bearing.size)
    nvar = n - 1 + num_aux

    # ---- objective: c[d_v] = w_v - sum of children weights ------------
    if meta.weights is None:
        w_edge = np.ones(n)
    else:
        w_edge = np.asarray(meta.weights, dtype=np.float64)
    child_wsum = np.zeros(n)
    np.add.at(child_wsum, parents[1:], w_edge[1:])
    c = np.zeros(nvar)
    c[: n - 1] = w_edge[1:] - child_wsum[1:]

    # ---- rows (all <=), assembled as one COO batch --------------------
    blk_i: list[np.ndarray] = []
    blk_j: list[np.ndarray] = []
    blk_v: list[np.ndarray] = []
    blk_b: list[np.ndarray] = []
    nrows = 0

    def _pairs_block(
        left: np.ndarray, right: np.ndarray, rhs: np.ndarray
    ) -> None:
        """Rows ``x[left] - x[right] <= rhs``, one per entry."""
        nonlocal nrows
        k = int(rhs.size)
        if k == 0:
            return
        cols = np.empty(2 * k, dtype=np.int64)
        cols[0::2] = left
        cols[1::2] = right
        blk_i.append(np.repeat(np.arange(nrows, nrows + k, dtype=np.int64), 2))
        blk_j.append(cols)
        blk_v.append(np.tile(np.array([1.0, -1.0]), k))
        blk_b.append(rhs)
        nrows += k

    # Monotonicity d_parent <= d_v (root-adjacent edges are covered by
    # the lb >= 0 variable bounds).
    mono = np.flatnonzero(parents[1:] != 0).astype(np.int64) + 1
    _pairs_block(parents[mono] - 1, mono - 1, np.zeros(mono.size))

    # Pinned tie edges: d_v == d_parent (the reverse inequality).
    zero_interior = np.array(
        [v for v in zero_edges if int(parents[v]) != 0], dtype=np.int64
    )
    _pairs_block(
        zero_interior - 1,
        parents[zero_interior] - 1,
        np.zeros(zero_interior.size),
    )

    if m >= 2:
        # Chain rows: aux[k] <= aux[c] for every sink-bearing child c
        # (a bearing node's parent is bearing by construction), 4 copies.
        bc = np.flatnonzero(has)
        bc = bc[bc != 0]
        ap4 = (auxpos[parents[bc]][:, None] + np.arange(4)).ravel()
        av4 = (auxpos[bc][:, None] + np.arange(4)).ravel()
        _pairs_block(ap4, av4, np.zeros(4 * bc.size))

        # Self rows at sinks: A_k <= d_k - su_k, B_k <= d_k + su_k,
        # C_k <= d_k - sv_k, D_k <= d_k + sv_k.
        s = np.arange(1, m + 1, dtype=np.int64)
        su = np.asarray(meta.su, dtype=np.float64)[1 : m + 1]
        sv = np.asarray(meta.sv, dtype=np.float64)[1 : m + 1]
        a4 = (auxpos[s][:, None] + np.arange(4)).ravel()
        d4 = np.repeat(s - 1, 4)
        rhs4 = np.stack([-su, su, -sv, sv], axis=1).ravel()
        _pairs_block(a4, d4, rhs4)

        # Geometry rows at every LCA node: 2 d_k - A_k - B_k <= 0 and
        # 2 d_k - C_k - D_k <= 0 (the d term vanishes at the root).
        is_sink = np.zeros(n, dtype=bool)
        is_sink[1 : m + 1] = True
        cnt = np.bincount(parents[bc], minlength=n)
        geo = (cnt >= 2) | (is_sink & (cnt >= 1))
        g = np.flatnonzero(geo & (np.arange(n) != 0)).astype(np.int64)
        if g.size:
            k = int(g.size)
            rows = np.repeat(np.arange(nrows, nrows + 2 * k, dtype=np.int64), 3)
            cols = np.empty(6 * k, dtype=np.int64)
            vals = np.tile(np.array([2.0, -1.0, -1.0]), 2 * k)
            cols[0::6] = g - 1
            cols[1::6] = auxpos[g]
            cols[2::6] = auxpos[g] + 1
            cols[3::6] = g - 1
            cols[4::6] = auxpos[g] + 2
            cols[5::6] = auxpos[g] + 3
            blk_i.append(rows)
            blk_j.append(cols)
            blk_v.append(vals)
            blk_b.append(np.zeros(2 * k))
            nrows += 2 * k
        if bool(geo[0]):
            a0 = int(auxpos[0])
            blk_i.append(
                np.repeat(np.arange(nrows, nrows + 2, dtype=np.int64), 2)
            )
            blk_j.append(np.array([a0, a0 + 1, a0 + 2, a0 + 3], dtype=np.int64))
            blk_v.append(np.full(4, -1.0))
            blk_b.append(np.zeros(2))
            nrows += 2

    a_ub = None
    b_ub = None
    if nrows:
        a_ub = sparse.csr_matrix(
            (
                np.concatenate(blk_v),
                (np.concatenate(blk_i), np.concatenate(blk_j)),
            ),
            shape=(nrows, nvar),
        )
        b_ub = np.concatenate(blk_b)

    var_bounds = np.column_stack(
        [
            np.concatenate([lb, np.full(num_aux, -np.inf)]),
            np.concatenate([ub, np.full(num_aux, np.inf)]),
        ]
    )
    sign = 1.0 if lp.minimize else -1.0
    res = linprog(
        sign * c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=var_bounds,
        method="highs",
    )
    iterations = int(getattr(res, "nit", 0) or 0)
    message = str(getattr(res, "message", "") or "").strip() or None
    status = _STATUS_MAP.get(int(res.status), LpStatus.ERROR)
    if status is not LpStatus.OPTIMAL or res.x is None:
        return LpResult(
            status, None, None, iterations, "tree", message=message
        )

    # ---- recover edge lengths in the flat model's variable space ------
    d = np.concatenate([[0.0], np.asarray(res.x, dtype=np.float64)[: n - 1]])
    e = d - d[parents]
    e[0] = 0.0
    np.maximum(e, 0.0, out=e)
    x = np.minimum(np.maximum(e[1:], lp.lower_bounds), lp.upper_bounds)
    return LpResult(
        LpStatus.OPTIMAL,
        x,
        lp.objective_value(x),
        iterations,
        "tree",
        duals=None,
        message=message,
    )
