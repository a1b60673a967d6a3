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
``(u, v) = (x + y, y - x)`` — collapses exactly to ``O(n)`` rows.  Per
sink-bearing node ``k`` introduce four auxiliary variables bounded above
by subtree minima,

    A_k <= min over sinks i under k of (d_i - su_i)
    B_k <= min (d_i + su_i),  C_k <= min (d_i - sv_i),  D_k <= min (d_i + sv_i)

expressed as telescoped 2-nnz chain rows (``A_k <= A_c`` per sink-bearing
child ``c``; ``A_k <= d_k - su_k`` when ``k`` itself is a sink, and
``A_k <= d_c - su_c`` in place of a leaf sink child's own chain), plus
two 3-nnz geometry rows at every node that is the LCA of some pair:

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

**Start bases.**  The delay windows are column bounds of the collapsed
model and nothing else depends on them, so an optimal basis of one
window stays dual feasible for every other window on the same topology:
dual simplex restarts from it in a handful of pivots.  A solve without
such a basis starts cold from one of two dual feasible bases read off
the tree, so dual simplex skips its phase 1.  From
:data:`TOUR_MIN_SINKS` sinks up it takes the *tour start*
(:func:`tour_basis`): a basis placed at the tree's optimum under ``[0,
inf)`` windows, the minimum rectilinear Steiner tree of the topology,
from which a windowed solve takes about 1/9 of the crash's pivots at
2048 sinks.  Below that size, and where the tour start does not apply,
it takes the *crash basis* (:func:`crash_basis`), which starts where
the binding geometry rows place the Steiner points, in at most about a
fifth of the pivots of HiGHS's own start.  Models whose sink windows
are all single points keep HiGHS's start and its presolve.
The model goes to HiGHS through its own model and basis interface (the
binding scipy ships as ``scipy.optimize._highspy``, with the options
``linprog(method="highs-ds")`` passes).  A carried basis rides in on
:attr:`TreeLpMeta.basis` and wins over both cold starts; HiGHS refuses a
start whose statuses do not count one basic entry per row, and the solve
then takes the next one.  The final basis comes back on
:attr:`LpResult.basis` when :attr:`TreeLpMeta.return_basis` asks for it,
and each solve builds and drops its own HiGHS object.

The backend consumes a :class:`~repro.lp.LinearProgram` like any other,
but needs the tree facts the flat rows no longer expose.
:func:`repro.ebf.build_ebf_lp` stamps them on the model as a
:class:`TreeLpMeta` (and :func:`repro.ebf.formulation.build_tree_lp`
builds the row-less stamped model ``solve_lubt``'s direct path solves);
any LP without the stamp — or with rows appended outside the tree-aware
builders (watermarked by ``covered_rows``) — is declined with
:class:`BackendCapabilityError`, which the resilient cascade treats as
a clean fall-through to a generic backend.  A rescaled copy
(:func:`repro.resilience.rescale_lp`) carries a scaled stamp, so the
cascade's rescaled tree retry solves it.  The elastic LP of
``diagnose_infeasibility`` is :func:`collapsed_tree_lp` under ``[0,
inf)`` windows plus slack columns and rows: an ordinary, unstamped
model that one HiGHS solve answers.
"""

from __future__ import annotations

import collections
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.optimize._highspy._core as _highs
from scipy import sparse

from repro.lp.model import _RANGE_COLLAPSE_RTOL, LinearProgram
from repro.lp.result import (
    BackendCapabilityError,
    InfeasibleError,
    LpResult,
    LpStatus,
)

#: Mirror of ``add_delay_rows``: a sink window inverted by more than this
#: produces an infeasibility certificate (the generic builder emits a
#: ``delay{i}.impossible`` row; we return INFEASIBLE directly).
_IMPOSSIBLE_TOL = 1e-12

#: HiGHS model status -> ours, as ``linprog`` maps them; anything else
#: (limits, ``kUnboundedOrInfeasible``, solver errors) is an ERROR.
_STATUS_MAP = {
    _highs.HighsModelStatus.kOptimal: LpStatus.OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: LpStatus.INFEASIBLE,
    _highs.HighsModelStatus.kModelError: LpStatus.INFEASIBLE,
    _highs.HighsModelStatus.kUnbounded: LpStatus.UNBOUNDED,
}

#: The options ``linprog(method="highs-ds", options={
#: "simplex_dual_edge_weight_strategy": "dantzig"})`` sets.  Dual simplex
#: with Dantzig pricing is a fixed measured choice for every start but
#: the tour start: from the crash basis it ties Devex to within noise at
#: 32-128 sinks (0.88-1.10x over two runs) and beats steepest edge
#: (HiGHS's default), and a carried basis takes a handful of pivots
#: under any pricing (docs/PERFORMANCE.md, "Pricing").
_OPTIONS = (
    ("presolve", "on"),
    ("solver", "simplex"),
    ("simplex_strategy", 1),  # dual
    ("simplex_dual_edge_weight_strategy", 0),  # Dantzig
    ("output_flag", False),
)

#: The pricing a solve from the tour start takes instead: Devex, at
#: 0.73-0.99x of Dantzig's time on the H-tree nets ``build_net_topology``
#: builds beyond 256 sinks (0.80-0.86x at 2048, ``large-net``'s size).
_TOUR_OPTIONS = (("simplex_dual_edge_weight_strategy", 1),)  # Devex

#: ``HighsBasisStatus`` codes, as the int8 entries of a basis.
_LOWER, _BASIC, _UPPER, _ZERO = (
    int(_highs.HighsBasisStatus.kLower),
    int(_highs.HighsBasisStatus.kBasic),
    int(_highs.HighsBasisStatus.kUpper),
    int(_highs.HighsBasisStatus.kZero),
)
#: ``HighsBasisStatus`` members indexed by code, as an object array: a
#: basis's statuses map to HiGHS's objects in one gather.
_STATUS_CODES = np.array(
    sorted(_highs.HighsBasisStatus.__members__.values(), key=int),
    dtype=object,
)

#: An LP basis: ``(col_status, row_status)`` int8 arrays of
#: ``HighsBasisStatus`` codes.
Basis = tuple[np.ndarray, np.ndarray]


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
    #: The non-root node ids by depth, shallowest first
    #: (:meth:`repro.topology.Topology.levels`).
    levels: tuple[np.ndarray, ...]
    num_sinks: int
    #: Rotated sink coordinates ``u = x + y``, ``v = y - x`` by node id
    #: (:attr:`repro.geometry.Point.u` and ``.v``).
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
    #: Rotated ``(u, v)`` of a fixed source, or None when it is free.
    source_uv: np.ndarray | None = None
    #: Start basis of the collapsed model (e.g. the last optimal one on
    #: this topology), or None.  One whose shape does not fit is ignored.
    basis: Basis | None = field(default=None, repr=False, compare=False)
    #: Put the final basis on ``LpResult.basis`` (only warm-store solves
    #: pay for its export).
    return_basis: bool = False


@dataclass(frozen=True)
class TreeLayout:
    """Where a collapsed model keeps each node's columns and rows, as
    :func:`crash_basis` and :func:`tour_basis` read them, and the tree
    facts only the tour start needs.  Arrays are indexed by node id,
    with ``-1`` for "none"."""

    parents: np.ndarray
    num_sinks: int
    #: The non-root nodes by depth, shallowest first (entry 0 holds the
    #: root's children).
    levels: tuple[np.ndarray, ...]
    #: Row of ``d_parent - d_v <= 0`` (none at the root's children).
    mono_row: np.ndarray
    #: First of the 4 rows that bound the parent's auxiliaries by the
    #: node's subtree: its chain rows, or its self rows at a leaf sink.
    tie_row: np.ndarray
    #: First of a sink's 4 self rows.
    self_row: np.ndarray
    #: First of a node's 2 geometry rows (``A + B``, then ``C + D``).
    geo_row: np.ndarray
    #: First of a node's 4 auxiliary columns.
    auxpos: np.ndarray
    #: Rotated ``(u, v)`` of a fixed source, or None when it is free.
    source_uv: np.ndarray | None
    #: Edges pinned to zero length (:attr:`TreeLpMeta.zero_edges`).
    zero_edges: tuple[int, ...]


@dataclass(frozen=True)
class CollapsedLp:
    """The collapsed model ``min c @ x`` s.t. ``a_ub @ x <= b_ub``,
    ``lb <= x <= ub``.  Its first ``n - 1`` columns are the node delays
    ``d_1 .. d_{n-1}``; the rest are the min-chain auxiliaries."""

    c: np.ndarray
    a_ub: sparse.csc_array
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    layout: TreeLayout = field(repr=False, compare=False)


def _infeasible(message: str) -> LpResult:
    return LpResult(LpStatus.INFEASIBLE, None, None, 0, "tree", message=message)


def collapsed_tree_lp(lp: LinearProgram) -> CollapsedLp:
    """Assemble the collapsed node-potential LP of a tree-stamped model.

    A leaf sink keeps no auxiliaries of its own: its self rows bound its
    parent's directly.  HiGHS presolve makes that reduction itself, but
    a start basis makes HiGHS skip presolve.

    Raises :class:`BackendCapabilityError` for models without (current)
    tree metadata and :class:`InfeasibleError` when a delay window or a
    pinned edge leaves some node an empty range.  Only the stamp and the
    variable box are read, so a row-less
    :func:`repro.ebf.formulation.build_tree_lp` model gives the same
    model as a full one.
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
        raise InfeasibleError(
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
        raise InfeasibleError(
            f"node {j}: pinned/strengthened bounds force an empty delay "
            f"window [{lb[j - 1]:g}, {ub[j - 1]:g}]"
        )

    # ---- tree walks: sink accounting ----------------------------------
    levels = meta.levels
    nsink = np.zeros(n, dtype=np.int64)
    nsink[1 : m + 1] = 1
    for level in reversed(levels):
        np.add.at(nsink, parents[level], nsink[level])
    has = nsink > 0
    is_sink = np.zeros(n, dtype=bool)
    is_sink[1 : m + 1] = True
    leaf_sink = is_sink & (np.bincount(parents[1:], minlength=n) == 0)

    # ---- auxiliary min-chain variables --------------------------------
    auxpos = np.full(n, -1, dtype=np.int64)
    num_aux = 0
    if m >= 2:
        keep = np.flatnonzero(has & ~leaf_sink)
        auxpos[keep] = (n - 1) + 4 * np.arange(keep.size, dtype=np.int64)
        num_aux = 4 * int(keep.size)
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
    ) -> np.ndarray:
        """Rows ``x[left] - x[right] <= rhs``, one per entry; returns
        their indices."""
        nonlocal nrows
        k = int(rhs.size)
        index = np.arange(nrows, nrows + k, dtype=np.int64)
        if k == 0:
            return index
        cols = np.empty(2 * k, dtype=np.int64)
        cols[0::2] = left
        cols[1::2] = right
        blk_i.append(np.repeat(index, 2))
        blk_j.append(cols)
        blk_v.append(np.tile(np.array([1.0, -1.0]), k))
        blk_b.append(rhs)
        nrows += k
        return index

    # Monotonicity d_parent <= d_v (root-adjacent edges are covered by
    # the lb >= 0 variable bounds).
    mono = np.flatnonzero(parents[1:] != 0).astype(np.int64) + 1
    mono_row = np.full(n, -1, dtype=np.int64)
    mono_row[mono] = _pairs_block(
        parents[mono] - 1, mono - 1, np.zeros(mono.size)
    )

    # Pinned tie edges: d_v == d_parent (the reverse inequality).
    zero_interior = np.array(
        [v for v in zero_edges if int(parents[v]) != 0], dtype=np.int64
    )
    _pairs_block(
        zero_interior - 1,
        parents[zero_interior] - 1,
        np.zeros(zero_interior.size),
    )

    tie_row = np.full(n, -1, dtype=np.int64)
    self_row = np.full(n, -1, dtype=np.int64)
    geo_row = np.full(n, -1, dtype=np.int64)
    if m >= 2:
        quad = np.arange(4)
        # Chain rows: aux[k] <= aux[c] for every child c that keeps
        # auxiliaries (a sink-bearing node's parent keeps them by
        # construction), 4 copies.
        bc = np.flatnonzero(auxpos[1:] >= 0) + 1
        ap4 = (auxpos[parents[bc]][:, None] + quad).ravel()
        av4 = (auxpos[bc][:, None] + quad).ravel()
        tie_row[bc] = _pairs_block(ap4, av4, np.zeros(4 * bc.size))[::4]

        # Self rows at sinks, on the sink's own auxiliaries or, at a
        # leaf sink, its parent's: A <= d_k - su_k, B <= d_k + su_k,
        # C <= d_k - sv_k, D <= d_k + sv_k.
        s = np.arange(1, m + 1, dtype=np.int64)
        holder = np.where(leaf_sink[s], parents[s], s)
        su = np.asarray(meta.su, dtype=np.float64)[1 : m + 1]
        sv = np.asarray(meta.sv, dtype=np.float64)[1 : m + 1]
        a4 = (auxpos[holder][:, None] + quad).ravel()
        d4 = np.repeat(s - 1, 4)
        rhs4 = np.stack([-su, su, -sv, sv], axis=1).ravel()
        self_row[s] = _pairs_block(a4, d4, rhs4)[::4]
        tie_row[leaf_sink] = self_row[leaf_sink]

        # Geometry rows at every LCA node: 2 d_k - A_k - B_k <= 0 and
        # 2 d_k - C_k - D_k <= 0 (the d term vanishes at the root).
        bearing = np.flatnonzero(has[1:]) + 1
        cnt = np.bincount(parents[bearing], minlength=n)
        geo = (cnt >= 2) | (is_sink & (cnt >= 1))
        g = np.flatnonzero(geo & (np.arange(n) != 0)).astype(np.int64)
        if g.size:
            k = int(g.size)
            geo_row[g] = nrows + 2 * np.arange(k, dtype=np.int64)
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
            geo_row[0] = nrows
            blk_i.append(
                np.repeat(np.arange(nrows, nrows + 2, dtype=np.int64), 2)
            )
            blk_j.append(np.array([a0, a0 + 1, a0 + 2, a0 + 3], dtype=np.int64))
            blk_v.append(np.full(4, -1.0))
            blk_b.append(np.zeros(2))
            nrows += 2

    rows = np.concatenate(blk_i) if blk_i else np.empty(0, dtype=np.int64)
    cols = np.concatenate(blk_j) if blk_j else np.empty(0, dtype=np.int64)
    vals = np.concatenate(blk_v) if blk_v else np.empty(0)
    # Column-major, the layout HiGHS takes; the COO entries come in row
    # order, so each column's row indices are sorted as linprog's
    # CSR-to-CSC conversion leaves them.
    a_ub = sparse.csc_array((vals, (rows, cols)), shape=(nrows, nvar))
    b_ub = np.concatenate(blk_b) if blk_b else np.empty(0)
    sign = 1.0 if lp.minimize else -1.0
    return CollapsedLp(
        c=sign * c,
        a_ub=a_ub,
        b_ub=b_ub,
        lb=np.concatenate([lb, np.full(num_aux, -np.inf)]),
        ub=np.concatenate([ub, np.full(num_aux, np.inf)]),
        layout=TreeLayout(
            parents=parents,
            num_sinks=m,
            levels=levels,
            mono_row=mono_row,
            tie_row=tie_row,
            self_row=self_row,
            geo_row=geo_row,
            auxpos=auxpos,
            source_uv=meta.source_uv,
            zero_edges=zero_edges,
        ),
    )


def crash_basis(model: CollapsedLp) -> Basis | None:
    """A dual feasible start basis for ``model``, read off its tree, or
    None where HiGHS's own start serves better.

    From any other basis dual simplex first searches for a dual feasible
    one (its phase 1); from this one it starts in phase 2, at a vertex
    where the pair constraints place the Steiner points.  With ``c`` the
    objective HiGHS minimizes, each Steiner node's negative cost is
    routed as a dual flow through its *binding* geometry row and down to
    the sinks that attain its subtree minima, which absorb it at a delay
    bound.

    *Estimates.*  A sink's value in auxiliary column ``q`` (``d - u``,
    ``d + u``, ``d - v``, ``d + v``) is its delay's lower bound plus its
    self row's rhs.  Subtree minima roll up one depth level per NumPy
    step, and each ``(node, q)`` records the group attaining its minimum:
    the node itself if it is a sink that does, else the lowest such
    child id.  A node's binding geometry row is the smaller of its
    estimated ``A + B`` and ``C + D`` (``A + B`` on ties).

    *Flow.*  Walking root to leaves with ``f`` the flow arriving through
    a node's own monotonicity row (0 at the root's children), a node
    that has children and is not a sink computes ``out = f - c``.  If
    ``out >= 0`` its delay is basic: at a node with geometry rows the
    binding one is nonbasic with dual ``-out / 2`` and its two
    auxiliaries receive ``out / 2`` each; at one without (a single
    sink-bearing child) the monotonicity row to its child with the most
    sinks (lowest id on ties) is nonbasic with dual ``-out`` and that
    child receives ``f = out``.  Otherwise its delay sits at its lower
    bound 0.  Every auxiliary is basic and holds one nonbasic row, the
    one to the group attaining its minimum (a chain row, its own self
    row, or a leaf sink child's self row), with minus the flow it passes
    down as dual.  Every other delay (sinks, childless nodes) sits at
    its lower bound if ``c`` minus the flow it absorbs is ``>= 0``, else
    at its upper bound.  All other rows are basic.

    Each basic column holds one nonbasic row.  Auxiliaries follow
    bottom-up from nonbasic sink delays, basic delays from their
    auxiliaries or child: the system is triangular, so the basis is
    nonsingular.  The duals above solve it, are ``<= 0`` on every
    nonbasic row, and by flow conservation give every basic column a
    reduced cost of 0 and every nonbasic one its bound's sign: the basis
    is dual feasible.

    None when a node would have to absorb flow at an infinite upper
    bound (a ``[0, inf)`` window), or when every sink window is a single
    point: presolve solves those models without a pivot.
    """
    t = model.layout
    parents, m = t.parents, t.num_sinks
    n = parents.size
    nrows, nvar = model.a_ub.shape
    if bool(np.all(model.lb[:m] == model.ub[:m])):
        return None
    ids = np.arange(n, dtype=np.int64)
    kids, up = ids[1:], parents[1:]
    quad = np.arange(4)

    # Estimated subtree minima and the group attaining each: grp[k, q]
    # is k for a sink's own value, else a child (n: no child).  At a
    # node that is not a sink and has at most one sink-bearing child,
    # grp[k, 0] is also its child with the most sinks, lowest id on
    # ties: the monotonicity route of nodes without geometry rows.
    own = np.full((n, 4), np.inf)
    s = ids[1 : m + 1]
    own[s] = model.lb[s - 1, None]
    if m >= 2:
        own[s] += model.b_ub[t.self_row[s, None] + quad]
    low = own.copy()
    for level in reversed(t.levels):
        np.minimum.at(low, parents[level], low[level])
    grp = np.where(np.isfinite(own) & (own == low), -1, n)
    np.minimum.at(grp, up, np.where(low[1:] == low[up], kids[:, None], n))
    grp = np.where(grp < 0, ids[:, None], grp)
    chosen = grp[:, 0]
    # Column offset of each node's binding geometry row's auxiliaries.
    bind = np.where(low[:, 2] + low[:, 3] < low[:, 0] + low[:, 1], 2, 0)

    cost = np.concatenate([[0.0], model.c[: n - 1]])
    routes = chosen < n
    routes[: m + 1] = False
    has_geo = t.geo_row >= 0
    flow = np.zeros(n)
    aux_flow = np.zeros((n, 4))
    basic = np.zeros(n, dtype=bool)
    for level in t.levels:
        above = parents[level]
        aux_flow[level] = np.where(
            grp[above] == level[:, None], aux_flow[above], 0.0
        )
        out = flow[level] - cost[level]
        push = routes[level] & (out >= 0.0)
        v, out = level[push], out[push]
        basic[v] = True
        geo = has_geo[v]
        g, half = v[geo], 0.5 * out[geo]
        aux_flow[g, bind[g]] += half
        aux_flow[g, bind[g] + 1] += half
        flow[chosen[v[~geo]]] = out[~geo]
    absorbed = flow + np.where(grp == ids[:, None], aux_flow, 0.0).sum(axis=1)
    upper = (~basic & (cost - absorbed < 0.0))[1:]
    if bool(np.any(np.isinf(model.ub[: n - 1][upper]))):
        return None

    col = np.full(nvar, _BASIC, dtype=np.int8)
    col[: n - 1] = np.where(upper, _UPPER, _LOWER)
    col[: n - 1][basic[1:]] = _BASIC
    row = np.full(nrows, _BASIC, dtype=np.int8)
    row[t.geo_row[basic & has_geo] + bind[basic & has_geo] // 2] = _UPPER
    row[t.mono_row[chosen[basic & ~has_geo]]] = _UPPER
    holders = np.flatnonzero(t.auxpos >= 0)
    to = grp[holders]
    tie = np.where(
        to == holders[:, None], t.self_row[holders, None], t.tie_row[to]
    )
    row[(tie + quad).ravel()] = _UPPER
    return col, row


#: Sink count from which a cold solve starts at :func:`tour_basis`
#: rather than at :func:`crash_basis`: below it the tour start's build
#: costs more than the pivots it saves (docs/PERFORMANCE.md, "Tour
#: start").
TOUR_MIN_SINKS = 256

#: The half of a tour pair that reaches no leaf: the first and the last
#: leaf of the tour take one half only, from one side.
_END = 4

#: A Steiner node's 8 tour options: which child goes first, which
#: geometry row carries its cost (0: ``A + B``, 1: ``C + D``), and the
#: types of the halves it sends to its first child's last leaf (``p``)
#: and its second child's first leaf (``q``).
_OPT_FLIP = np.repeat([0, 1], 4)
_OPT_GEO = np.tile(np.repeat([0, 1], 2), 2)
_OPT_P = 2 * _OPT_GEO + np.tile([0, 1], 4)
_OPT_Q = 4 * _OPT_GEO + 1 - _OPT_P

#: Per ``(first type, last type, option)``: the options whose halves
#: cross the types entering a node (``p`` equal to the last type, ``q``
#: to the first).  At a cherry each leaf then takes one half of either
#: type on two self rows, and those four rows close a cycle: the basis
#: would be singular.  The option with the halves swapped takes a subset
#: of those rows, so excluding these costs nothing.
_CROSSED = np.where(
    (np.arange(5)[:, None, None] == _OPT_Q)
    & (np.arange(5)[None, :, None] == _OPT_P),
    1 << 20,
    0,
).astype(np.int32)


def _binary_children(t: TreeLayout) -> np.ndarray | None:
    """``children[k]`` for every Steiner node ``k`` of a full binary tree
    whose sinks are its leaves and whose root has one child (row 0 holds
    that child twice), or None for any other tree."""
    parents, m = t.parents, t.num_sinks
    n = parents.size
    deg = np.bincount(parents[1:], minlength=n)
    if m < 2 or deg[0] != 1 or deg[1 : m + 1].any() or np.any(deg[m + 1 :] != 2):
        return None
    # Children grouped by parent id: the root's one child, then pairs.
    kids = np.argsort(parents[1:], kind="stable") + 1
    children = np.zeros((n, 2), dtype=np.int64)
    children[0] = kids[0]
    children[m + 1 :] = kids[1:].reshape(-1, 2)
    return children


def steiner_optimum(model: CollapsedLp, children: np.ndarray) -> np.ndarray:
    """The optimum of ``model``'s tree under ``[0, inf)`` windows: its
    minimum rectilinear Steiner tree for the fixed topology and source,
    as a point of ``model``'s columns.

    L1 length separates into ``x = (u - v) / 2`` and ``y = (u + v) / 2``
    (``v = y - x``, as :attr:`repro.geometry.Point.v`), and per axis the
    optimum of a binary tree is a median: bottom-up, a node's interval is
    the overlap of its children's, or the gap between them when they do
    not overlap; top-down, from the source at the root, each node takes
    its parent's coordinate clamped into its interval.
    Delays are path sums of the edges' L1 lengths, and each auxiliary is
    its subtree minimum at those delays.  ``children`` is
    :func:`_binary_children`'s table.
    """
    t = model.layout
    parents, m, levels = t.parents, t.num_sinks, t.levels
    n = parents.size
    quad = np.arange(4)
    s = np.arange(1, m + 1)
    # Self row rhs per sink: -u, u, -v, v.
    rhs = model.b_ub[t.self_row[s, None] + quad]
    lo = np.zeros((n, 2))
    lo[s, 0] = 0.5 * (rhs[:, 1] - rhs[:, 3])
    lo[s, 1] = 0.5 * (rhs[:, 1] + rhs[:, 3])
    hi = lo.copy()
    for level in reversed(levels):
        k = level[level > m]
        a, b = children[k, 0], children[k, 1]
        inner = np.maximum(lo[a], lo[b])
        outer = np.minimum(hi[a], hi[b])
        lo[k] = np.minimum(inner, outer)
        hi[k] = np.maximum(inner, outer)
    u0, v0 = t.source_uv
    pos = np.empty((n, 2))
    pos[0] = 0.5 * (u0 - v0), 0.5 * (u0 + v0)
    d = np.zeros(n)
    for level in levels:
        up = parents[level]
        pos[level] = np.minimum(np.maximum(pos[up], lo[level]), hi[level])
        d[level] = d[up] + np.abs(pos[level] - pos[up]).sum(axis=1)
    val = np.empty((n, 4))
    val[s] = d[s, None] + rhs
    for level in reversed(levels):
        k = level[level > m]
        val[k] = np.minimum(val[children[k, 0]], val[children[k, 1]])
    val[0] = val[children[0, 0]]
    x = np.empty(model.c.size)
    x[: n - 1] = d[1:]
    holders = np.flatnonzero(t.auxpos >= 0)
    x[t.auxpos[holders, None] + quad] = val[holders]
    return x


def tour_basis(model: CollapsedLp) -> Basis | None:
    """A dual feasible start basis for ``model`` placed at the optimum of
    its tree under ``[0, inf)`` windows (:func:`steiner_optimum`), or
    None where it does not apply.

    *Dual: the in-order tour.*  With an order fixed on each node's two
    children, the leaves form a sequence in which every Steiner node is
    the LCA of exactly one consecutive pair.  Each Steiner node ``k`` has
    cost ``-1``; it sends ``1/2`` through one of its geometry rows
    (``A + B`` or ``C + D``) to each auxiliary of that row, and each half
    runs down one auxiliary chain (tie rows, then a leaf's self row) to
    one leaf of its pair: the ``A`` or ``C`` half to one, the other half
    to the other.  Every leaf but the two ends of the tour then absorbs
    ``1/2 + 1/2``, its cost, and is basic; the ends absorb ``1/2`` and
    sit at their lower bounds with reduced cost ``1/2``.  Each half
    enters a child subtree on the tie row of its type, so a subtree's
    state is the pair of types reaching its first and its last leaf.
    Flow is conserved at every auxiliary, the duals are ``<= 0``, and
    every Steiner delay's reduced cost is ``-1 + 2 * 1/2 = 0``: with unit
    weights every child order and every row choice is dual feasible.  A
    bottom-up table over the 25 states picks them so that the fewest
    flow rows are loose at the optimum, one NumPy step per depth level.

    *Completion.*  The flow rows leave the basis about one row short per
    tour pair, and auxiliaries no flow reaches hold none.  A triangular
    peel adds rows tight at the optimum (duals 0): from the two end
    leaves on, a row enters only to fix the one column of it still
    unknown.  Flow rows go first, then tight rows and tight leaf bounds
    in the order they become ready, rows that fix a Steiner delay last;
    when none is ready, the leftmost unknown leaf of the tour goes to its
    lower bound.  Every nonbasic entry fixes one column, so the basis
    matrix is triangular: nonsingular.  Where flow rows close a cycle the
    peel cannot break, a flow row is left with nothing to fix and the
    start is dropped.

    Applies to a full binary tree whose sinks are its leaves, with a
    fixed source under a one-child root, unit weights and no pinned edge
    (every :func:`repro.topology.build_net_topology` kind); returns None
    otherwise, when every sink window is a single point (presolve solves
    those without a pivot), and when the basis fails
    :func:`_is_dual_feasible_start`.
    """
    t = model.layout
    parents, m, levels = t.parents, t.num_sinks, t.levels
    n = parents.size
    nrows, nvar = model.a_ub.shape
    if t.source_uv is None or t.zero_edges:
        return None
    children = _binary_children(t)
    if children is None or bool(np.all(model.lb[:m] == model.ub[:m])):
        return None
    if np.any(model.c[:m] != 1.0) or np.any(model.c[m : n - 1] != -1.0):
        return None
    a = model.a_ub
    x = steiner_optimum(model, children)
    slack = model.b_ub - a @ x
    tol = 1e-9 * max(1.0, float(np.abs(x).max()))
    if slack.min() < -1e3 * tol:
        return None
    tight = slack <= tol
    quad = np.arange(4)
    steiner = np.arange(m + 1, n)
    s = np.arange(1, m + 1)

    # ---- the tour: child orders and half types, bottom-up table -------
    # loose[c, q]: the tie row on which a half of type q enters c is
    # loose at the optimum (the end type enters on none).
    # Costs are kept times 8, with the option index in the low 3 bits of
    # a node's candidates, so one min picks the option and its cost.
    loose = np.zeros((n, 5), dtype=np.int32)
    loose[1:, :4] = 8 * ~tight[t.tie_row[1:, None] + quad]
    enter = loose[:, :, None] + loose[:, None, :] * ~np.eye(5, dtype=bool)
    # An end leaf sits at its lower bound: loose unless the optimum does.
    off_lb = np.abs(x[s - 1] - model.lb[s - 1]) > tol
    end_cost = 8 * off_lb.astype(np.int32)
    best = enter.copy()
    best[s, _END, :] += end_cost[:, None]
    best[s, :, _END] += end_cost[:, None]
    best[s, _END, _END] = np.iinfo(np.int32).max // 4  # one leaf, no pair
    geo_loose = 8 * (~tight[t.geo_row[:, None] + _OPT_GEO]) + np.arange(8)
    choice = np.zeros((n, 5, 5), dtype=np.int32)

    def table(k: np.ndarray, cherries: bool) -> None:
        kids = best[children[k]]
        # Per option (last axis): the first child's table at its last
        # leaf's type, over the first type; the second child's at its
        # first leaf's type, over the last type.
        head = kids[:, _OPT_FLIP, :, _OPT_P].transpose(1, 2, 0)
        tail = kids[:, 1 - _OPT_FLIP, _OPT_Q, :].transpose(0, 2, 1)
        total = head[:, :, None, :] + tail[:, None, :, :]
        total += geo_loose[k][:, None, None, :]
        if cherries:
            total += _CROSSED
        low = total.min(axis=3)
        choice[k] = low & 7
        best[k] = (low & ~7) + enter[k]

    # Cherries (two leaf children) first, all at once: they alone can
    # take the crossed option.
    cherry = np.zeros(n, dtype=bool)
    cherry[steiner] = np.all(children[steiner] <= m, axis=1)
    table(np.flatnonzero(cherry), True)
    inner = [level[level > m] for level in levels]
    for k in reversed(inner):
        if k.size:
            table(k[~cherry[k]], False)
    state = np.full((n, 2), _END, dtype=np.int64)
    first_child = np.zeros(n, dtype=np.int64)
    geo = np.zeros(n, dtype=np.int64)
    for k in inner:
        o = choice[k, state[k, 0], state[k, 1]]
        flip = _OPT_FLIP[o]
        c1 = children[k, flip]
        c2 = children[k, 1 - flip]
        first_child[k], geo[k] = c1, _OPT_GEO[o]
        state[c1, 0], state[c1, 1] = state[k, 0], _OPT_P[o]
        state[c2, 0], state[c2, 1] = _OPT_Q[o], state[k, 1]

    # ---- dual flow (pi = -dual) ----------------------------------------
    pi = np.zeros(nrows)
    below = np.arange(1, n)
    for side in (0, 1):
        typ = state[below, side]
        half = typ != _END
        np.add.at(pi, t.tie_row[below[half]] + typ[half], 0.5)
    pi[t.geo_row[steiner] + geo[steiner]] = 0.5
    forced = pi > 0.0

    # ---- the tour order of the leaves -----------------------------------
    leaves = np.zeros(n, dtype=np.int64)
    leaves[s] = 1
    for k in reversed(inner):
        leaves[k] = leaves[children[k, 0]] + leaves[children[k, 1]]
    start = np.zeros(n, dtype=np.int64)
    for k in inner:
        c1 = first_child[k]
        start[c1] = start[k]
        start[children[k, 0] + children[k, 1] - c1] = start[k] + leaves[c1]
    tour = np.zeros(m, dtype=np.int64)
    tour[start[s]] = s - 1
    ends = tour[[0, -1]]

    # ---- completion: the triangular peel ------------------------------
    # Only flow rows and rows tight at the optimum may enter the basis.
    every_col = np.repeat(np.arange(nvar), np.diff(a.indptr))
    keep = (forced | tight)[a.indices]
    rows_of, cols = a.indices[keep], every_col[keep]
    ptr = np.zeros(nvar + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=nvar), out=ptr[1:])
    known = np.zeros(nvar, dtype=bool)
    known[ends] = True
    unknown = ~known[cols]
    count = np.bincount(rows_of, weights=unknown, minlength=nrows)
    colsum = np.bincount(rows_of, weights=cols * unknown, minlength=nrows)
    # Per row: 4 x the id sum of its unknown columns plus their count
    # (at most 3), which names the last one.
    key = (4 * colsum.astype(np.int64) + count.astype(np.int64)).tolist()
    flows = np.flatnonzero(forced & (count == 1)).tolist()
    # Spare entries, first in first out: tight rows, and (as ~column)
    # inner leaves whose optimum delay is their lower bound.  A row that
    # would fix a Steiner delay waits in ``late`` until nothing else is
    # ready: the flow rows often fix that delay later, and where two
    # geometry flow rows and their tie rows close a cycle, fixing both
    # delays from outside makes the basis singular.
    at_lb = np.flatnonzero(~off_lb)
    ready = ~forced & tight & (count == 1)
    delay = (colsum >= m) & (colsum < n - 1)
    spare = collections.deque((~at_lb[~known[at_lb]]).tolist())
    spare.extend(np.flatnonzero(ready & ~delay).tolist())
    late = collections.deque(np.flatnonzero(ready & delay).tolist())
    is_forced = forced.tolist()
    bounds_l, rows_l, tour_l = ptr.tolist(), rows_of.tolist(), tour.tolist()
    fixer = [-2] * nvar  # the row fixing each column, -1: its bound
    for j in ends.tolist():
        fixer[j] = -1
    seq: list[int] = []
    push_flow, push_spare, push_late = flows.append, spare.append, late.append
    fixed = seq.append
    nxt = 0
    while True:
        if flows:
            r = flows.pop()
            k = key[r]
            if k & 3 != 1:
                return None  # a flow row that fixes nothing: singular
            j = k >> 2
        elif spare or late:
            r = spare.popleft() if spare else late.popleft()
            if r < 0:
                j, r = ~r, -1
                if fixer[j] != -2:
                    continue
            else:
                k = key[r]
                if k & 3 != 1:
                    continue
                j = k >> 2
        else:
            # Nothing tight fixes a column: the leftmost unknown leaf
            # goes to its lower bound.
            while nxt < m and fixer[tour_l[nxt]] != -2:
                nxt += 1
            if nxt == m:
                break
            j, r = tour_l[nxt], -1
        fixer[j] = r
        fixed(j)
        drop = 4 * j + 1
        for q in rows_l[bounds_l[j] : bounds_l[j + 1]]:
            k = key[q] - drop
            key[q] = k
            if k & 3 == 1:
                if is_forced[q]:
                    push_flow(q)
                elif m <= k >> 2 < n - 1:
                    push_late(q)
                else:
                    push_spare(q)
    if len(seq) != nvar - 2:
        return None  # auxiliaries only loose rows could fix

    fix = np.array(fixer, dtype=np.int64)
    basic = fix >= 0
    col = np.where(basic, _BASIC, _LOWER).astype(np.int8)
    row = np.full(nrows, _BASIC, dtype=np.int8)
    row[fix[basic]] = _UPPER
    fixes = np.full(nrows, -1, dtype=np.int64)
    fixes[fix[basic]] = np.flatnonzero(basic)
    order = np.zeros(nvar, dtype=np.int64)
    order[seq] = np.arange(1, nvar - 1)
    basis = (col, row)
    if not _is_dual_feasible_start(model, basis, -pi, fixes, order, every_col):
        return None
    return basis


def _is_dual_feasible_start(
    model: CollapsedLp,
    basis: Basis,
    dual: np.ndarray,
    fixes: np.ndarray,
    order: np.ndarray,
    cols: np.ndarray,
) -> bool:
    """NumPy's check that ``basis`` is a dual feasible basis of ``model``
    with row duals ``dual``: as many nonbasic entries as columns; a
    triangular order (nonbasic row ``r`` fixes basic column
    ``fixes[r]``, the last of its row's basic columns in ``order``), so
    the basis is nonsingular; every row with a nonzero dual nonbasic,
    duals ``<= 0``; reduced costs 0 on basic columns and of their
    bound's sign on nonbasic ones, which sit on finite bounds.  ``cols``
    is the column of each stored entry of ``model.a_ub``."""
    col, row = basis
    a = model.a_ub
    nrows, nvar = a.shape
    basic, nonbasic_row = col == _BASIC, row != _BASIC
    if np.count_nonzero(~basic) + np.count_nonzero(nonbasic_row) != nvar:
        return False
    if np.any(dual[~nonbasic_row] != 0.0) or np.any(dual > 0.0):
        return False
    reduced = model.c - a.T @ dual
    tol = 1e-9 * max(1.0, float(np.abs(model.c).max()))
    lower, upper = col == _LOWER, col == _UPPER
    if (
        np.any(np.abs(reduced[basic]) > tol)
        or np.any(reduced[lower] < -tol)
        or np.any(reduced[upper] > tol)
        or not np.isfinite(model.lb[lower]).all()
        or not np.isfinite(model.ub[upper]).all()
    ):
        return False
    nb = np.flatnonzero(nonbasic_row)
    target = fixes[nb]
    if np.any(target < 0) or not basic[target].all():
        return False
    if np.bincount(target, minlength=nvar).max(initial=0) > 1:
        return False
    keep = nonbasic_row[a.indices] & basic[cols]
    r, c = a.indices[keep], cols[keep]
    aim = fixes[r]
    if np.any(order[c] > order[aim]):
        return False
    hits = np.bincount(r[c == aim], minlength=nrows)
    return bool(np.all(hits[nb] == 1))


def _fits(basis: Basis | None, model: CollapsedLp) -> bool:
    """Whether ``basis`` has one status per column and per row."""
    if basis is None:
        return False
    nrows, nvar = model.a_ub.shape
    return basis[0].shape == (nvar,) and basis[1].shape == (nrows,)


def _final_basis(
    highs: Any, x: np.ndarray, dual: np.ndarray, model: CollapsedLp
) -> Basis | None:
    """The optimal basis as ``getBasis`` reports it, built from the basic
    index list: ``getBasis`` hands out one enum object per entry, ~1 ms
    at 64 sinks.  Nonbasic columns sit on the bound they equal (a fixed
    one on the side its reduced cost pushes toward), free ones at zero;
    every row has only an upper side."""
    status, basic = highs.getBasicVariables()
    if status != _highs.HighsStatus.kOk:
        return None
    basic = np.asarray(basic)
    col = np.full(x.size, _ZERO, dtype=np.int8)
    col[x == model.ub] = _UPPER
    fixed_up = (model.lb == model.ub) & (dual < 0.0)
    col[(x == model.lb) & ~fixed_up] = _LOWER
    col[basic[basic >= 0]] = _BASIC
    row = np.full(model.b_ub.size, _UPPER, dtype=np.int8)
    row[-1 - basic[basic < 0]] = _BASIC
    return col, row


def _cold_starts(model: CollapsedLp) -> Iterator[tuple[Basis, tuple]]:
    """``model``'s cold start bases, best first, each with the options
    HiGHS takes from it: :func:`tour_basis` from :data:`TOUR_MIN_SINKS`
    sinks up (:data:`_TOUR_OPTIONS`), then :func:`crash_basis` (none);
    each is built only when the one before it is missing or refused."""
    if model.layout.num_sinks >= TOUR_MIN_SINKS:
        tour = tour_basis(model)
        if tour is not None:
            yield tour, _TOUR_OPTIONS
    crash = crash_basis(model)
    if crash is not None:
        yield crash, ()


def _accepts(highs: Any, start: Basis) -> bool:
    """Hand ``start`` to ``highs`` as a basis it must not repair; returns
    whether HiGHS took it (it refuses one whose statuses do not count one
    basic entry per row)."""
    hb = _highs.HighsBasis()
    hb.alien = False
    hb.col_status = _STATUS_CODES[start[0]].tolist()
    hb.row_status = _STATUS_CODES[start[1]].tolist()
    return highs.setBasis(hb) != _highs.HighsStatus.kError


def _solve_highs(
    model: CollapsedLp, starts: Iterable[tuple[Basis, tuple]], want_basis: bool
) -> tuple[LpStatus, int, np.ndarray | None, Basis | None, str]:
    """One HiGHS solve of ``model`` from the first of ``starts`` HiGHS
    accepts (or from its own start); returns ``(status, iterations, x,
    basis, message)``.

    Each start comes with the options that override :data:`_OPTIONS`
    when HiGHS takes it.  The HiGHS object lives only for this call.  A
    start goes in as a basis HiGHS must not repair: one whose statuses
    do not count one basic entry per row is refused, and the next start
    is tried.  One it accepts is only where dual simplex begins.
    """
    highs = _highs._Highs()
    for key, value in _OPTIONS:
        highs.setOptionValue(key, value)
    a = model.a_ub
    nrows, nvar = a.shape
    # The array overload: it reads the numpy buffers directly, where
    # filling a HighsLp converts them entry by entry (~0.5 ms at 64
    # sinks).  All columns continuous, minimize, no offset.
    passed = highs.passModel(
        nvar, nrows, a.nnz,
        int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize),
        0.0, model.c, model.lb, model.ub, np.full(nrows, -np.inf),
        model.b_ub, a.indptr.astype(np.int32, copy=False),
        a.indices.astype(np.int32, copy=False), a.data,
        np.zeros(nvar, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
        error = _highs.HighsModelStatus.kModelError
        message = highs.modelStatusToString(error)
        return _STATUS_MAP[error], 0, None, None, message
    for start, options in starts:
        if _accepts(highs, start):
            for key, value in options:
                highs.setOptionValue(key, value)
            break
    highs.run()
    status = highs.getModelStatus()
    iterations = int(highs.getInfo().simplex_iteration_count)
    message = highs.modelStatusToString(status)
    ours = _STATUS_MAP.get(status, LpStatus.ERROR)
    if ours is not LpStatus.OPTIMAL:
        return ours, iterations, None, None, message
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    basis = None
    if want_basis:
        basis = _final_basis(
            highs, x, np.asarray(solution.col_dual), model
        )
    return ours, iterations, x, basis, message


def solve_tree(lp: LinearProgram) -> LpResult:
    """Solve a tree-stamped EBF model via the collapsed node-potential LP.

    Raises :class:`BackendCapabilityError` for models without (current)
    tree metadata; returns an :class:`LpResult` in the *original* edge
    variable space, with the HiGHS iteration count of the collapsed LP.
    HiGHS starts from ``tree_meta.basis`` when it fits the model, else
    from :func:`tour_basis` or :func:`crash_basis` (the next start when
    HiGHS refuses one), and the result carries the final basis when
    ``tree_meta.return_basis`` is set.  Row duals are not produced
    (the collapsed model's rows do not map 1:1 onto the flat model's).
    """
    try:
        model = collapsed_tree_lp(lp)
    except InfeasibleError as exc:
        return _infeasible(str(exc))
    meta = lp.tree_meta
    assert meta is not None  # collapsed_tree_lp declined a bare model
    carried = [(meta.basis, ())] if _fits(meta.basis, model) else []
    status, iterations, values, basis, message = _solve_highs(
        model, itertools.chain(carried, _cold_starts(model)),
        meta.return_basis,
    )
    if status is not LpStatus.OPTIMAL or values is None:
        return LpResult(
            status, None, None, iterations, "tree", message=message
        )

    # ---- recover edge lengths in the flat model's variable space ------
    parents = np.asarray(meta.parents, dtype=np.int64)
    n = int(parents.shape[0])
    d = np.concatenate([[0.0], values[: n - 1]])
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
        basis=basis,
    )
