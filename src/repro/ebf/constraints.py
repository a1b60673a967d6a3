"""Steiner-constraint generation and violation checking (Sections 4.1, 4.6).

There are C(m, 2) Steiner constraints — one per sink pair.  Generating all
of them is exact but heavy for paper-scale nets, so this module supports
the paper's Section 4.6 "reduction of the constraints" as a sound lazy
scheme: start from one well-chosen *seed* pair per internal node (the
farthest cross pair, which tends to be the binding one), then add only the
pairs a candidate solution actually violates.  The violation check is
vectorized over LCA groups:

    pathlength(s_i, s_j) = D_i + D_j - 2 * D_lca(i,j)

where ``D`` is the root-to-node pathlength vector, and the Manhattan
distance is the Chebyshev distance of the rotated sink coordinates.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

from repro.delay import node_delays_linear
from repro.geometry import manhattan
from repro.topology import Topology


def sink_pair_count(topo: Topology) -> int:
    """C(m, 2) — the full Steiner constraint count of Section 4.6."""
    m = topo.num_sinks
    return m * (m - 1) // 2


def _lca_groups(topo: Topology) -> Iterator[tuple[int, list[list[int]]]]:
    """Yield ``(node, sink_groups)`` covering every sink pair exactly once.

    A pair's LCA is either a branching node (the pair crosses two child
    subtrees) or — in topologies with interior sinks, like Figure 1(a)'s
    chain — a sink that is an ancestor of the other.  The ancestor sink
    is emitted as its own singleton group so ``itertools.combinations``
    over the groups enumerates both kinds uniformly.
    """
    sinks_under = topo.sinks_under()
    for k in range(topo.num_nodes):
        kids = topo.children(k)
        if not kids:
            continue
        groups = [g for g in (sinks_under[c] for c in kids) if g]
        if topo.is_sink(k):
            groups.append([k])
        if len(groups) >= 2:
            yield k, groups


def all_sink_pairs(topo: Topology) -> Iterator[tuple[int, int]]:
    """Every unordered sink pair, grouped by LCA."""
    for _, groups in _lca_groups(topo):
        for ga, gb in itertools.combinations(groups, 2):
            for i in ga:
                for j in gb:
                    yield (i, j)


def steiner_constraint_rows(
    topo: Topology, pairs: Sequence[tuple[int, int]] | None = None
) -> Iterator[tuple[int, int, list[int], float]]:
    """Yield ``(i, j, path_edge_ids, dist)`` rows for the given sink pairs
    (default: all C(m,2) of them)."""
    if pairs is None:
        pairs = list(all_sink_pairs(topo))
    for i, j in pairs:
        edges = topo.path_between(i, j)
        d = manhattan(topo.sink_location(i), topo.sink_location(j))
        yield i, j, edges, d


def _sink_uv(topo: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Rotated sink coordinates indexed by *node id* (non-sinks zeroed);
    memoized on the topology."""
    return topo.sink_uv()


def steiner_row_matrix(
    topo: Topology, pairs: Sequence[tuple]
) -> tuple[object, np.ndarray]:
    """Vectorized Steiner-row assembly for a batch of sink pairs.

    ``pairs`` holds ``(i, j)`` or ``(i, j, lca)`` tuples (the violation
    scan already knows each pair's LCA; pairs without one fall back to
    the O(log n) lifted-ancestor query).  Returns ``(block, dist)``:
    ``block`` is a CSR matrix over *node-id* columns (column ``e`` = edge
    ``e``, column 0 empty) with one row per pair, derived from the
    memoized root-path incidence as

        row(i, j) = inc[i] + inc[j] - 2 * inc[lca(i, j)]

    so no per-pair ``path_between`` walk happens; ``dist`` is the
    Manhattan distance (paper rhs) per pair.
    """
    inc = topo.root_path_incidence()
    ii = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    jj = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    kk = np.fromiter(
        (p[2] if len(p) > 2 else topo.lca(p[0], p[1]) for p in pairs),
        dtype=np.int64,
        count=len(pairs),
    )
    block = inc[ii] + inc[jj] - 2.0 * inc[kk]
    block.eliminate_zeros()  # the shared root prefix cancels to exact 0.0
    su, sv = topo.sink_uv()
    dist = np.maximum(np.abs(su[ii] - su[jj]), np.abs(sv[ii] - sv[jj]))
    return block, dist


def seed_constraint_pairs(topo: Topology) -> list[tuple[int, int]]:
    """One seed pair per branching node: the farthest cross pair.

    For each LCA and each pair of its child groups, the maximizing pair of
    ``max(|du|, |dv|)`` is found from the groups' u/v extremes (16 candidate
    combinations) — O(m) per node instead of O(|A|*|B|).
    """
    su, sv = _sink_uv(topo)
    seeds: list[tuple[int, int]] = []
    for _, groups in _lca_groups(topo):
        extremes = []
        for g in groups:
            arr = np.asarray(g)
            extremes.append(
                {
                    "umin": int(arr[np.argmin(su[arr])]),
                    "umax": int(arr[np.argmax(su[arr])]),
                    "vmin": int(arr[np.argmin(sv[arr])]),
                    "vmax": int(arr[np.argmax(sv[arr])]),
                }
            )
        for (ga, ea), (gb, eb) in itertools.combinations(
            zip(groups, extremes), 2
        ):
            # Candidate extremes are deduped *and sorted*: iterating a bare
            # set here would make the argmax tie-break depend on hash order,
            # and with it the seed rows and the degenerate-optimum vertex.
            best: tuple[float, int, int] | None = None
            for i in sorted(set(ea.values())):
                for j in sorted(set(eb.values())):
                    d = max(abs(su[i] - su[j]), abs(sv[i] - sv[j]))
                    if best is None or d > best[0]:
                        best = (d, i, j)
            assert best is not None
            seeds.append((best[1], best[2]))
    return seeds


def steiner_violations(
    topo: Topology,
    edge_lengths: np.ndarray,
    tol: float = 1e-7,
    limit: int | None = None,
    with_lca: bool = False,
) -> list[tuple]:
    """All sink pairs whose Steiner constraint is violated by more than
    ``tol``, as ``(i, j, violation)`` sorted by decreasing violation.

    ``limit`` caps the returned count (the most-violated rows are kept),
    which is what the lazy solver uses for batched row generation.
    ``with_lca=True`` returns ``(i, j, lca, violation)`` instead — the
    scan knows each pair's LCA already, and handing it to
    :func:`steiner_row_matrix` skips the per-pair ancestor query.
    """
    d = node_delays_linear(topo, edge_lengths)
    su, sv = _sink_uv(topo)
    ii_parts: list[np.ndarray] = []
    jj_parts: list[np.ndarray] = []
    kk_parts: list[np.ndarray] = []
    vv_parts: list[np.ndarray] = []
    for k, groups in _lca_groups(topo):
        arrays = [np.asarray(g) for g in groups]
        for a, b in itertools.combinations(arrays, 2):
            pathsum = d[a][:, None] + d[b][None, :] - 2.0 * d[k]
            dist = np.maximum(
                np.abs(su[a][:, None] - su[b][None, :]),
                np.abs(sv[a][:, None] - sv[b][None, :]),
            )
            viol = dist - pathsum
            ia, ib = np.nonzero(viol > tol)
            if not len(ia):
                continue
            # Column-stacked, in the scan (row-major) order the old
            # per-element loop produced — the order ties are broken in.
            ii_parts.append(a[ia])
            jj_parts.append(b[ib])
            kk_parts.append(np.full(len(ia), k, dtype=np.int64))
            vv_parts.append(viol[ia, ib])
    if not ii_parts:
        return []
    ii = np.concatenate(ii_parts)
    jj = np.concatenate(jj_parts)
    kk = np.concatenate(kk_parts)
    vv = np.concatenate(vv_parts)

    if limit is not None and len(vv) > limit:
        # Threshold selection via partition instead of a full sort.  To
        # reproduce the previous stable-sort-then-slice semantics exactly,
        # keep everything strictly above the limit-th largest violation,
        # then fill the remainder with threshold ties in scan order.
        neg = -vv
        thresh = np.partition(neg, limit - 1)[limit - 1]
        sel = np.flatnonzero(neg < thresh)
        need = limit - len(sel)
        if need > 0:
            sel = np.sort(
                np.concatenate([sel, np.flatnonzero(neg == thresh)[:need]])
            )
        order = sel[np.argsort(neg[sel], kind="stable")]
    else:
        order = np.argsort(-vv, kind="stable")

    if with_lca:
        return [
            (int(ii[t]), int(jj[t]), int(kk[t]), float(vv[t])) for t in order
        ]
    return [(int(ii[t]), int(jj[t]), float(vv[t])) for t in order]


#: ``16 eps``: the certificate's rounding guard per unit of scale (see
#: :func:`steiner_certificate`).
_GUARD_EPS = 16.0 * float(np.finfo(np.float64).eps)


def steiner_certificate(
    topo: Topology, node_delays: np.ndarray
) -> tuple[float, float]:
    """Exact worst Steiner violation without a pair scan: ``(worst,
    guard)``.

    ``worst`` is the largest ``dist(s_i, s_j) - pathsum(s_i, s_j)`` over
    all sink pairs, given the root-to-node delays ``node_delays`` (0.0
    without pairs, NaN when a delay is not finite).  Splitting the
    Chebyshev distance into one-sided terms, a pair with LCA ``k`` is
    violated by

        2 d_k - min((d_i - u_i) + (d_j + u_j), (d_i + u_i) + (d_j - u_j),
                    (d_i - v_i) + (d_j + v_j), (d_i + v_i) + (d_j - v_j))

    so ``k``'s worst pair needs only, per distinct sink group under
    ``k`` (each sink-bearing child's subtree, and ``k`` itself when it is
    a sink), the group minima of ``d - u``, ``d + u``, ``d - v`` and
    ``d + v`` — the four one-sided chains of :mod:`repro.lp.treesolve` —
    combined across two *different* groups through each column's two
    smallest group minima.  Subtree minima roll up one depth level per
    NumPy step (:meth:`Topology.levels`); the top-two combination then
    runs over every node at once.  O(n log n), no m x m arrays.

    ``guard`` bounds how far ``worst`` may sit from the
    :func:`steiner_violations` maximum: both evaluate the same exact
    value in a different order.  With ``S`` the largest ``|d|``, ``|u|``
    or ``|v|`` and unit roundoff ``eps / 2``, the scan rounds
    ``|u_i - u_j|`` (magnitude <= 2S), ``d_i + d_j`` (<= 2S), ``- 2 d_k``
    (<= 4S) and ``dist - pathsum`` (<= 6S), the certificate ``d_i -
    u_i`` and ``d_j + u_j`` (<= 2S each), their sum (<= 4S) and ``2 d_k
    - sum`` (<= 6S); each error is at most ``eps / 2`` times its
    magnitude plus the errors it inherits, so each side is within
    ``7 eps S`` of the exact value and the two within ``14 eps S``.
    ``guard = 16 eps S`` leaves room for the second-order terms.
    """
    d = np.asarray(node_delays, dtype=np.float64)
    su, sv = _sink_uv(topo)
    m = topo.num_sinks
    scale = max(float(np.abs(d).max()), float(np.abs(su).max()),
                float(np.abs(sv).max()))
    guard = _GUARD_EPS * scale
    if m < 2:
        return 0.0, guard
    if not np.isfinite(scale):
        return float("nan"), guard
    # Each sink's own group, columns d-u, d+u, d-v, d+v; +inf elsewhere
    # (a group no pair can use).
    n = topo.num_nodes
    own = np.full((n, 4), np.inf)
    ds = d[1 : m + 1]
    own[1 : m + 1, 0] = ds - su[1 : m + 1]
    own[1 : m + 1, 1] = ds + su[1 : m + 1]
    own[1 : m + 1, 2] = ds - sv[1 : m + 1]
    own[1 : m + 1, 3] = ds + sv[1 : m + 1]
    # low[k]: the smallest group minimum at k, i.e. its subtree minimum.
    low = own.copy()
    for level in reversed(topo.levels()):
        np.minimum.at(low, level.parents, low[level.nodes])
    # first[k]: the group attaining low[k] (-1: k's own sink, else the
    # lowest such child id); second[k]: the smallest minimum among k's
    # other groups.
    kids, par = low[1:], topo.parent_array()[1:]
    ids = np.arange(1, n)[:, None]
    first = np.where(own == low, -1, n)
    np.minimum.at(first, par, np.where(kids == low[par], ids, n))
    second = np.where(first == -1, np.inf, own)
    np.minimum.at(second, par, np.where(first[par] == ids, np.inf, kids))
    # Cheapest (d-u)_a + (d+u)_b over groups a != b, and (d-v) + (d+v).
    pair = np.where(
        first[:, 0::2] == first[:, 1::2],
        np.minimum(low[:, 0::2] + second[:, 1::2],
                   second[:, 0::2] + low[:, 1::2]),
        low[:, 0::2] + low[:, 1::2],
    )
    worst = float((2.0 * d - pair.min(axis=1)).max())
    return worst, guard


def max_steiner_violation(topo: Topology, edge_lengths: np.ndarray) -> float:
    """Largest Steiner-constraint violation (<= 0 when all satisfied,
    0.0 without pairs), computed by :func:`steiner_certificate`: the
    :func:`steiner_violations` maximum up to the certificate's guard."""
    return steiner_certificate(topo, node_delays_linear(topo, edge_lengths))[0]
