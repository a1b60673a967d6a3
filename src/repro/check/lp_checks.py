"""LP-level checks (``LP0xx``): well-formedness of a :class:`LinearProgram`.

These read the model's columnar row buffers directly — the checker is a
privileged friend of the model layer, and walking the raw buffers keeps
the pass O(nnz) with no per-row tuple construction.
"""

from __future__ import annotations

import math

import numpy as np

from repro.check.diagnostics import Diagnostic
from repro.check.scaling import check_scaling
from repro.lp.model import LinearProgram, Sense

#: Unsatisfiable-empty-row tolerance: an empty row with |rhs| below this
#: is treated as trivially satisfied rather than infeasible.
_EMPTY_ROW_TOL = 1e-12


def _row_locus(lp: LinearProgram, i: int) -> str:
    name = lp.row_name(i)
    return f"row {i} {name!r}" if name else f"row {i}"


def check_lp(lp: LinearProgram) -> list[Diagnostic]:
    """Run every ``LP0xx`` check; returns diagnostics (possibly empty)."""
    out: list[Diagnostic] = []
    out.extend(_check_columns(lp))
    out.extend(_check_rows(lp))
    out.extend(_check_redundancy(lp))
    out.extend(_check_tree_meta(lp))
    out.extend(check_scaling(lp))
    return out


def _check_tree_meta(lp: LinearProgram) -> list[Diagnostic]:
    """Tree-structure visibility (``LP013``/``LP014``).

    Models stamped by ``build_ebf_lp`` carry a :class:`TreeLpMeta` whose
    ``covered_rows`` watermark certifies every row belongs to the family
    the collapsed tree formulation implies.  A current watermark means
    ``backend="tree"`` applies (advisory LP013); a stale one means some
    producer appended rows without advancing it, so the tree backend
    will decline the model (LP014).
    """
    meta = getattr(lp, "tree_meta", None)
    if meta is None:
        return []
    covered = int(meta.covered_rows)
    if covered == lp.num_constraints:
        return [
            Diagnostic(
                "LP013",
                f"tree metadata covers all {covered} rows "
                f"({int(meta.num_sinks)} sinks); backend=\"tree\" applies",
            )
        ]
    return [
        Diagnostic(
            "LP014",
            f"{lp.num_constraints - covered} row(s) appended past the "
            f"coverage watermark ({covered}/{lp.num_constraints}); "
            "backend=\"tree\" will decline this model",
        )
    ]


def _check_columns(lp: LinearProgram) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    costs = lp.costs
    lb, ub = lp.lower_bounds, lp.upper_bounds
    for j in np.nonzero(~np.isfinite(costs))[0]:
        out.append(
            Diagnostic(
                "LP002",
                f"objective coefficient is {float(costs[j])!r}",
                locus=f"col {j} {lp.variable_name(int(j))!r}",
            )
        )
    bad = np.isnan(lb) | np.isnan(ub) | (lb > ub)
    for j in np.nonzero(bad)[0]:
        out.append(
            Diagnostic(
                "LP004",
                f"variable bounds [{float(lb[j])!r}, {float(ub[j])!r}] "
                "are inverted or NaN",
                locus=f"col {j} {lp.variable_name(int(j))!r}",
            )
        )
    return out


def _check_rows(lp: LinearProgram) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    m = lp.num_constraints
    if m == 0:
        return out
    data = np.asarray(lp._row_data, dtype=np.float64)
    ptr = np.asarray(lp._row_ptr, dtype=np.int64)
    rhs = lp.rhs

    # NaN coefficients, reported per offending row.
    nan_elems = np.nonzero(np.isnan(data))[0]
    if len(nan_elems):
        rows = np.unique(np.searchsorted(ptr, nan_elems, side="right") - 1)
        for i in rows:
            out.append(
                Diagnostic(
                    "LP001",
                    "row contains NaN coefficient(s)",
                    locus=_row_locus(lp, int(i)),
                )
            )

    for i in np.nonzero(~np.isfinite(rhs))[0]:
        out.append(
            Diagnostic(
                "LP003",
                f"right-hand side is {float(rhs[i])!r}",
                locus=_row_locus(lp, int(i)),
            )
        )

    lens = np.diff(ptr)
    for i in np.nonzero(lens == 0)[0]:
        i = int(i)
        sense = lp.row_sense(i)
        b = float(rhs[i])
        if not math.isfinite(b):
            continue  # already reported as LP003
        infeasible = (
            (sense is Sense.GE and b > _EMPTY_ROW_TOL)
            or (sense is Sense.LE and b < -_EMPTY_ROW_TOL)
            or (sense is Sense.EQ and abs(b) > _EMPTY_ROW_TOL)
        )
        if infeasible:
            out.append(
                Diagnostic(
                    "LP005",
                    f"empty row demands {sense.value} {b:g}",
                    locus=_row_locus(lp, i),
                )
            )
        else:
            out.append(
                Diagnostic(
                    "LP011",
                    "row has no coefficients and is trivially satisfied",
                    locus=_row_locus(lp, i),
                )
            )
    return out


def _check_redundancy(lp: LinearProgram) -> list[Diagnostic]:
    """Duplicate (``LP010``) and dominated GE (``LP012``) rows.

    Rows are grouped by an exact signature of their coefficient pattern
    and sense; within a group of ``>=`` rows only the largest rhs binds,
    so every other row is dominated.  Exact (bitwise) equality is the
    right notion here: the builders produce identical floats for
    identical pairs, and near-duplicates are legitimately distinct rows.
    """
    out: list[Diagnostic] = []
    groups: dict[tuple, list[int]] = {}
    for i in range(lp.num_constraints):
        a, b = lp._row_ptr[i], lp._row_ptr[i + 1]
        sig = (
            lp.row_sense(i),
            tuple(lp._row_cols[a:b]),
            tuple(lp._row_data[a:b]),
        )
        groups.setdefault(sig, []).append(i)

    for (sense, cols, _), rows in groups.items():
        if len(rows) < 2 or not cols:
            continue
        by_rhs: dict[float, int] = {}
        for i in rows:
            b = lp._row_rhs[i]
            if b in by_rhs:
                out.append(
                    Diagnostic(
                        "LP010",
                        f"identical to {_row_locus(lp, by_rhs[b])}",
                        locus=_row_locus(lp, i),
                    )
                )
            else:
                by_rhs[b] = i
        if sense is Sense.GE and len(by_rhs) > 1:
            binding_rhs = max(by_rhs)
            binding = by_rhs[binding_rhs]
            for b, i in sorted(by_rhs.items()):
                if i == binding:
                    continue
                out.append(
                    Diagnostic(
                        "LP012",
                        f"implied by {_row_locus(lp, binding)} "
                        f"(rhs {b:g} <= {binding_rhs:g})",
                        locus=_row_locus(lp, i),
                    )
                )
    return out
