"""Elastic re-solve of an infeasible EBF: *which* sink bounds conflict?

Per Section 9 of the paper, an infeasible EBF certifies that no LUBT
exists for the topology and bounds — but a bare "infeasible" leaves the
user guessing which of the ``l_i``/``u_i`` windows to move.  This module
answers that with the classic elastic-programming trick: re-solve the
LP with a non-negative slack on each side of every sink window

    d_i + s_l_i  >=  l_i
    d_i - s_u_i  <=  u_i

(``d_i`` the sink's delay) minimizing total slack.  The optimum is the
minimal total bound relaxation that restores feasibility; per-sink
slacks name the conflicting sinks and how far each bound must move.

The LP is the collapsed node-potential model of
:mod:`repro.lp.treesolve` under ``[0, inf)`` windows, which holds the
whole Steiner family in O(n) rows, plus one slack column and one row per
finite window side: one solve answers, with no row generation.  With a
fixed source, that model's delay columns keep the geometric floor
``d_i >= dist(s_0, s_i)`` as a *hard* bound: no bound relaxation can
route a wire shorter than the Manhattan distance, so keeping it
inelastic makes the relaxed bounds embeddable (Theorem 4.1 carries over)
instead of merely LP-feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ebf.bounds import DelayBounds
from repro.ebf.formulation import build_tree_lp
from repro.lp import LinearProgram, Sense, solve_lp
from repro.lp.result import LpResult
from repro.lp.treesolve import collapsed_tree_lp
from repro.resilience.fallback import solve_lp_resilient

_SLACK_TOL = 1e-7


@dataclass(frozen=True)
class SinkRelaxation:
    """Minimal bound movement for one sink.

    ``lower_relax`` is how far ``l_i`` must *drop*, ``upper_relax`` how
    far ``u_i`` must *rise*; zero means that bound is not in conflict.
    """

    sink: int
    lower: float
    upper: float
    lower_relax: float
    upper_relax: float

    @property
    def conflicting(self) -> bool:
        return self.lower_relax > 0.0 or self.upper_relax > 0.0

    @property
    def relaxed_lower(self) -> float:
        return max(0.0, self.lower - self.lower_relax)

    @property
    def relaxed_upper(self) -> float:
        return self.upper + self.upper_relax

    def describe(self) -> str:
        parts = []
        if self.lower_relax > 0.0:
            parts.append(
                f"l={self.lower:g} must drop by {self.lower_relax:g}"
            )
        if self.upper_relax > 0.0:
            parts.append(
                f"u={self.upper:g} must rise by {self.upper_relax:g}"
            )
        return f"sink {self.sink}: " + (", ".join(parts) or "no conflict")


@dataclass(frozen=True)
class InfeasibilityDiagnosis:
    """Why the EBF was infeasible, and the nearest feasible bound set.

    ``relaxations`` covers every sink (most with zero relaxation);
    ``relaxed_bounds`` is a valid :class:`DelayBounds` under which the
    instance is feasible *and embeddable* — re-solving with it is the
    graceful-degradation path.
    """

    relaxations: tuple[SinkRelaxation, ...]
    total_slack: float
    relaxed_bounds: DelayBounds

    @property
    def conflicting(self) -> tuple[SinkRelaxation, ...]:
        return tuple(r for r in self.relaxations if r.conflicting)

    @property
    def conflicting_sinks(self) -> tuple[int, ...]:
        return tuple(r.sink for r in self.conflicting)

    def summary(self) -> str:
        conf = self.conflicting
        if not conf:
            return "no conflicting sink bounds found (instance feasible?)"
        lines = [
            f"{len(conf)} conflicting sink bound(s), "
            f"total relaxation {self.total_slack:g}:"
        ]
        lines += ["  " + r.describe() for r in conf]
        return "\n".join(lines)


def build_elastic_lp(
    topo,
    bounds: DelayBounds,
    *,
    zero_edges=(),
) -> tuple[LinearProgram, dict[int, tuple[int | None, int | None]]]:
    """The elastic EBF in collapsed form, min-total-slack objective.
    Returns ``(lp, slack_cols)`` with ``slack_cols[i] =
    (lower_slack_col, upper_slack_col)`` (``None`` where a bound needs
    no slack: ``l_i = 0`` or ``u_i = inf``).

    The first ``n - 1`` columns are the node delays ``d_1 .. d_{n-1}``,
    then come the collapsed model's min-chain auxiliaries and the
    slacks.  Always feasible: delays can stretch to any Steiner/geometric
    floor, the upper slacks are unbounded, and each lower slack is capped
    at ``l_i`` (so relaxed lower bounds never go negative).
    """
    if bounds.num_sinks != topo.num_sinks:
        raise ValueError("bounds/sink count mismatch")
    model = collapsed_tree_lp(
        build_tree_lp(
            topo, DelayBounds.unbounded(topo.num_sinks),
            zero_edges=zero_edges,
        )
    )
    lp = LinearProgram()
    for lo, hi in zip(model.lb.tolist(), model.ub.tolist()):
        lp.add_variable(lb=lo, ub=hi)  # cost 0: the objective is slack only
    a = model.a_ub.tocsr()
    lp.add_rows(a.data, a.indices, a.indptr, Sense.LE, model.b_ub)

    slack_cols: dict[int, tuple[int | None, int | None]] = {}
    for i in topo.sink_ids():
        lo, hi = bounds.window(i)
        # Sink i is node i, so its delay is column i - 1.
        s_lo = s_hi = None
        if lo > 0.0:
            s_lo = lp.add_variable(f"slack_l{i}", cost=1.0, ub=lo)
            lp.add_constraint(
                {i - 1: 1.0, s_lo: 1.0}, Sense.GE, lo, name=f"delay{i}.lo"
            )
        if math.isfinite(hi):
            s_hi = lp.add_variable(f"slack_u{i}", cost=1.0)
            lp.add_constraint(
                {i - 1: 1.0, s_hi: -1.0}, Sense.LE, hi, name=f"delay{i}.hi"
            )
        slack_cols[i] = (s_lo, s_hi)
    return lp, slack_cols


def diagnose_infeasibility(
    topo,
    bounds: DelayBounds,
    *,
    zero_edges=(),
    resilient: bool = False,
) -> InfeasibilityDiagnosis:
    """Solve the elastic EBF once and report the minimal per-sink
    relaxation.

    With ``resilient=True`` the elastic LP goes through the backend
    fallback chain (:func:`~repro.resilience.solve_lp_resilient`).
    """
    lp, slack_cols = build_elastic_lp(topo, bounds, zero_edges=zero_edges)
    result = solve_lp_resilient(lp).result if resilient else solve_lp(lp)
    return read_elastic_solution(topo, bounds, slack_cols, result)


def read_elastic_solution(
    topo,
    bounds: DelayBounds,
    slack_cols: dict[int, tuple[int | None, int | None]],
    result: LpResult,
) -> InfeasibilityDiagnosis:
    """Read the minimal per-sink relaxation off a solve of
    :func:`build_elastic_lp`'s model.

    Slacks at or below a tolerance scaled by the bounds' magnitude count
    as zero; each positive one relaxes its bound, padded by that
    tolerance.  A non-optimal ``result`` raises as
    :meth:`~repro.lp.LpResult.require_optimal` does.
    """
    result = result.require_optimal()

    scale = 1.0
    finite_hi = bounds.upper[np.isfinite(bounds.upper)]
    if finite_hi.size:
        scale = max(scale, float(np.abs(finite_hi).max()))
    scale = max(scale, float(np.abs(bounds.lower).max(initial=0.0)))
    threshold = _SLACK_TOL * scale
    pad = threshold  # cushion so the relaxed re-solve isn't borderline

    x = result.x
    new_lo = bounds.lower.copy()
    new_hi = bounds.upper.copy()
    relaxations = []
    total = 0.0
    for i in topo.sink_ids():
        lo, hi = bounds.window(i)
        s_lo_col, s_hi_col = slack_cols[i]
        sl = float(x[s_lo_col]) if s_lo_col is not None else 0.0
        su = float(x[s_hi_col]) if s_hi_col is not None else 0.0
        sl = sl if sl > threshold else 0.0
        su = su if su > threshold else 0.0
        total += sl + su
        relaxations.append(SinkRelaxation(i, lo, hi, sl, su))
        if sl > 0.0:
            new_lo[i - 1] = max(0.0, lo - sl - pad)
        if su > 0.0:
            new_hi[i - 1] = hi + su + pad
    return InfeasibilityDiagnosis(
        tuple(relaxations), total, DelayBounds(new_lo, new_hi)
    )
