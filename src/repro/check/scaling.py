"""LP scaling advisor (``LP015``/``LP016``).

Badly scaled models — coefficient magnitudes spanning many orders, or
rows whose infinity norms differ wildly — are the classic source of
NUMERICAL outcomes in the simplex backends: pivot tolerances tuned for
O(1) entries either reject valid pivots or accept catastrophic ones.
The resilient chain retries every numerical failure once on a rescaled
copy (:func:`repro.resilience.rescale_lp`); this module supplies the
*advice* side: cheap, O(nnz) scaling statistics emitted as warning
diagnostics by :func:`repro.check.check_lp`.

The two statistics, and the stable codes that report them:

* **condition estimate** (``LP015``) — ``max |a_ij| / min |a_ij != 0|``
  over the constraint matrix: a crude but free bound-shaped proxy for
  how much equilibration could help.  Fires at ``>= 1e10``.
* **row-norm spread** (``LP016``) — ratio of the largest to smallest
  row infinity norm: detects mixed-unit rows (e.g. micron-scale wire
  rows next to normalized skew rows) even when individual entries look
  tame.  Fires at ``>= 1e6``.

Thresholds are deliberately conservative: the shipped benchmarks build
incidence-style rows with entries of ±1 and O(radius) right-hand sides,
so a clean pipeline sits many orders below either trigger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.check.diagnostics import Diagnostic
from repro.lp.model import LinearProgram

#: ``LP015`` fires when the coefficient-magnitude ratio reaches this.
CONDITION_THRESHOLD: float = 1e10
#: ``LP016`` fires when the row-infinity-norm ratio reaches this.
ROW_SPREAD_THRESHOLD: float = 1e6


@dataclass(frozen=True)
class ScalingAdvice:
    """Cheap scaling statistics for one :class:`LinearProgram`."""

    #: ``max |a_ij| / min nonzero |a_ij|`` (1.0 for an empty matrix).
    condition_estimate: float
    #: ``max_i ||A_i||_inf / min_i ||A_i||_inf`` over nonempty rows.
    row_norm_spread: float
    max_abs_coefficient: float
    min_abs_coefficient: float


def scaling_advice(lp: LinearProgram) -> ScalingAdvice:
    """Compute scaling statistics in one O(nnz) pass over the row
    buffers (same privileged-friend access as the other LP checks).
    NaN/inf entries are ignored here — LP001/LP002/LP003 own those."""
    data = np.asarray(lp._row_data, dtype=np.float64)
    ptr = np.asarray(lp._row_ptr, dtype=np.int64)
    mags = np.abs(data)
    mags = mags[np.isfinite(mags) & (mags > 0.0)]
    if mags.size == 0:
        return ScalingAdvice(1.0, 1.0, 0.0, 0.0)
    max_abs = float(mags.max())
    min_abs = float(mags.min())

    spread = 1.0
    lens = np.diff(ptr)
    if int(lens.max(initial=0)) > 0:
        finite = np.where(np.isfinite(data), np.abs(data), 0.0)
        row_ids = np.repeat(np.arange(len(lens)), lens)
        norms = np.zeros(len(lens), dtype=np.float64)
        np.maximum.at(norms, row_ids, finite)
        norms = norms[norms > 0.0]
        if norms.size:
            spread = float(norms.max() / norms.min())
    return ScalingAdvice(
        condition_estimate=max_abs / min_abs,
        row_norm_spread=spread,
        max_abs_coefficient=max_abs,
        min_abs_coefficient=min_abs,
    )


def check_scaling(lp: LinearProgram) -> list[Diagnostic]:
    """``LP015``/``LP016`` warning diagnostics for ``check_lp``."""
    advice = scaling_advice(lp)
    out: list[Diagnostic] = []
    if advice.condition_estimate >= CONDITION_THRESHOLD:
        out.append(
            Diagnostic(
                "LP015",
                f"coefficient magnitudes span "
                f"{advice.condition_estimate:.1e} "
                f"(|a| in [{advice.min_abs_coefficient:.1e}, "
                f"{advice.max_abs_coefficient:.1e}])",
            )
        )
    if advice.row_norm_spread >= ROW_SPREAD_THRESHOLD:
        out.append(
            Diagnostic(
                "LP016",
                f"row infinity norms span {advice.row_norm_spread:.1e}",
            )
        )
    return out
