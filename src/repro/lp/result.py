"""Solver-independent result and status types."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class InfeasibleError(RuntimeError):
    """Raised when a model required to be feasible is not.

    For LUBT this is meaningful, not exceptional bookkeeping: the paper
    (Section 9) notes that an infeasible EBF certifies that *no* LUBT
    exists for the given topology and bounds.

    ``diagnosis`` is populated (with a
    :class:`repro.resilience.InfeasibilityDiagnosis`) when the raise site
    ran the elastic re-solve, e.g. ``solve_lubt(on_infeasible="diagnose")``.
    """

    diagnosis: object | None = None


class UnboundedError(RuntimeError):
    """Raised when the LP is unbounded (cannot happen for well-formed EBF,
    whose objective is a non-negative sum)."""


class BackendCapabilityError(ValueError):
    """Raised when a backend cannot represent the given model at all
    (e.g. the dense simplex needs finite lower bounds to shift to
    standard form).

    Subclasses :class:`ValueError` so pre-existing callers that caught
    the untyped error keep working; the ``"auto"`` dispatch and the
    resilient fallback chain catch this type to route the model to a
    capable backend instead of crashing.
    """


@dataclass(frozen=True, slots=True)
class LpResult:
    """Outcome of one LP solve.

    ``duals`` (when the backend provides them) are shadow prices per
    model row, oriented as d(objective)/d(rhs) for the row as written —
    e.g. a positive dual on a ``>=`` row means tightening it (raising
    the rhs) raises the minimum cost.

    ``message`` carries the backend's own termination text (HiGHS status
    message, simplex limit note) so non-optimal outcomes stay explicable
    downstream.

    ``basis`` is the final ``(col_status, row_status)`` basis of the
    tree backend's collapsed model when the model asked for it
    (:attr:`repro.lp.TreeLpMeta.return_basis`); ``None`` otherwise and
    for every other backend.
    """

    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int
    backend: str
    duals: np.ndarray | None = None
    message: str | None = None
    basis: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    def require_optimal(self) -> "LpResult":
        """Return self or raise the matching error for a failed solve."""
        if self.status is LpStatus.OPTIMAL:
            return self
        detail = f": {self.message}" if self.message else ""
        if self.status is LpStatus.INFEASIBLE:
            raise InfeasibleError(
                f"LP infeasible (backend={self.backend}){detail}"
            )
        if self.status is LpStatus.UNBOUNDED:
            raise UnboundedError(
                f"LP unbounded (backend={self.backend}){detail}"
            )
        raise RuntimeError(f"LP solve failed (backend={self.backend}){detail}")
