"""Backend fallback chain: a sequential cascade with rescale retry.

One solver hiccup must not kill a routing run.  :func:`solve_lp_resilient`
tries a configurable cascade of LP backends, one attempt at a time; each
attempt is validated (an "optimal" result with NaN entries or an
infeasible ``x`` counts as a failure, not a success) and recorded in a
:class:`~repro.resilience.SolveReport`.  Numerical failures earn one
same-backend retry on a rescaled copy of the model before falling through
to the next backend.

Every attempt runs inline on the caller's thread, so nothing is left
running when the cascade returns.  The cascade has no clock of its own: a
hard wall-clock bound comes from running the solve in a pool worker that
is killed when it overruns (``solve_many(..., timeout=)``, ``lubt cts
--timeout``, the server's ``--solve-timeout`` and request ``deadline``).
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.lp.model import LinearProgram
from repro.lp.result import BackendCapabilityError, LpResult, LpStatus
from repro.lp.solve import preferred_backend
from repro.resilience.breaker import BreakerRegistry
from repro.resilience.errors import AllBackendsFailedError
from repro.resilience.report import AttemptOutcome, SolveAttempt, SolveReport

Backend = Callable[[LinearProgram], LpResult]

#: Default cascade order; :func:`backend_chain` rotates the preferred
#: backend to the front per model.  The ``tree`` backend rides last: it
#: declines non-tree-stamped models instantly with
#: :class:`BackendCapabilityError` (a clean fall-through that never
#: counts against its circuit breaker), and gives EBF-built models a
#: structure-aware last resort when the generic backends fail.
DEFAULT_CHAIN = ("simplex", "scipy", "tree")

#: Row feasibility tolerance of an "optimal" answer, per unit of
#: ``1 + max |rhs|`` (see :func:`solve_lp_resilient`).
FEASIBILITY_TOL = 1e-6

_STATUS_TO_OUTCOME = {
    LpStatus.OPTIMAL: AttemptOutcome.OPTIMAL,
    LpStatus.INFEASIBLE: AttemptOutcome.INFEASIBLE,
    LpStatus.UNBOUNDED: AttemptOutcome.UNBOUNDED,
    LpStatus.ERROR: AttemptOutcome.ERROR,
}


def default_solvers() -> dict[str, Backend]:
    """Name -> callable map of the real backends."""
    from repro.lp.scipy_backend import solve_scipy
    from repro.lp.simplex import solve_simplex
    from repro.lp.treesolve import solve_tree

    return {"simplex": solve_simplex, "scipy": solve_scipy, "tree": solve_tree}


def backend_chain(lp: LinearProgram, backend: str = "auto") -> tuple[str, ...]:
    """Cascade order for ``lp``: the requested (or, for ``"auto"``, the
    size/capability-preferred) backend first, every other default backend
    after it."""
    first = preferred_backend(lp) if backend == "auto" else backend
    return (first, *(b for b in DEFAULT_CHAIN if b != first))


def rescale_lp(lp: LinearProgram) -> tuple[LinearProgram, float]:
    """Copy ``lp`` with rhs and variable bounds divided by the model's
    magnitude ``s`` (so numbers are O(1)); returns ``(scaled, s)`` with
    ``x_original = s * x_scaled``.

    A tree-stamped model's sink coordinates and delay windows count
    toward ``s`` and are divided by it in the copy's stamp, so the tree
    backend solves the scaled model too: the row-less model of the
    direct tree path keeps all its numbers there.  Costs are left
    untouched — scaling every column by the same factor preserves the
    argmin, and callers recompute the objective on the unscaled
    solution.
    """
    meta = lp.tree_meta
    parts = [lp.rhs, lp.lower_bounds, lp.upper_bounds]
    if meta is not None:
        parts += [meta.su, meta.sv, meta.lower, meta.upper]
    mags = np.abs(np.concatenate(parts))
    s = float(mags[np.isfinite(mags)].max(initial=0.0)) or 1.0
    scaled = lp.scaled(s)
    if meta is not None:
        scaled.tree_meta = dataclasses.replace(
            meta, su=meta.su / s, sv=meta.sv / s,
            lower=meta.lower / s, upper=meta.upper / s,
            source_uv=None if meta.source_uv is None else meta.source_uv / s,
        )
    return scaled, s


def _unscale_result(raw: LpResult, s: float, lp: LinearProgram) -> LpResult:
    """Map a result on the rescaled model back to original units.

    Duals are dropped rather than risk a unit mix-up; resilient rescale
    retries are a salvage path, not the dual-reading path.  A basis
    holds statuses only, so it is kept.
    """
    if raw.status is not LpStatus.OPTIMAL or raw.x is None:
        return LpResult(
            raw.status, None, None, raw.iterations, raw.backend,
            message=raw.message,
        )
    x = np.asarray(raw.x, dtype=float) * s
    return LpResult(
        LpStatus.OPTIMAL,
        x,
        lp.objective_value(x),
        raw.iterations,
        raw.backend,
        duals=None,
        message=raw.message,
        basis=raw.basis,
    )


def _breaker_record(
    breakers: BreakerRegistry | None, name: str, outcome: str
) -> None:
    """Feed one attempt's verdict to the backend's breaker.

    Definitive answers close/heal; pipeline failures count against the
    backend; SKIPPED attempts never ran and count neither way.
    Capability errors are handled by the caller (they are permanent facts
    about model shape, not backend health — see ``solve_lp_resilient``).
    """
    if breakers is None:
        return
    if outcome in AttemptOutcome.TERMINAL:
        breakers.record(name, True)
    elif outcome in AttemptOutcome.BREAKER_FAILURES:
        breakers.record(name, False)


def _validated_outcome(
    lp: LinearProgram, result: LpResult, feas_tol: float
) -> str:
    """Classify a backend's return, distrusting "optimal" claims: the
    solution must be finite and actually feasible for the model."""
    outcome = _STATUS_TO_OUTCOME.get(result.status, AttemptOutcome.ERROR)
    if outcome is not AttemptOutcome.OPTIMAL:
        return outcome
    x = result.x
    if (
        x is None
        or len(x) != lp.num_variables
        or not np.all(np.isfinite(x))
        or result.objective is None
        or not math.isfinite(result.objective)
    ):
        return AttemptOutcome.INVALID
    if not lp.is_feasible(np.asarray(x, dtype=float), tol=feas_tol):
        return AttemptOutcome.INVALID
    return AttemptOutcome.OPTIMAL


def solve_lp_resilient(
    lp: LinearProgram,
    backends: Sequence[str] | None = None,
    *,
    solvers: Mapping[str, Backend] | None = None,
    breakers: BreakerRegistry | None = None,
) -> SolveReport:
    """Solve ``lp`` through a backend cascade; never die on one backend.

    Attempts run one after another on the caller's thread; a stalled
    backend is waited out, not abandoned (see the module docstring for
    where hard time bounds come from).  A numerical failure (``ERROR``
    status, invalid "optimal" solution, or a backend exception other
    than :class:`BackendCapabilityError`) earns one retry of the same
    backend on a unit-magnitude rescaled copy (:func:`rescale_lp`)
    before the cascade falls through.  An INFEASIBLE or UNBOUNDED
    verdict is as terminal as an OPTIMAL one.

    Parameters
    ----------
    backends:
        Cascade order by name; default :func:`backend_chain` (preferred
        backend first).
    solvers:
        Overrides/extensions of :func:`default_solvers` — this is the
        seam the fault-injection harness uses.
    breakers:
        Optional :class:`~repro.resilience.breaker.BreakerRegistry`.
        When given, an open-circuited backend is skipped outright (a
        ``SKIPPED`` attempt in the report — no failing call paid for),
        every real attempt feeds its verdict back to the backend's
        breaker, and the registry's post-solve states are stamped on
        ``report.breaker_states``.  :class:`BackendCapabilityError`
        attempts are *not* counted against a breaker: a capability gap
        is a permanent fact about the model's shape, not backend health.

    Returns the :class:`SolveReport`; ``report.result`` is the terminal
    :class:`LpResult`.  Raises :class:`AllBackendsFailedError`, carrying
    the report, when no backend reached a terminal verdict.  Feasibility
    validation uses :data:`FEASIBILITY_TOL` scaled by ``1 +`` the
    model's largest rhs magnitude.
    """
    solver_map = dict(default_solvers())
    if solvers:
        solver_map.update(solvers)
    chain = tuple(backends) if backends is not None else backend_chain(lp)
    unknown = [b for b in chain if b not in solver_map]
    if unknown:
        raise ValueError(f"unknown LP backends in chain: {unknown}")

    rhs_mag = float(np.abs(lp.rhs).max(initial=0.0))
    feas_tol = FEASIBILITY_TOL * (1.0 + rhs_mag)

    report = SolveReport()
    scaled_pair: tuple[LinearProgram, float] | None = None

    for name in chain:
        if breakers is not None and not breakers.allow(name):
            report.attempts.append(SolveAttempt(
                name, AttemptOutcome.SKIPPED, 0.0,
                error="circuit breaker open — backend not attempted",
            ))
            continue
        for rescaled in (False, True):
            if rescaled:
                if scaled_pair is None:
                    scaled_pair = rescale_lp(lp)
                model, s = scaled_pair
            else:
                model, s = lp, 1.0
            start = time.perf_counter()
            try:
                raw = solver_map[name](model)
            except BackendCapabilityError as exc:
                report.attempts.append(SolveAttempt(
                    name, AttemptOutcome.EXCEPTION,
                    time.perf_counter() - start, rescaled, error=str(exc),
                ))
                break  # capability gaps are permanent for this backend
            except Exception as exc:  # resilience boundary
                report.attempts.append(SolveAttempt(
                    name, AttemptOutcome.EXCEPTION,
                    time.perf_counter() - start, rescaled,
                    error=f"{type(exc).__name__}: {exc}",
                ))
                _breaker_record(breakers, name, AttemptOutcome.EXCEPTION)
                continue
            elapsed = time.perf_counter() - start
            result = _unscale_result(raw, s, lp) if rescaled else raw
            outcome = _validated_outcome(lp, result, feas_tol)
            report.attempts.append(SolveAttempt(
                name, outcome, elapsed, rescaled,
                error=result.message
                if outcome not in (AttemptOutcome.OPTIMAL,)
                else None,
                iterations=result.iterations,
            ))
            _breaker_record(breakers, name, outcome)
            if outcome in AttemptOutcome.TERMINAL:
                report.result = result
                if breakers is not None:
                    report.breaker_states = breakers.states()
                return report
            # Every other outcome (ERROR, INVALID) is numerical, like a
            # crash: the rescaled retry runs next, once.

    if breakers is not None:
        report.breaker_states = breakers.states()
    raise AllBackendsFailedError(report)
