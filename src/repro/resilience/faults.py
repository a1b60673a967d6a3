"""Deterministic fault injection for the solve pipeline (test-only).

Production retry/fallback logic that is never exercised is broken logic
waiting to be discovered.  This module wraps any LP backend callable so
CI can make the first backend raise, stall, return NaN, or lie about its
status — deterministically, with no randomness and no monkeypatching —
and assert that :func:`~repro.resilience.solve_lp_resilient` still
produces the right answer via the fallback chain.

Usage::

    from repro.resilience import faults, solve_lp_resilient

    solvers = faults.faulty_solvers({
        "simplex": [faults.ExceptionFault("disk on fire")],
    })
    report = solve_lp_resilient(lp, ("simplex", "scipy"), solvers=solvers)
    assert report.result.is_optimal           # scipy saved the run
    assert report.attempts[0].outcome == "exception"

Fault schedules are positional: call ``k`` of the wrapped backend
consumes ``faults[k]``; ``None`` entries and calls past the end of the
schedule pass through to the real backend.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.lp.model import LinearProgram
from repro.lp.result import LpResult, LpStatus


@dataclass(frozen=True)
class ExceptionFault:
    """The backend raises instead of returning."""

    message: str = "injected backend exception"
    exc_type: type = RuntimeError


@dataclass(frozen=True)
class TimeoutFault:
    """The backend stalls for ``seconds`` before delegating — a slow
    solve.  The cascade waits it out on the caller's thread; only a pool
    worker's kill-on-timeout cuts such a stall short."""

    seconds: float = 0.2


@dataclass(frozen=True)
class NanSolutionFault:
    """The backend claims OPTIMAL but hands back an all-NaN vector —
    the classic silent numerical blow-up."""


@dataclass(frozen=True)
class WrongStatusFault:
    """The backend returns ``status`` without solving anything."""

    status: LpStatus = LpStatus.ERROR
    message: str = "injected wrong status"


Fault = ExceptionFault | TimeoutFault | NanSolutionFault | WrongStatusFault


class FaultyBackend:
    """Wrap ``inner`` with a positional fault schedule.

    Keeps ``calls`` and ``injected`` counters so tests can assert how
    often the pipeline actually knocked on this backend's door.
    """

    def __init__(
        self,
        inner: Callable[[LinearProgram], LpResult],
        faults: Iterable[Fault | None],
        name: str = "faulty",
    ) -> None:
        self.inner = inner
        self.faults = tuple(faults)
        self.name = name
        self.calls = 0
        self.injected: list[Fault] = []

    def __call__(self, lp: LinearProgram) -> LpResult:
        k = self.calls
        self.calls += 1
        fault = self.faults[k] if k < len(self.faults) else None
        if fault is None:
            return self.inner(lp)
        self.injected.append(fault)
        if isinstance(fault, ExceptionFault):
            raise fault.exc_type(fault.message)
        if isinstance(fault, TimeoutFault):
            time.sleep(fault.seconds)
            return self.inner(lp)
        if isinstance(fault, NanSolutionFault):
            return LpResult(
                LpStatus.OPTIMAL,
                np.full(lp.num_variables, np.nan),
                float("nan"),
                0,
                self.name,
                message="injected NaN solution",
            )
        if isinstance(fault, WrongStatusFault):
            return LpResult(
                fault.status, None, None, 0, self.name, message=fault.message
            )
        raise TypeError(f"unknown fault {fault!r}")


# ----------------------------------------------------------------------
# instance breakers (for exercising the static verification layer)
# ----------------------------------------------------------------------
def inject_nan_coefficient(lp: LinearProgram, row: int = 0, slot: int = 0) -> None:
    """Overwrite one stored coefficient of ``row`` with NaN, in place.

    Reaches into the model's columnar buffers deliberately — the public
    API refuses to build NaN rows, which is exactly why the checker needs
    a way to see one (``LP001``).
    """
    a, b = lp._row_ptr[row], lp._row_ptr[row + 1]
    if a == b:
        raise ValueError(f"row {row} has no coefficients to poison")
    if not (0 <= slot < b - a):
        raise ValueError(f"row {row} has {b - a} coefficients, no slot {slot}")
    lp._row_data[a + slot] = float("nan")
    lp._split_cache = None
    lp._residual_cache = None


def invert_bounds(bounds, sink: int, gap: float = 1.0):
    """A copy of ``bounds`` with sink ``sink``'s window inverted
    (``l_i = u_i + gap``), bypassing the constructor's validation —
    the ``BD002`` breakage no public path can produce."""
    from repro.ebf.bounds import DelayBounds

    lo = np.array(bounds.lower, dtype=float, copy=True)
    hi = np.array(bounds.upper, dtype=float, copy=True)
    lo[sink - 1] = hi[sink - 1] + float(gap)
    return DelayBounds.unchecked(lo, hi)


def cyclic_parents(parents, at: int, to: int | None = None) -> list:
    """A copy of a parents array with node ``at`` reparented into its own
    subtree (default: onto itself's child chain → a cycle), producing the
    ``TP001``/``TP003`` breakage ``Topology.__init__`` rejects."""
    broken = list(parents)
    if not (1 <= at < len(broken)):
        raise ValueError(f"node {at} out of range")
    if to is None:
        # Smallest cycle: make `at`'s parent point back to `at` through
        # any node that currently has `at` as parent, else self-cycle.
        kids = [i for i, p in enumerate(broken) if p == at]
        to = kids[0] if kids else at
    broken[at] = to
    return broken


def faulty_solvers(
    faults_by_backend: Mapping[str, Sequence[Fault | None]],
    base: Mapping[str, Callable[[LinearProgram], LpResult]] | None = None,
) -> dict[str, Callable[[LinearProgram], LpResult]]:
    """Solver map for ``solve_lp_resilient(..., solvers=...)`` with fault
    schedules wrapped around the named backends."""
    from repro.resilience.fallback import default_solvers

    solvers = dict(base if base is not None else default_solvers())
    for name, faults in faults_by_backend.items():
        if name not in solvers:
            raise ValueError(f"unknown backend {name!r}")
        solvers[name] = FaultyBackend(solvers[name], faults, name=name)
    return solvers
