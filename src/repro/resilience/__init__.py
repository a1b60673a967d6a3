"""Resilient solve pipeline: fallback chain, elastic diagnosis, faults.

Production routing runs sit inside larger timing-closure loops that must
degrade gracefully, not die on the first solver hiccup.  This package
hardens the LP -> embed pipeline in three layers:

* :func:`solve_lp_resilient` — a configurable backend cascade
  (simplex -> scipy/HiGHS -> tree by default) run on the caller's
  thread, with retry-on-numerical-error with input rescaling, result
  validation (NaN / infeasible "optimal" answers are rejected), and a
  structured :class:`SolveReport` of every attempt; hard time bounds
  come from killed pool workers (:mod:`repro.perf`), not the cascade;
* :func:`diagnose_infeasibility` — when the EBF is infeasible, one
  elastic solve of the collapsed tree LP names the conflicting sink
  bounds and the minimal relaxation per bound
  (:class:`InfeasibilityDiagnosis`), and hands back
  relaxed-but-embeddable bounds for graceful degradation;
* :mod:`repro.resilience.faults` — deterministic fault injection
  wrappers (exceptions, stalls, NaN solutions, wrong statuses) so the
  fallback and retry logic is exercisable in CI, not just in outages;
* :mod:`repro.resilience.breaker` — per-backend circuit breakers
  (closed / open / half-open) that stop paying for a backend that
  keeps failing, shared by ``solve_lp_resilient`` and the server;
* :mod:`repro.resilience.chaos` — a seeded chaos soak harness
  (:func:`run_chaos`) that abuses a live solve server with overload,
  worker kills, injected backend faults, and protocol garbage while
  asserting zero wrong answers, no hangs, and consistent counters.

Entry points upstack: ``solve_lubt(..., resilient=True,
on_infeasible="diagnose"|"relax")`` and the ``lubt solve --resilient
--diagnose`` CLI flags.  See docs/ROBUSTNESS.md.
"""

from repro.lp.result import BackendCapabilityError
from repro.resilience.breaker import (
    BreakerRegistry,
    CircuitBreaker,
    default_registry,
)
from repro.resilience.errors import AllBackendsFailedError, ResilienceError
from repro.resilience.report import AttemptOutcome, SolveAttempt, SolveReport
from repro.resilience.fallback import (
    DEFAULT_CHAIN,
    backend_chain,
    default_solvers,
    rescale_lp,
    solve_lp_resilient,
)
from repro.resilience.elastic import (
    InfeasibilityDiagnosis,
    SinkRelaxation,
    build_elastic_lp,
    diagnose_infeasibility,
)
from repro.resilience import faults
from repro.resilience.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.resilience.sanitize import (
    LockOrderError,
    LockOrderViolation,
    LockSanitizer,
    StallMonitor,
)

__all__ = [
    "AllBackendsFailedError",
    "AttemptOutcome",
    "BackendCapabilityError",
    "BreakerRegistry",
    "ChaosConfig",
    "ChaosReport",
    "CircuitBreaker",
    "DEFAULT_CHAIN",
    "InfeasibilityDiagnosis",
    "LockOrderError",
    "LockOrderViolation",
    "LockSanitizer",
    "ResilienceError",
    "SinkRelaxation",
    "SolveAttempt",
    "SolveReport",
    "StallMonitor",
    "backend_chain",
    "build_elastic_lp",
    "default_registry",
    "default_solvers",
    "diagnose_infeasibility",
    "faults",
    "rescale_lp",
    "run_chaos",
    "solve_lp_resilient",
]
