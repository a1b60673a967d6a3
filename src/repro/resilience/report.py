"""Structured records of what the resilient solve pipeline actually did.

Every backend invocation — including ones that crashed or returned
garbage — becomes one :class:`SolveAttempt`; the whole cascade
becomes a :class:`SolveReport`.  These are plain data so they can be
logged, asserted on in CI, or rendered in the CLI without re-running
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lp.result import LpResult


class AttemptOutcome:
    """String constants for :attr:`SolveAttempt.outcome`.

    The first three mirror terminal :class:`~repro.lp.LpStatus` values;
    the rest are pipeline-level failure modes the raw backends cannot
    express.
    """

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"  # backend returned LpStatus.ERROR
    EXCEPTION = "exception"  # backend raised
    INVALID = "invalid-solution"  # "optimal" with NaN/infeasible x
    SKIPPED = "skipped"  # circuit breaker open; backend never invoked

    #: Outcomes that settle the model's fate — no further attempts needed.
    TERMINAL = frozenset({OPTIMAL, INFEASIBLE, UNBOUNDED})
    #: Outcomes a circuit breaker counts against the backend.  Definitive
    #: answers prove the backend works (the model's feasibility is not its
    #: fault); SKIPPED attempts never ran, so they count neither way.
    BREAKER_FAILURES = frozenset({ERROR, EXCEPTION, INVALID})


@dataclass(frozen=True)
class SolveAttempt:
    """One backend invocation inside a resilient solve."""

    backend: str
    outcome: str
    wall_seconds: float
    rescaled: bool = False
    error: str | None = None
    iterations: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome in AttemptOutcome.TERMINAL

    def describe(self) -> str:
        tag = f"{self.backend}{' (rescaled)' if self.rescaled else ''}"
        note = f" — {self.error}" if self.error else ""
        return f"{tag}: {self.outcome} in {self.wall_seconds:.3f}s{note}"


@dataclass
class SolveReport:
    """The full history of one resilient LP solve.

    ``result`` is the terminal :class:`LpResult` (optimal, infeasible, or
    unbounded — all three are definitive answers about the model), or
    ``None`` when every backend in the chain failed.

    ``breaker_states`` records the per-backend circuit-breaker state
    (``closed`` / ``open`` / ``half-open``) *after* this solve, when a
    :class:`~repro.resilience.breaker.BreakerRegistry` was consulted —
    an ``open`` entry explains any ``skipped`` attempts above it.
    """

    attempts: list[SolveAttempt] = field(default_factory=list)
    result: LpResult | None = None
    #: Circuit-breaker state per backend after this solve (when a
    #: registry was consulted; empty otherwise).
    breaker_states: dict = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """True when the chain reached a definitive result."""
        return self.result is not None

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def backends_tried(self) -> tuple[str, ...]:
        seen: list[str] = []
        for a in self.attempts:
            if a.backend not in seen:
                seen.append(a.backend)
        return tuple(seen)

    @property
    def fallbacks_used(self) -> int:
        """Attempts beyond the first (retries and backend switches)."""
        return max(0, len(self.attempts) - 1)

    def summary(self) -> str:
        lines = [a.describe() for a in self.attempts]
        if self.result is None:
            lines.append("=> all backends failed")
        else:
            lines.append(
                f"=> {self.result.status.value} via {self.result.backend}"
            )
        if self.breaker_states:
            lines.append(
                "   breakers: "
                + ", ".join(
                    f"{name}={state}"
                    for name, state in sorted(self.breaker_states.items())
                )
            )
        return "\n".join(lines)
