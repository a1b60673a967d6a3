"""Per-backend circuit breakers for the resilient solve pipeline.

A backend that keeps failing (crashing, returning garbage) should stop
being *tried*: every attempt against it costs the wall clock of a
failing call plus its rescaled retry, and under load that latency
multiplies across every queued request.  A :class:`CircuitBreaker`
watches one backend's consecutive failures and trips **open** after
:data:`DEFAULT_FAILURE_THRESHOLD` of them; while open,
:func:`~repro.resilience.solve_lp_resilient` skips the backend outright
(recording a ``skipped`` :class:`~repro.resilience.SolveAttempt` so the
report says why).  After :data:`DEFAULT_RECOVERY_TIME` seconds the
breaker lets exactly one **half-open probe** through: a success closes
the circuit, a failure re-opens it for another recovery window.  Both
are module constants, not options.

Design notes:

* *Definitive* answers (optimal / infeasible / unbounded) count as
  successes — they prove the backend works; the model's feasibility is
  not the backend's fault.  Failures are exceptions, ``ERROR``
  statuses, and invalid "optimal" solutions.
* The clock is injectable (``clock=``) so recovery windows are testable
  without sleeping.
* A :class:`BreakerRegistry` holds one breaker per backend name behind
  one lock — the same registry object can be shared by every solve in a
  server process, which is what turns "this backend failed for client A"
  into "client B never pays for it".
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict

#: Breaker states (string constants, stable for stats payloads).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive failures that trip a breaker open.
DEFAULT_FAILURE_THRESHOLD = 3
#: Seconds an open breaker waits before allowing a half-open probe.
DEFAULT_RECOVERY_TIME = 30.0


class CircuitBreaker:
    """Failure tracker for one backend (not thread-safe on its own; the
    :class:`BreakerRegistry` serializes access)."""

    __slots__ = (
        "name",
        "_clock",
        "state",
        "consecutive_failures",
        "opened_at",
        "opens",
        "probes",
        "skips",
    )

    def __init__(
        self, name: str, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self.name = name
        self._clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        #: Times this breaker tripped open (cumulative, for stats).
        self.opens = 0
        #: Half-open probes allowed through.
        self.probes = 0
        #: Attempts refused while open.
        self.skips = 0

    def allow(self) -> bool:
        """May the backend be tried right now?

        CLOSED always allows.  OPEN allows once the recovery window has
        elapsed — transitioning to HALF_OPEN and admitting exactly one
        probe; further calls while the probe is outstanding are refused.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            assert self.opened_at is not None
            if self._clock() - self.opened_at >= DEFAULT_RECOVERY_TIME:
                self.state = HALF_OPEN
                self.probes += 1
                return True
            self.skips += 1
            return False
        # HALF_OPEN: one probe is already in flight; hold the line until
        # its verdict arrives.
        self.skips += 1
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = CLOSED
        self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.state == HALF_OPEN
            or self.consecutive_failures >= DEFAULT_FAILURE_THRESHOLD
        ):
            # A failed probe re-opens immediately; a closed breaker trips
            # once the consecutive-failure threshold is met.
            if self.state != OPEN:
                self.opens += 1
            self.state = OPEN
            self.opened_at = self._clock()

    def snapshot(self) -> dict:
        """JSON-ready state record for stats/telemetry."""
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "opens": self.opens,
            "probes": self.probes,
            "skips": self.skips,
        }


class BreakerRegistry:
    """One :class:`CircuitBreaker` per backend name, behind one lock.

    Breakers are created lazily on first :meth:`allow`/:meth:`record`,
    so :meth:`snapshot` only lists backends that were actually consulted.
    """

    def __init__(
        self, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        self._clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def _get(self, name: str) -> CircuitBreaker:
        # Helper-under-lock: every caller below holds self._lock, which
        # the per-file CC002 inference cannot see across methods.
        br = self._breakers.get(name)
        if br is None:
            br = CircuitBreaker(name, clock=self._clock)
            self._breakers[name] = br  # noqa: CC002 — callers hold _lock
        return br

    def allow(self, name: str) -> bool:
        with self._lock:
            return self._get(name).allow()

    def record(self, name: str, ok: bool) -> None:
        with self._lock:
            br = self._get(name)
            if ok:
                br.record_success()
            else:
                br.record_failure()

    def state(self, name: str) -> str:
        with self._lock:
            br = self._breakers.get(name)
            return br.state if br is not None else CLOSED

    def states(self) -> dict[str, str]:
        """``{backend: state}`` for every consulted backend."""
        with self._lock:
            return {n: b.state for n, b in self._breakers.items()}

    def snapshot(self) -> dict[str, dict]:
        """Full JSON-ready per-backend records (the server ``stats`` op)."""
        with self._lock:
            return {n: b.snapshot() for n, b in self._breakers.items()}

    def reset(self) -> None:
        """Forget all breaker state (tests and operator intervention)."""
        with self._lock:
            self._breakers.clear()


_default_registry: BreakerRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> BreakerRegistry:
    """The process-wide registry.

    Pool workers are resident processes that outlive single requests, so
    a module-level registry gives each worker cross-request protection
    even though the parent cannot hand its own (unpicklable) registry
    across the pipe.
    """
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = BreakerRegistry()
        return _default_registry
