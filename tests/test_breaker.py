"""Circuit breakers: state machine, registry, and solve integration."""

import numpy as np

from repro.ebf import DelayBounds, solve_lubt
from repro.ebf.bounds import radius_of
from repro.ebf.solver import TREE_MIN_SINKS
from repro.geometry import Point
from repro.lp.simplex import solve_simplex
from repro.resilience import (
    AttemptOutcome,
    BreakerRegistry,
    CircuitBreaker,
    default_registry,
    solve_lp_resilient,
)
from repro.resilience.faults import ExceptionFault, FaultyBackend
from repro.resilience.fallback import backend_chain
from repro.topology import nearest_neighbor_topology


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def trip(breaker):
    """Three failures in a row: the production threshold."""
    for _ in range(3):
        breaker.record_failure()


def small_instance(sinks=TREE_MIN_SINKS - 1, seed=5):
    """Below ``TREE_MIN_SINKS`` a resilient ``auto`` solve runs the lazy
    loop, whose cascade starts on simplex."""
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 60, (sinks, 2))]
    topo = nearest_neighbor_topology(pts, Point(30.0, 30.0))
    r = radius_of(topo)
    return topo, DelayBounds.uniform(sinks, 0.8 * r, 1.3 * r)


class TestCircuitBreaker:
    """The closed -> open -> half-open -> closed state machine, driven
    by a fake clock so every transition is deterministic."""

    def test_starts_closed_and_allows(self):
        b = CircuitBreaker("x", clock=FakeClock())
        assert b.state == "closed"
        assert b.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        b = CircuitBreaker("x", clock=FakeClock())
        b.record_failure()
        b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()

    def test_success_resets_the_streak(self):
        b = CircuitBreaker("x", clock=FakeClock())
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"  # streak restarted after the success

    def test_half_open_after_recovery_allows_one_probe(self):
        clock = FakeClock()
        b = CircuitBreaker("x", clock=clock)
        trip(b)
        assert not b.allow()
        clock.advance(29.5)
        assert not b.allow()  # the 30 s recovery window is still open
        clock.advance(1.0)
        assert b.allow()  # the single half-open probe
        assert b.state == "half-open"
        assert not b.allow()  # second caller inside the window is refused

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        b = CircuitBreaker("x", clock=clock)
        trip(b)
        clock.advance(31.0)
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.snapshot()["opens"] == 2

    def test_successful_probe_closes(self):
        clock = FakeClock()
        b = CircuitBreaker("x", clock=clock)
        trip(b)
        clock.advance(31.0)
        assert b.allow()
        b.record_success()
        assert b.state == "closed"
        assert b.allow()

    def test_snapshot_counts(self):
        clock = FakeClock()
        b = CircuitBreaker("x", clock=clock)
        trip(b)
        b.allow()  # refused -> skip
        clock.advance(31.0)
        b.allow()  # probe
        snap = b.snapshot()
        assert snap["state"] == "half-open"
        assert snap["opens"] == 1
        assert snap["probes"] == 1
        assert snap["skips"] == 1


class TestBreakerRegistry:
    def test_lazy_per_name_breakers(self):
        reg = BreakerRegistry(clock=FakeClock())
        assert reg.allow("a") and reg.allow("b")
        for _ in range(3):
            reg.record("a", False)
        assert not reg.allow("a")
        assert reg.allow("b")  # independent breaker
        assert reg.states() == {"a": "open", "b": "closed"}

    def test_reset(self):
        reg = BreakerRegistry(clock=FakeClock())
        for _ in range(3):
            reg.record("a", False)
        assert not reg.allow("a")
        reg.reset()
        assert reg.allow("a")

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()


def _lp():
    """min x  s.t.  x >= 2  -> optimum 2."""
    from repro.lp.model import LinearProgram, Sense

    lp = LinearProgram()
    x = lp.add_variable("x", cost=1.0)
    lp.add_constraint({x: 1.0}, Sense.GE, 2.0)
    return lp


class TestSolveIntegration:
    """Breakers consulted by the resilient cascade: skip-open backends,
    record outcomes, surface state in the SolveReport."""

    def test_open_breaker_is_skipped_without_paying_the_failure(self):
        clock = FakeClock()
        reg = BreakerRegistry(clock=clock)
        faulty = FaultyBackend(solve_simplex, [ExceptionFault()] * 4,
                               name="simplex")
        solvers = {"simplex": faulty}
        lp = _lp()
        chain = backend_chain(lp)

        # Two failing solves (an attempt and its rescaled retry each)
        # open the simplex breaker...
        for _ in range(2):
            report = solve_lp_resilient(
                lp, chain, solvers=solvers, breakers=reg
            )
            assert report.result.is_optimal  # scipy fallback answered
        assert reg.states()["simplex"] == "open"
        calls_when_opened = faulty.calls

        # ...after which simplex is not even attempted.
        report = solve_lp_resilient(
            lp, chain, solvers=solvers, breakers=reg
        )
        assert report.result.is_optimal
        assert faulty.calls == calls_when_opened
        skipped = [a for a in report.attempts
                   if a.outcome == AttemptOutcome.SKIPPED]
        assert [a.backend for a in skipped] == ["simplex"]
        assert report.breaker_states["simplex"] == "open"

    def test_recovered_backend_closes_via_probe(self):
        clock = FakeClock()
        reg = BreakerRegistry(clock=clock)
        # Four faults over two solves: every attempt AND its rescale
        # retry must fail, or a retry's success resets the streak before
        # the breaker opens at the third failure.
        faulty = FaultyBackend(solve_simplex, [ExceptionFault()] * 4,
                               name="simplex")
        solvers = {"simplex": faulty}
        lp = _lp()
        chain = backend_chain(lp)

        solve_lp_resilient(lp, chain, solvers=solvers, breakers=reg)
        assert reg.states()["simplex"] == "closed"
        solve_lp_resilient(lp, chain, solvers=solvers, breakers=reg)
        assert reg.states()["simplex"] == "open"
        clock.advance(31.0)  # schedule exhausted: the probe will succeed
        report = solve_lp_resilient(
            lp, chain, solvers=solvers, breakers=reg
        )
        assert report.result.is_optimal
        assert report.attempts[0].backend == "simplex"
        assert reg.states()["simplex"] == "closed"

    def test_solve_lubt_stamps_breaker_states(self):
        topo, bounds = small_instance()
        reg = BreakerRegistry(clock=FakeClock())
        sol = solve_lubt(topo, bounds, resilient=True, breakers=reg)
        assert sol.solve_reports
        for report in sol.solve_reports:
            assert report.breaker_states.get("simplex") == "closed"

    def test_faulty_backend_opens_breaker_visible_in_report(self):
        topo, bounds = small_instance()
        reg = BreakerRegistry(clock=FakeClock())
        solvers = {
            "simplex": FaultyBackend(
                solve_simplex, [ExceptionFault()] * 50, name="simplex"
            )
        }
        sol = solve_lubt(
            topo, bounds, resilient=True, breakers=reg, solvers=solvers
        )
        states = [r.breaker_states.get("simplex")
                  for r in sol.solve_reports]
        assert states[-1] == "open"
        assert reg.snapshot()["simplex"]["opens"] >= 1
        # Any further solve through the same registry skips the dead
        # backend outright instead of paying its failure again.
        lp = _lp()
        report = solve_lp_resilient(
            lp, backend_chain(lp), solvers=solvers, breakers=reg
        )
        assert report.result.is_optimal
        assert report.attempts[0].backend == "simplex"
        assert report.attempts[0].outcome == AttemptOutcome.SKIPPED
        assert reg.snapshot()["simplex"]["skips"] >= 1
