"""The backend fallback chain under injected faults.

With injected failures on the first backend (exception, NaN-solution and
wrong-status faults), ``solve_lp_resilient`` still returns an optimal
result via the fallback backend, and the ``SolveReport`` records every
attempt.  A stalled backend is waited out on the caller's thread: the
cascade starts no threads, so none outlive a solve.
"""

import threading

import numpy as np
import pytest

from repro.lp import LinearProgram, LpStatus, Sense
from repro.resilience import (
    AllBackendsFailedError,
    AttemptOutcome,
    SolveReport,
    backend_chain,
    default_solvers,
    faults,
    rescale_lp,
    solve_lp_resilient,
)


def small_lp() -> LinearProgram:
    """min x + y  s.t.  x + y >= 2, y <= 5  -> optimum 2."""
    lp = LinearProgram()
    x = lp.add_variable("x", cost=1.0)
    y = lp.add_variable("y", cost=1.0, ub=5.0)
    lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 2.0)
    return lp


def infeasible_lp() -> LinearProgram:
    lp = LinearProgram()
    x = lp.add_variable("x", cost=1.0)
    lp.add_constraint({x: 1.0}, Sense.GE, 2.0)
    lp.add_constraint({x: 1.0}, Sense.LE, 1.0)
    return lp


class TestHappyPath:
    def test_single_attempt_when_first_backend_works(self):
        report = solve_lp_resilient(small_lp())
        assert report.succeeded
        assert report.num_attempts == 1
        assert report.result.objective == pytest.approx(2.0)
        assert report.attempts[0].outcome == AttemptOutcome.OPTIMAL
        assert report.attempts[0].wall_seconds >= 0.0

    def test_infeasible_is_definitive_not_a_failure(self):
        report = solve_lp_resilient(infeasible_lp())
        assert report.succeeded
        assert report.result.status is LpStatus.INFEASIBLE
        assert report.num_attempts == 1

    def test_backend_chain_prefers_by_size_and_capability(self):
        assert backend_chain(small_lp()) == ("simplex", "scipy", "tree")
        assert backend_chain(small_lp(), "scipy") == (
            "scipy", "simplex", "tree"
        )
        assert backend_chain(small_lp(), "tree")[0] == "tree"
        free = LinearProgram()
        free.add_variable("x", cost=1.0, lb=-np.inf)
        assert backend_chain(free)[0] == "scipy"


class TestInjectedFaults:
    """One scenario per fault class; every attempt must be on the record."""

    def test_exception_fault_falls_through(self):
        # Two faults: the raw attempt and its rescaled retry both crash.
        solvers = faults.faulty_solvers(
            {"simplex": [faults.ExceptionFault("injected crash")] * 2}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"), solvers=solvers
        )
        assert report.result.is_optimal
        assert report.result.objective == pytest.approx(2.0)
        assert report.result.backend == "scipy-highs"
        assert [(a.outcome, a.rescaled) for a in report.attempts] == [
            (AttemptOutcome.EXCEPTION, False),
            (AttemptOutcome.EXCEPTION, True),
            (AttemptOutcome.OPTIMAL, False),
        ]
        assert "injected crash" in report.attempts[0].error

    def test_timeout_fault_stall_is_waited_out_inline(self):
        stall = 0.2
        solvers = faults.faulty_solvers(
            {"simplex": [faults.TimeoutFault(seconds=stall)]}
        )
        threads = threading.active_count()
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"), solvers=solvers
        )
        assert threading.active_count() == threads
        assert report.result.is_optimal
        assert report.result.backend == "simplex"
        assert [a.outcome for a in report.attempts] == [
            AttemptOutcome.OPTIMAL
        ]
        assert report.attempts[0].wall_seconds >= stall

    def test_nan_solution_fault_rejected_and_recovered(self):
        solvers = faults.faulty_solvers(
            {"simplex": [faults.NanSolutionFault()]}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"), solvers=solvers
        )
        assert report.result.is_optimal
        assert np.all(np.isfinite(report.result.x))
        assert report.attempts[0].outcome == AttemptOutcome.INVALID

    def test_wrong_status_fault_retried_then_recovered(self):
        solvers = faults.faulty_solvers(
            {"simplex": [
                faults.WrongStatusFault(LpStatus.ERROR),
                faults.WrongStatusFault(LpStatus.ERROR),
            ]}
        )
        report = solve_lp_resilient(
            small_lp(), ("simplex", "scipy"), solvers=solvers
        )
        assert report.result.is_optimal
        # error -> rescaled retry on simplex -> fallback to scipy
        assert [(a.outcome, a.rescaled) for a in report.attempts] == [
            (AttemptOutcome.ERROR, False),
            (AttemptOutcome.ERROR, True),
            (AttemptOutcome.OPTIMAL, False),
        ]
        assert report.fallbacks_used == 2

    def test_every_fault_class_at_once(self):
        """Acceptance scenario: first backend exhausts its whole fault
        repertoire across successive LPs; the chain never fails."""
        classes = [
            (faults.ExceptionFault(), AttemptOutcome.EXCEPTION),
            (faults.NanSolutionFault(), AttemptOutcome.INVALID),
            (faults.WrongStatusFault(LpStatus.ERROR), AttemptOutcome.ERROR),
        ]
        # Each fault twice: the raw attempt and its rescaled retry.
        schedule = [fault for fault, _ in classes for _ in range(2)]
        wrapped = faults.FaultyBackend(
            default_solvers()["simplex"], schedule, name="simplex"
        )
        for _, outcome in classes:
            report = solve_lp_resilient(
                small_lp(), ("simplex", "scipy"),
                solvers={"simplex": wrapped},
            )
            assert report.result.is_optimal
            assert report.result.objective == pytest.approx(2.0)
            assert [(a.outcome, a.rescaled) for a in report.attempts] == [
                (outcome, False),
                (outcome, True),
                (AttemptOutcome.OPTIMAL, False),
            ]
        assert wrapped.calls == len(schedule)
        assert len(wrapped.injected) == len(schedule)


class TestTotalFailure:
    def test_all_backends_down_raises_with_report(self):
        # Two faults per backend: each attempt and its rescaled retry.
        solvers = faults.faulty_solvers({
            "simplex": [faults.ExceptionFault("s down")] * 2,
            "scipy": [faults.ExceptionFault("h down")] * 2,
        })
        with pytest.raises(AllBackendsFailedError) as exc_info:
            solve_lp_resilient(
                small_lp(), ("simplex", "scipy"), solvers=solvers
            )
        report = exc_info.value.report
        assert isinstance(report, SolveReport)
        assert not report.succeeded
        assert report.backends_tried == ("simplex", "scipy")
        assert [(a.backend, a.outcome, a.rescaled)
                for a in report.attempts] == [
            ("simplex", AttemptOutcome.EXCEPTION, False),
            ("simplex", AttemptOutcome.EXCEPTION, True),
            ("scipy", AttemptOutcome.EXCEPTION, False),
            ("scipy", AttemptOutcome.EXCEPTION, True),
        ]
        assert "s down" in report.summary() and "h down" in report.summary()

    def test_unknown_backend_name_rejected(self):
        with pytest.raises(ValueError, match="unknown LP backends"):
            solve_lp_resilient(small_lp(), ("loqo",))


class TestRescaling:
    def test_rescale_roundtrip_preserves_optimum(self):
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0, ub=1e8)
        y = lp.add_variable("y", cost=2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 3e7, name="big")
        scaled, s = rescale_lp(lp)
        assert s == pytest.approx(1e8)
        assert scaled.row(0)[2] == pytest.approx(0.3)
        from repro.lp import solve_lp

        res = solve_lp(scaled, "simplex").require_optimal()
        x_orig = np.asarray(res.x) * s
        assert lp.objective_value(x_orig) == pytest.approx(3e7)
        assert lp.is_feasible(x_orig, tol=1.0)

    def test_mixed_sense_rows_keep_their_structure(self):
        """min x + 2y - z  s.t.  x + y >= 3e6, x - z <= -1e6,
        y + z == 6e6 over boxed columns -> optimum -2.998e6."""
        from repro.lp import solve_lp

        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0, ub=4e6)
        y = lp.add_variable("y", cost=2.0, lb=1e3)
        z = lp.add_variable("z", cost=-1.0, ub=8e6)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 3e6, name="ge")
        lp.add_constraint({x: 1.0, z: -1.0}, Sense.LE, -1e6, name="le")
        lp.add_constraint({y: 1.0, z: 1.0}, Sense.EQ, 6e6, name="eq")
        scaled, s = rescale_lp(lp)
        assert s == 8e6
        assert scaled.num_constraints == 3
        for i in range(3):
            coeffs, sense, rhs = lp.row(i)
            assert scaled.row(i) == (coeffs, sense, rhs / s)
            assert scaled.row_name(i) == lp.row_name(i)
        assert np.array_equal(scaled.lower_bounds, lp.lower_bounds / s)
        assert np.array_equal(scaled.upper_bounds, lp.upper_bounds / s)
        assert np.array_equal(scaled.costs, lp.costs)
        assert [scaled.variable_name(j) for j in range(3)] == ["x", "y", "z"]
        assert scaled.tree_meta is None

        res = solve_lp(scaled, "scipy").require_optimal()
        x_orig = np.asarray(res.x) * s
        assert lp.objective_value(x_orig) == pytest.approx(-2.998e6)
        assert lp.is_feasible(x_orig, tol=1e-6 * s)
        # A copy, not a view: a row added to the original stays there.
        lp.add_constraint({x: 1.0}, Sense.LE, 1e6)
        assert scaled.num_constraints == 3

    def test_stamped_row_less_model_scales_by_its_stamp(self):
        from repro.data import synth_instance
        from repro.ebf.formulation import build_tree_lp
        from repro.ebf.sweep import canonical_cost
        from repro.lp import solve_tree

        topo, bounds = synth_instance(64, 5)
        lp = build_tree_lp(topo, bounds)
        meta = lp.tree_meta
        assert lp.num_constraints == 0
        scaled, s = rescale_lp(lp)
        stamp = np.concatenate([meta.su, meta.sv, meta.lower, meta.upper])
        assert s == np.abs(stamp[np.isfinite(stamp)]).max() > 1.0
        for name in ("su", "sv", "lower", "upper"):
            assert np.array_equal(
                getattr(scaled.tree_meta, name), getattr(meta, name) / s
            )
        res = solve_tree(scaled)
        assert canonical_cost(lp.objective_value(res.x * s)) == canonical_cost(
            solve_tree(lp).objective
        )

    def test_rescaled_attempt_flagged_in_report(self):
        solvers = faults.faulty_solvers(
            {"simplex": [faults.ExceptionFault("numeric blowup")]}
        )
        report = solve_lp_resilient(small_lp(), ("simplex",), solvers=solvers)
        # first raw attempt raises; rescaled retry passes through and wins
        assert report.result.is_optimal
        assert [a.rescaled for a in report.attempts] == [False, True]
        assert report.result.objective == pytest.approx(2.0)


class TestLubtIntegration:
    def _instance(self):
        from repro import DelayBounds, Point, nearest_neighbor_topology
        from repro.ebf.bounds import radius_of

        rng = np.random.default_rng(7)
        pts = [
            Point(float(x), float(y)) for x, y in rng.integers(0, 60, (8, 2))
        ]
        topo = nearest_neighbor_topology(pts, Point(30.0, 30.0))
        r = radius_of(topo)
        return topo, DelayBounds.uniform(8, 0.8 * r, 1.3 * r)

    def test_solve_lubt_resilient_records_reports(self):
        from repro import solve_lubt

        topo, bounds = self._instance()
        sol = solve_lubt(topo, bounds, resilient=True)
        assert sol.solve_reports  # one report per LP solve
        assert all(r.succeeded for r in sol.solve_reports)
        assert sol.stats.lp_fallbacks == 0
        baseline = solve_lubt(topo, bounds)
        assert sol.cost == pytest.approx(baseline.cost)

    def test_solve_and_embed_passes_resilient_through(self):
        from repro import solve_and_embed

        topo, bounds = self._instance()
        sol, tree = solve_and_embed(topo, bounds, resilient=True)
        assert sol.solve_reports
        assert tree.cost == pytest.approx(sol.cost)

    def test_resilient_solve_leaves_no_thread_running(self):
        from repro import solve_lubt
        from repro.data import synth_instance

        topo, bounds = synth_instance(16, 3)
        threads = threading.active_count()
        sol = solve_lubt(topo, bounds, check_bounds=False, resilient=True)
        assert threading.active_count() == threads
        assert sol.solve_reports

    def test_cli_reports_total_backend_outage(self, monkeypatch, capsys):
        from repro.cli import main

        def down(lp):
            raise RuntimeError("injected outage")

        monkeypatch.setattr(
            "repro.resilience.fallback.default_solvers",
            lambda: {"simplex": down, "scipy": down, "tree": down},
        )
        code = main(
            ["solve", "--bench", "prim1", "--sinks", "6", "--resilient"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "solve failed — every LP backend was exhausted:" in err
        assert "Traceback" not in err
        attempts = [ln for ln in err.splitlines() if "injected outage" in ln]
        # each backend once as is and once rescaled
        assert len(attempts) == 6
        for name in ("simplex", "scipy", "tree"):
            assert sum(ln.startswith(f"{name}:") for ln in attempts) == 1
            assert sum(
                ln.startswith(f"{name} (rescaled):") for ln in attempts
            ) == 1
