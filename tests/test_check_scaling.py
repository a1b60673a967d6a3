"""LP scaling advisor (LP015/LP016) and the rescaled retry.

The advisor's statistics drive two warning diagnostics.  The resilient
fallback chain gives every numerical failure one rescaled retry, on a
badly scaled model and a well-scaled one alike.
"""

import pytest

from repro.check import ScalingAdvice, check_lp, scaling_advice
from repro.check.scaling import CONDITION_THRESHOLD, ROW_SPREAD_THRESHOLD
from repro.lp import LinearProgram, LpStatus, Sense
from repro.resilience import AttemptOutcome, faults, solve_lp_resilient


def well_scaled_lp() -> LinearProgram:
    lp = LinearProgram()
    x = lp.add_variable("x", cost=1.0)
    y = lp.add_variable("y", cost=1.0, ub=5.0)
    lp.add_constraint({x: 1.0, y: 2.0}, Sense.GE, 2.0)
    return lp


def badly_scaled_lp() -> LinearProgram:
    """Coefficients spanning 1e12 across two rows: trips both LP015
    (condition) and LP016 (row spread) while staying solvable."""
    lp = LinearProgram()
    x = lp.add_variable("x", cost=1.0)
    y = lp.add_variable("y", cost=1.0)
    lp.add_constraint({x: 1e6}, Sense.GE, 1e6)
    lp.add_constraint({y: 1e-6}, Sense.GE, 1e-6)
    return lp


class TestScalingAdvice:
    def test_well_scaled_statistics(self):
        advice = scaling_advice(well_scaled_lp())
        assert advice.condition_estimate == pytest.approx(2.0)
        assert advice.row_norm_spread == pytest.approx(1.0)
        assert advice.max_abs_coefficient == pytest.approx(2.0)
        assert advice.min_abs_coefficient == pytest.approx(1.0)

    def test_badly_scaled_statistics(self):
        advice = scaling_advice(badly_scaled_lp())
        assert advice.condition_estimate == pytest.approx(1e12)
        assert advice.row_norm_spread == pytest.approx(1e12)

    def test_empty_model_is_neutral(self):
        lp = LinearProgram()
        lp.add_variable("x", cost=1.0)
        advice = scaling_advice(lp)
        assert advice == ScalingAdvice(1.0, 1.0, 0.0, 0.0)

    def test_condition_alone_recommends(self):
        # One row mixing 1e-6 and 1e6 entries: huge condition estimate,
        # but a single row means no spread at all.
        lp = LinearProgram()
        x = lp.add_variable("x", cost=1.0)
        y = lp.add_variable("y", cost=1.0)
        lp.add_constraint({x: 1e6, y: 1e-6}, Sense.GE, 1.0)
        advice = scaling_advice(lp)
        assert advice.condition_estimate >= CONDITION_THRESHOLD
        assert advice.row_norm_spread == pytest.approx(1.0)
        codes = {d.code for d in check_lp(lp)}
        assert "LP015" in codes and "LP016" not in codes

    def test_thresholds_are_the_documented_constants(self):
        assert CONDITION_THRESHOLD == 1e10
        assert ROW_SPREAD_THRESHOLD == 1e6


class TestDiagnostics:
    def test_clean_model_emits_neither_code(self):
        codes = {d.code for d in check_lp(well_scaled_lp())}
        assert "LP015" not in codes and "LP016" not in codes

    def test_badly_scaled_model_emits_both(self):
        codes = {d.code for d in check_lp(badly_scaled_lp())}
        assert {"LP015", "LP016"} <= codes

    def test_scaling_diagnostics_are_warnings(self):
        diags = [
            d for d in check_lp(badly_scaled_lp())
            if d.code in ("LP015", "LP016")
        ]
        assert diags
        assert all(not d.is_error for d in diags)


class TestAutoRescaleRetry:
    def test_rescales_on_badly_scaled_failure(self):
        solvers = faults.faulty_solvers(
            {"simplex": [
                faults.WrongStatusFault(LpStatus.ERROR),
                faults.WrongStatusFault(LpStatus.ERROR),
            ]}
        )
        report = solve_lp_resilient(
            badly_scaled_lp(), ("simplex", "scipy"), solvers=solvers
        )
        assert report.result.is_optimal
        assert [(a.outcome, a.rescaled) for a in report.attempts] == [
            (AttemptOutcome.ERROR, False),
            (AttemptOutcome.ERROR, True),
            (AttemptOutcome.OPTIMAL, False),
        ]

    def test_explicit_true_still_always_rescales(self):
        solvers = faults.faulty_solvers(
            {"simplex": [
                faults.WrongStatusFault(LpStatus.ERROR),
                faults.WrongStatusFault(LpStatus.ERROR),
            ]}
        )
        report = solve_lp_resilient(
            well_scaled_lp(), ("simplex", "scipy"), solvers=solvers
        )
        assert [a.rescaled for a in report.attempts] == [False, True, False]
