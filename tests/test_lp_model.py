"""Tests for the LinearProgram model builder."""

import math

import numpy as np
import pytest

from repro.lp import LinearProgram, Sense


class TestVariables:
    def test_add_variable_returns_index(self):
        lp = LinearProgram()
        assert lp.add_variable("a") == 0
        assert lp.add_variable("b") == 1
        assert lp.num_variables == 2
        assert lp.variable_name(0) == "a"

    def test_default_bounds_nonnegative(self):
        lp = LinearProgram()
        lp.add_variable()
        assert lp.lower_bounds[0] == 0.0
        assert math.isinf(lp.upper_bounds[0])

    def test_bad_bounds_raise(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_variable(lb=2.0, ub=1.0)

    def test_add_variables_bulk(self):
        lp = LinearProgram()
        rng = lp.add_variables(5, prefix="e", cost=1.0)
        assert list(rng) == [0, 1, 2, 3, 4]
        assert np.all(lp.costs == 1.0)

    def test_add_variables_takes_a_cost_array_and_a_first_number(self):
        lp = LinearProgram()
        lp.add_variable("a", cost=2.0)
        rng = lp.add_variables(3, prefix="e", cost=np.array([0.5, 0.0, 4.0]),
                               first=1)
        assert list(rng) == [1, 2, 3]
        assert lp.costs.tolist() == [2.0, 0.5, 0.0, 4.0]
        assert [lp.variable_name(j) for j in range(4)] == ["a", "e1", "e2", "e3"]
        assert lp.lower_bounds.tolist() == [0.0] * 4
        assert np.isinf(lp.upper_bounds).all()
        assert lp.variable_name(lp.add_variables(1)[0]) == "x4"

    def test_fix_variable(self):
        lp = LinearProgram()
        j = lp.add_variable()
        lp.fix_variable(j, 3.5)
        assert lp.lower_bounds[j] == lp.upper_bounds[j] == 3.5

    def test_set_cost(self):
        lp = LinearProgram()
        j = lp.add_variable(cost=1.0)
        lp.set_cost(j, 7.0)
        assert lp.costs[j] == 7.0


class TestConstraints:
    def test_duplicate_coefficients_sum(self):
        lp = LinearProgram()
        j = lp.add_variable()
        lp.add_constraint([(j, 1.0), (j, 2.0)], Sense.GE, 3.0)
        coeffs, sense, rhs = lp.row(0)
        assert coeffs == ((j, 3.0),)

    def test_unknown_variable_rejected(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_constraint({5: 1.0}, Sense.LE, 1.0)

    def test_range_constraint_two_rows(self):
        lp = LinearProgram()
        j = lp.add_variable()
        rows = lp.add_range_constraint({j: 1.0}, 1.0, 2.0)
        assert len(rows) == 2
        _, s0, r0 = lp.row(rows[0])
        _, s1, r1 = lp.row(rows[1])
        assert (s0, r0) == (Sense.GE, 1.0)
        assert (s1, r1) == (Sense.LE, 2.0)

    def test_range_equal_bounds_single_equality(self):
        lp = LinearProgram()
        j = lp.add_variable()
        rows = lp.add_range_constraint({j: 1.0}, 2.0, 2.0)
        assert len(rows) == 1
        _, sense, rhs = lp.row(rows[0])
        assert sense is Sense.EQ and rhs == 2.0

    def test_range_infinite_upper_single_ge(self):
        lp = LinearProgram()
        j = lp.add_variable()
        rows = lp.add_range_constraint({j: 1.0}, 1.0, math.inf)
        assert len(rows) == 1

    def test_range_inverted_raises(self):
        lp = LinearProgram()
        j = lp.add_variable()
        with pytest.raises(ValueError):
            lp.add_range_constraint({j: 1.0}, 3.0, 1.0)

    def test_range_inverted_by_rounding_collapses_to_equality(self):
        # An interpolated upper bound can land 1 ulp under an exact lower
        # floor (lo=43.0 vs hi=43*(a+(1-a))); that is noise, not an
        # infeasible range.
        lp = LinearProgram()
        j = lp.add_variable()
        rows = lp.add_range_constraint({j: 1.0}, 43.0, 42.99999999999999)
        assert len(rows) == 1
        _, sense, rhs = lp.row(rows[0])
        assert sense is Sense.EQ and rhs == pytest.approx(43.0)


class TestEvaluation:
    def make_lp(self):
        lp = LinearProgram()
        x = lp.add_variable(cost=1.0)
        y = lp.add_variable(cost=2.0)
        lp.add_constraint({x: 1.0, y: 1.0}, Sense.GE, 2.0)
        lp.add_constraint({x: 1.0}, Sense.LE, 5.0)
        lp.add_constraint({y: 1.0}, Sense.EQ, 1.0)
        return lp, x, y

    def test_residuals(self):
        lp, x, y = self.make_lp()
        res = lp.residuals(np.array([1.0, 1.0]))
        assert res[0] == pytest.approx(0.0)
        assert res[1] == pytest.approx(4.0)
        assert res[2] == pytest.approx(0.0)

    def test_is_feasible(self):
        lp, _, _ = self.make_lp()
        assert lp.is_feasible(np.array([1.0, 1.0]))
        assert not lp.is_feasible(np.array([0.0, 1.0]))  # row 0 violated
        assert not lp.is_feasible(np.array([6.0, 1.0]))  # row 1 violated
        assert not lp.is_feasible(np.array([1.0, 2.0]))  # row 2 violated
        assert not lp.is_feasible(np.array([-1.0, 1.0]))  # bound violated

    def test_objective(self):
        lp, _, _ = self.make_lp()
        assert lp.objective_value(np.array([1.0, 1.0])) == 3.0

    def test_to_arrays_shapes(self):
        lp, _, _ = self.make_lp()
        c, a_ub, b_ub, a_eq, b_eq, bounds = lp.to_arrays()
        assert a_ub.shape == (2, 2)
        assert a_eq.shape == (1, 2)
        # GE row is negated into <= form.
        assert b_ub[0] == -2.0
        assert a_ub[0, 0] == -1.0
        assert bounds == [(0.0, None), (0.0, None)]

    def test_to_arrays_no_eq_rows(self):
        lp = LinearProgram()
        j = lp.add_variable()
        lp.add_constraint({j: 1.0}, Sense.LE, 1.0)
        _, a_ub, _, a_eq, b_eq, _ = lp.to_arrays()
        assert a_eq is None and b_eq is None
        assert a_ub is not None


class TestRangeCollapseThreshold:
    """Pin the float-noise collapse threshold of ``add_range_constraint``
    (``_RANGE_COLLAPSE_RTOL = 1e-9``, relative to ``max(1, |lo|, |hi|)``)."""

    def test_collapse_just_under_threshold_emits_bd006(self):
        from repro.check import collect
        from repro.lp.model import _RANGE_COLLAPSE_RTOL

        lp = LinearProgram()
        j = lp.add_variable()
        lo = 100.0
        hi = lo - 0.5 * _RANGE_COLLAPSE_RTOL * lo  # inverted by half the tol
        with collect() as emitted:
            rows = lp.add_range_constraint({j: 1.0}, lo, hi, name="w")
        assert [d.code for d in emitted] == ["BD006"]
        assert "w" in emitted[0].locus
        # Collapsed to a single equality at the midpoint.
        assert len(rows) == 1
        _, sense, rhs = lp.row(rows[0])
        assert sense is Sense.EQ
        assert rhs == pytest.approx(0.5 * (lo + hi))

    def test_inversion_beyond_threshold_still_raises(self):
        from repro.lp.model import _RANGE_COLLAPSE_RTOL

        lp = LinearProgram()
        j = lp.add_variable()
        lo = 100.0
        hi = lo - 10.0 * _RANGE_COLLAPSE_RTOL * lo  # 10x past the tol
        with pytest.raises(ValueError, match="lo"):
            lp.add_range_constraint({j: 1.0}, lo, hi)

    def test_uncollected_collapse_falls_back_to_warning(self):
        from repro.check import DiagnosticWarning

        lp = LinearProgram()
        j = lp.add_variable()
        with pytest.warns(DiagnosticWarning, match="BD006"):
            lp.add_range_constraint({j: 1.0}, 1.0, 1.0 - 1e-12)
