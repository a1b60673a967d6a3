"""Golden-diagnostic tests for the static verification layer
(:mod:`repro.check`), driven by :mod:`repro.resilience.faults` instance
breakers, plus the solver wiring (``validate="strict"|"warn"|"off"``)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DelayBounds, Point, nearest_neighbor_topology, solve_lubt
from repro.ebf.bounds import BoundsError
from repro.check import (
    CODES,
    DiagnosticWarning,
    InstanceCheckError,
    Severity,
    check_instance,
    collect,
)
from repro.data.generators import clustered_sinks, uniform_sinks
from repro.ebf.formulation import build_ebf_lp
from repro.lp import LinearProgram, Sense
from repro.resilience import faults
from repro.topology import Topology


def small_instance(m=6, seed=7):
    sinks = uniform_sinks(m, seed, width=100.0, height=100.0)
    topo = nearest_neighbor_topology(sinks, source=Point(50.0, 50.0))
    bounds = DelayBounds.normalized(topo, 0.9, 1.4)
    return topo, bounds


class TestGoldenDiagnostics:
    """Each deliberately broken instance reports its stable code."""

    def test_nan_injection_reports_lp001(self):
        topo, bounds = small_instance()
        lp = build_ebf_lp(topo, bounds)
        faults.inject_nan_coefficient(lp, row=0)
        codes = check_instance(lp=lp).codes()
        assert "LP001" in codes

    def test_inverted_bounds_report_bd002(self):
        topo, bounds = small_instance()
        broken = faults.invert_bounds(bounds, sink=3)
        result = check_instance(topo, broken)
        bd2 = [d for d in result.diagnostics if d.code == "BD002"]
        assert len(bd2) == 1 and bd2[0].locus == "sink 3"
        assert not result.ok

    def test_topology_cycle_reports_tp001_and_tp003(self):
        topo, _ = small_instance()
        parents = list(topo._parents)
        # Reparent a branching Steiner node onto its own child: a real
        # multi-node cycle, stranding every sink beneath it.
        at = next(iter(topo.steiner_ids()))
        broken = faults.cyclic_parents(parents, at=at)
        result = check_instance(parents=broken, num_sinks=topo.num_sinks)
        assert "TP001" in result.codes()
        assert "TP003" in result.codes()
        assert not result.ok

    def test_self_parent_reports_tp004(self):
        topo, _ = small_instance()
        broken = faults.cyclic_parents(list(topo._parents), at=1)
        result = check_instance(parents=broken, num_sinks=topo.num_sinks)
        assert "TP004" in result.codes()  # leaf sink: falls back to self-cycle
        assert not result.ok

    def test_nan_sink_location_reports_tp008(self):
        sinks = [Point(0.0, 0.0), Point(float("nan"), 5.0), Point(9.0, 1.0)]
        topo = Topology([None, 0, 0, 0], 3, sinks, Point(5.0, 5.0))
        assert "TP008" in check_instance(topo).codes()

    def test_duplicate_sink_location_reports_tp007(self):
        sinks = [Point(1.0, 2.0), Point(1.0, 2.0), Point(9.0, 1.0)]
        topo = Topology([None, 0, 0, 0], 3, sinks, Point(5.0, 5.0))
        result = check_instance(topo)
        assert "TP007" in result.codes()
        assert result.ok  # a warning, not an error

    def test_dangling_and_passthrough_steiner(self):
        # node 4: Steiner leaf; node 5: pass-through Steiner over sink 3.
        sinks = [Point(0.0, 0.0), Point(10.0, 0.0), Point(5.0, 8.0)]
        topo = Topology([None, 0, 0, 5, 0, 0], 3, sinks, Point(5.0, 5.0))
        codes = check_instance(topo).codes()
        assert "TP005" in codes and "TP006" in codes

    def test_bounds_below_floor_reports_bd005(self):
        topo, _ = small_instance()
        tight = DelayBounds.uniform(topo.num_sinks, 0.0, 1e-6)
        result = check_instance(topo, tight)
        assert "BD005" in result.codes()
        # mirrored solver knob: floor off -> no BD005
        relaxed = check_instance(topo, tight, geometric_floor=False)
        assert "BD005" not in relaxed.codes()

    def test_bound_count_mismatch_reports_bd004(self):
        topo, _ = small_instance(m=5)
        bad = DelayBounds.uniform(3, 10.0, 20.0)
        assert "BD004" in check_instance(topo, bad).codes()

    def test_nan_bound_reports_bd001(self):
        topo, _ = small_instance()
        nanb = DelayBounds.unchecked(
            np.full(topo.num_sinks, float("nan")),
            np.full(topo.num_sinks, 100.0),
        )
        assert "BD001" in check_instance(topo, nanb).codes()

    def test_negative_lower_reports_bd003(self):
        topo, _ = small_instance()
        neg = DelayBounds.unchecked(
            np.full(topo.num_sinks, -1.0), np.full(topo.num_sinks, 1e9)
        )
        assert "BD003" in check_instance(topo, neg).codes()

    def test_zero_width_window_reports_bd007_info(self):
        topo, _ = small_instance()
        z = DelayBounds.zero_skew(topo.num_sinks, 500.0)
        result = check_instance(topo, z, geometric_floor=False)
        assert "BD007" in result.codes()
        assert all(d.severity is Severity.INFO
                   for d in result.diagnostics if d.code == "BD007")


class TestDiagnosticsUnchanged:
    """Codes, loci, messages and order of the sink checks, written out as
    the per-sink loops of the checkers gave them; the array checks must
    say exactly the same."""

    @staticmethod
    def triples(topo, bounds):
        return [
            (d.code, d.locus, d.message)
            for d in check_instance(topo, bounds).diagnostics
        ]

    def test_fixed_source(self):
        # Steiner 9 over sinks 1-3 and Steiner leaf 11, Steiner 10 over
        # 4-6, pass-through Steiner 12 over sink 7, sink 8 on the root.
        nan, inf = math.nan, math.inf
        sinks = [
            Point(0.0, 0.0), Point(-0.0, 0.0), Point(nan, 5.0),
            Point(10.0, 2.0), Point(10.0, 2.0), Point(inf, 1.0),
            Point(3.0, 4.0), Point(0.0, -0.0),
        ]
        topo = Topology(
            [None, 9, 9, 9, 10, 10, 10, 12, 0, 0, 0, 9, 0], 8, sinks,
            Point(1.0, 1.0),
        )
        bounds = DelayBounds.unchecked(
            [nan, 1.0, -2.0, inf, 5.0, 3.0, 7.0, -0.0],
            [4.0, nan, 6.0, 9.0, 2.0, 3.0, 4.5, inf],
        )
        assert self.triples(topo, bounds) == [
            ("TP007", "sink 2", "same location (-0, 0) as sink 1"),
            ("TP008", "sink 3", "sink location (nan, 5.0) is not finite"),
            ("TP007", "sink 5", "same location (10, 2) as sink 4"),
            ("TP008", "sink 6", "sink location (inf, 1.0) is not finite"),
            ("TP007", "sink 8", "same location (0, -0) as sink 1"),
            ("TP005", "node 11",
             "Steiner point is a leaf (contributes nothing)"),
            ("TP006", "node 12",
             "Steiner point has a single child (pass-through)"),
            ("BD001", "sink 1", "bounds [nan, 4.0] are not usable"),
            ("BD001", "sink 2", "bounds [1.0, nan] are not usable"),
            ("BD003", "sink 3", "lower bound -2 is negative"),
            ("BD001", "sink 4", "bounds [inf, 9.0] are not usable"),
            ("BD002", "sink 5", "lower 5 exceeds upper 2"),
            ("BD007", "sink 6", "exact zero-skew window at 3"),
            ("BD002", "sink 7", "lower 7 exceeds upper 4.5"),
            ("BD005", "sink 4",
             "upper bound 9 < dist(source, sink) = 10 (Eq. 3)"),
            ("BD005", "sink 5",
             "upper bound 2 < dist(source, sink) = 10 (Eq. 3)"),
            ("BD005", "sink 7",
             "upper bound 4.5 < dist(source, sink) = 5 (Eq. 3)"),
        ]
        tight = DelayBounds.unchecked([0.0] * 8, [9.0] * 4 + [10.0, 9.0, 5.0, 9.0])
        with pytest.raises(BoundsError) as err:
            tight.check(topo)
        assert str(err.value) == "u_4 = 9 < dist(source, sink) = 10 (Eq. 3)"

    def test_free_source(self):
        sinks = [
            Point(0.0, 0.0), Point(8.0, 0.0), Point(-0.0, 0.0),
            Point(4.0, 6.0),
        ]
        topo = Topology([None, 5, 5, 6, 6, 0, 5], 4, sinks, None)
        bounds = DelayBounds.unchecked(
            [0.0, 1.0, 2.0, -1.0], [4.0, 7.0, math.nan, math.inf]
        )
        assert self.triples(topo, bounds) == [
            ("TP007", "sink 3", "same location (-0, 0) as sink 1"),
            ("BD001", "sink 3", "bounds [2.0, nan] are not usable"),
            ("BD003", "sink 4", "lower bound -1 is negative"),
            ("BD005", "sink 1", "upper bound 4 < radius 5 (Eq. 4)"),
        ]
        with pytest.raises(BoundsError) as err:
            DelayBounds.unchecked([0.0] * 4, [9.0, 9.0, 3.0, 9.0]).check(topo)
        assert str(err.value) == "every upper bound must be >= radius = 5 (Eq. 4)"

    def test_non_finite_source(self):
        sinks = [
            Point(0.0, 0.0), Point(8.0, 0.0), Point(math.nan, math.nan),
            Point(4.0, 6.0),
        ]
        topo = Topology(
            [None, 5, 5, 6, 6, 0, 5], 4, sinks, Point(math.nan, 1.0)
        )
        bounds = DelayBounds.unchecked(
            [0.0, 1.0, 2.0, -0.0], [0.5, 1.0, 2.0, 0.0]
        )
        assert self.triples(topo, bounds) == [
            ("TP008", "node 0", "source location (nan, 1.0) is not finite"),
            ("TP008", "sink 3", "sink location (nan, nan) is not finite"),
            ("BD007", "sink 2", "exact zero-skew window at 1"),
            ("BD007", "sink 3", "exact zero-skew window at 2"),
            ("BD007", "sink 4", "exact zero-skew window at 0"),
        ]


class TestLpChecks:
    def test_duplicate_row_lp010(self):
        lp = LinearProgram()
        j = lp.add_variable()
        lp.add_constraint({j: 1.0}, Sense.GE, 2.0, name="a")
        lp.add_constraint({j: 1.0}, Sense.GE, 2.0, name="b")
        assert "LP010" in check_instance(lp=lp).codes()

    def test_dominated_ge_row_lp012(self):
        lp = LinearProgram()
        j = lp.add_variable()
        lp.add_constraint({j: 1.0}, Sense.GE, 5.0, name="binding")
        lp.add_constraint({j: 1.0}, Sense.GE, 2.0, name="dominated")
        result = check_instance(lp=lp)
        doms = [d for d in result.diagnostics if d.code == "LP012"]
        assert len(doms) == 1 and "dominated" in doms[0].locus
        assert result.ok  # dominated rows are warnings

    def test_empty_rows_lp005_lp011(self):
        lp = LinearProgram()
        lp.add_variable()
        lp.add_constraint({}, Sense.GE, 1.0, name="impossible")
        lp.add_constraint({}, Sense.LE, 1.0, name="trivial")
        codes = check_instance(lp=lp).codes()
        assert "LP005" in codes and "LP011" in codes

    def test_nonfinite_cost_and_rhs(self):
        lp = LinearProgram()
        j = lp.add_variable(cost=float("inf"))
        lp.add_constraint({j: 1.0}, Sense.LE, float("nan"))
        codes = check_instance(lp=lp).codes()
        assert "LP002" in codes and "LP003" in codes

    def test_clean_ebf_lp_has_no_findings(self):
        topo, bounds = small_instance()
        lp = build_ebf_lp(topo, bounds)
        result = check_instance(topo, bounds, lp)
        # The only finding on a clean EBF build is the advisory LP013
        # note that the model is tree-solvable.
        assert set(result.codes()) == {"LP013"}
        assert all(d.severity is Severity.INFO for d in result.diagnostics)

    def test_tree_meta_watermark_visibility(self):
        topo, bounds = small_instance()
        lp = build_ebf_lp(topo, bounds)
        assert "LP013" in check_instance(lp=lp).codes()
        # Appending a row outside add_steiner_rows strands the watermark:
        # the checker flips from advisory LP013 to warning LP014.
        lp.add_constraint({0: 1.0}, Sense.LE, 1e9, name="foreign")
        codes = check_instance(lp=lp).codes()
        assert "LP014" in codes and "LP013" not in codes


class TestSolverWiring:
    def test_strict_raises_before_solving(self):
        topo, bounds = small_instance()
        broken = faults.invert_bounds(bounds, sink=2)
        with pytest.raises(InstanceCheckError) as err:
            solve_lubt(topo, broken, validate="strict", check_bounds=False)
        assert any(d.code == "BD002" for d in err.value.result.errors)

    def test_warn_mode_warns_and_still_raises_downstream(self):
        topo, bounds = small_instance()
        broken = faults.invert_bounds(bounds, sink=2)
        with pytest.warns(DiagnosticWarning, match="BD002"):
            with pytest.raises(Exception):
                solve_lubt(topo, broken, check_bounds=False)

    def test_off_mode_skips_precheck(self):
        topo, bounds = small_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiagnosticWarning)
            sol = solve_lubt(topo, bounds, validate="off")
        assert math.isfinite(sol.cost)

    def test_strict_solves_clean_instance(self):
        topo, bounds = small_instance()
        sol = solve_lubt(topo, bounds, validate="strict")
        ref = solve_lubt(topo, bounds)
        assert sol.cost == pytest.approx(ref.cost)

    def test_unknown_validate_rejected(self):
        topo, bounds = small_instance()
        with pytest.raises(ValueError):
            solve_lubt(topo, bounds, validate="loud")


class TestDiagnosticPlumbing:
    def test_every_code_has_severity_slug_and_hint(self):
        for code, (sev, slug, hint) in CODES.items():
            assert isinstance(sev, Severity)
            assert slug and hint
            assert code[:2] in ("LP", "TP", "BD")

    def test_collect_captures_bd006_from_range_collapse(self):
        lp = LinearProgram()
        j = lp.add_variable()
        with collect() as emitted:
            lp.add_range_constraint({j: 1.0}, 43.0, 42.99999999999999)
        assert [d.code for d in emitted] == ["BD006"]

    def test_unknown_code_rejected(self):
        from repro.check import Diagnostic

        with pytest.raises(ValueError):
            Diagnostic("XX999", "nope")


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=2**20),
    kind=st.sampled_from(["uniform", "clustered"]),
)
def test_generator_instances_check_clean(m, seed, kind):
    """Property: every generator-produced valid suite instance passes the
    static checker with zero errors (warnings allowed)."""
    make = uniform_sinks if kind == "uniform" else clustered_sinks
    sinks = make(m, seed, width=1000.0, height=800.0)
    topo = nearest_neighbor_topology(sinks, source=Point(500.0, 400.0))
    bounds = DelayBounds.normalized(topo, 0.8, 1.3)
    lp = build_ebf_lp(topo, bounds)
    result = check_instance(topo, bounds, lp)
    assert result.ok, result.summary()
