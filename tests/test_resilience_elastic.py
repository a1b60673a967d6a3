"""Elastic infeasibility diagnosis and graceful degradation.

Acceptance criterion of the resilience PR: an infeasible LUBT instance
(``u_i < dist(root, s_i)``) diagnosed elastically must name the
conflicting sink bounds and the minimal relaxation amounts, and the
relaxed re-solve must yield a valid embedded tree.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DelayBounds,
    InfeasibleError,
    Point,
    chain_topology,
    embed_tree,
    nearest_neighbor_topology,
    solve_and_embed,
    solve_lubt,
)
from repro.ebf.bounds import radius_of
from repro.ebf.formulation import add_steiner_rows, edge_var
from repro.geometry import manhattan
from repro.lp import LinearProgram, Sense, solve_lp
from repro.resilience import (
    InfeasibilityDiagnosis,
    build_elastic_lp,
    diagnose_infeasibility,
)
from repro.topology import Topology
from repro.topology.split import split_high_degree_steiner


def instance(n=8, seed=0, span=50):
    rng = np.random.default_rng(seed)
    pts = [
        Point(float(x), float(y)) for x, y in rng.integers(0, span, (n, 2))
    ]
    return nearest_neighbor_topology(pts, Point(span / 2.0, span / 2.0))


class TestDiagnosis:
    def test_upper_below_distance_named_with_amounts(self):
        """u_i < dist(root, s_i): the unreachable sinks are named and the
        relaxation amount is exactly dist - u (the geometric gap)."""
        topo = instance()
        r = radius_of(topo)
        u = 0.6 * r
        bounds = DelayBounds.uniform(topo.num_sinks, 0.0, u)
        diag = diagnose_infeasibility(topo, bounds)
        assert isinstance(diag, InfeasibilityDiagnosis)

        src = topo.source_location
        unreachable = {
            i: manhattan(src, topo.sink_location(i)) - u
            for i in topo.sink_ids()
            if manhattan(src, topo.sink_location(i)) > u + 1e-9
        }
        assert unreachable, "test instance must have unreachable sinks"
        assert set(diag.conflicting_sinks) == set(unreachable)
        for rel in diag.conflicting:
            assert rel.upper_relax == pytest.approx(
                unreachable[rel.sink], abs=1e-6
            )
            assert rel.lower_relax == 0.0
        assert diag.total_slack == pytest.approx(
            sum(unreachable.values()), abs=1e-5
        )
        assert "must rise" in diag.summary()

    def test_relaxed_resolve_embeds(self):
        topo = instance()
        r = radius_of(topo)
        bounds = DelayBounds.uniform(topo.num_sinks, 0.0, 0.6 * r)
        diag = diagnose_infeasibility(topo, bounds)
        sol = solve_lubt(topo, diag.relaxed_bounds, check_bounds=False)
        tree = embed_tree(topo, sol.edge_lengths)
        assert diag.relaxed_bounds.satisfied_by(sol.delays)
        assert tree.cost == pytest.approx(sol.cost)

    def test_feasible_instance_reports_no_conflicts(self):
        topo = instance()
        r = radius_of(topo)
        bounds = DelayBounds.uniform(topo.num_sinks, 0.9 * r, 1.2 * r)
        diag = diagnose_infeasibility(topo, bounds)
        assert diag.conflicting == ()
        assert diag.total_slack == 0.0
        assert "no conflicting" in diag.summary()

    def test_lower_upper_cross_conflict_on_chain(self):
        """Nested paths force a genuine l-vs-u conflict: the shallow
        sink's lower bound exceeds the deep sink's upper bound, and the
        deep path contains the shallow one."""
        pts = [Point(10.0, 0.0), Point(20.0, 0.0), Point(30.0, 0.0)]
        topo = chain_topology(pts, source=Point(0.0, 0.0))
        # sink 1 wants delay >= 100; sink 3 (whose path includes sink 1's)
        # wants delay <= 40.  Impossible: path(s3) >= path(s1).
        bounds = DelayBounds.per_sink([(100.0, 200.0), (0.0, 200.0), (0.0, 40.0)])
        with pytest.raises(InfeasibleError):
            solve_lubt(topo, bounds, check_bounds=False)
        diag = diagnose_infeasibility(topo, bounds)
        assert diag.conflicting
        assert diag.total_slack > 0.0
        sol = solve_lubt(topo, diag.relaxed_bounds, check_bounds=False)
        assert diag.relaxed_bounds.satisfied_by(sol.delays)

    def test_elastic_lp_always_feasible(self):
        topo = instance(n=6, seed=3)
        r = radius_of(topo)
        # wildly impossible bounds in both directions
        bounds = DelayBounds.per_sink(
            [(3.0 * r, 3.1 * r)] * 3 + [(0.0, 0.05 * r)] * 3
        )
        lp, slack_cols = build_elastic_lp(topo, bounds)
        from repro.lp import solve_lp

        res = solve_lp(lp).require_optimal()
        assert res.is_optimal
        assert len(slack_cols) == topo.num_sinks

    def test_resilient_diagnosis_path(self):
        topo = instance(n=6, seed=5)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(topo.num_sinks, 0.0, 0.5 * r)
        diag = diagnose_infeasibility(topo, bounds, resilient=True)
        assert diag.conflicting


def fanout_topology(m, rng, fixed, fanout):
    """Sinks as leaves under Steiner nodes of 2..``fanout`` children,
    split to a binary tree; returns ``(topo, zero_edges)``."""
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 60, (m, 2))]
    parents = [None] + [0] * m

    def place(group, parent):
        cuts = rng.choice(
            np.arange(1, len(group)),
            size=min(len(group) - 1, int(rng.integers(1, fanout))),
            replace=False,
        )
        for part in np.split(group, np.sort(cuts)):
            if len(part) == 1:
                parents[int(part[0])] = parent
            else:
                parents.append(parent)
                place(part, len(parents) - 1)

    place(np.arange(1, m + 1), 0)
    src = Point(30.0, 30.0) if fixed else None
    return split_high_degree_steiner(Topology(parents, m, pts, src))


def literal_elastic_lp(topo, bounds, zero_edges):
    """The elastic EBF written out row by row: edge variables, slacked
    delay rows, the hard geometric floor and every Steiner pair."""
    lp = LinearProgram()
    for i in range(1, topo.num_nodes):
        lp.add_variable(f"e{i}")
    for i in zero_edges:
        lp.fix_variable(edge_var(i), 0.0)
    src = topo.source_location
    for i in topo.sink_ids():
        lo, hi = bounds.window(i)
        path = {edge_var(k): 1.0 for k in topo.path_to_root(i)}
        if src is not None:
            floor = manhattan(src, topo.sink_location(i))
            lp.add_constraint(path, Sense.GE, floor)
        if lo > 0.0:
            s_lo = lp.add_variable(cost=1.0, ub=lo)
            lp.add_constraint({**path, s_lo: 1.0}, Sense.GE, lo)
        if math.isfinite(hi):
            s_hi = lp.add_variable(cost=1.0)
            lp.add_constraint({**path, s_hi: -1.0}, Sense.LE, hi)
    add_steiner_rows(lp, topo, None)
    return lp


class TestCollapsedElasticLp:
    """The elastic LP holds every Steiner row in its collapsed form: one
    solve gives the total slack of the literal all-pairs elastic LP."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=10_000),
        fixed=st.booleans(),
        fanout=st.sampled_from([2, 4]),
        inverted=st.booleans(),
        open_ends=st.booleans(),
    )
    def test_total_slack_matches_the_all_pairs_lp(
        self, m, seed, fixed, fanout, inverted, open_ends
    ):
        rng = np.random.default_rng(seed)
        topo, zero = fanout_topology(m, rng, fixed, fanout)
        r = radius_of(topo)
        lo = rng.uniform(0.0, 1.5, m) * r
        hi = rng.uniform(0.3, 1.5, m) * r
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        if inverted:
            flip = rng.random(m) < 0.3
            lo[flip], hi[flip] = hi[flip], lo[flip]
        if open_ends:
            lo[rng.random(m) < 0.3] = 0.0
            hi[rng.random(m) < 0.3] = math.inf
        bounds = DelayBounds.unchecked(lo, hi)

        lp, slack_cols = build_elastic_lp(topo, bounds, zero_edges=zero)
        assert len(slack_cols) == m
        got = solve_lp(lp).require_optimal().objective
        literal = literal_elastic_lp(topo, bounds, zero)
        want = solve_lp(literal, "scipy").require_optimal().objective
        assert abs(got - want) <= 1e-7 * max(want, r)

        diag = diagnose_infeasibility(topo, bounds, zero_edges=zero)
        assert diag.total_slack == pytest.approx(want, rel=1e-6, abs=1e-6 * r)
        sol = solve_lubt(
            topo, diag.relaxed_bounds, zero_edges=zero, check_bounds=False
        )
        assert diag.relaxed_bounds.satisfied_by(sol.delays)
        tree = embed_tree(topo, sol.edge_lengths)
        assert tree.cost == pytest.approx(sol.cost)

    def test_one_lp_solve(self, monkeypatch):
        import repro.resilience.elastic as elastic

        calls = []
        real = elastic.solve_lp
        monkeypatch.setattr(
            elastic, "solve_lp", lambda *a: calls.append(a) or real(*a)
        )
        topo = instance(n=40, seed=2)
        bounds = DelayBounds.uniform(40, 0.0, 0.6 * radius_of(topo))
        diag = diagnose_infeasibility(topo, bounds)
        assert diag.conflicting and len(calls) == 1


class TestSolveLubtIntegration:
    def _infeasible(self, n=8, seed=1):
        topo = instance(n=n, seed=seed)
        r = radius_of(topo)
        return topo, DelayBounds.uniform(n, 0.0, 0.55 * r)

    def test_on_infeasible_raise_is_default(self):
        topo, bounds = self._infeasible()
        with pytest.raises(InfeasibleError) as exc_info:
            solve_lubt(topo, bounds, check_bounds=False)
        assert exc_info.value.diagnosis is None

    def test_on_infeasible_diagnose_attaches(self):
        topo, bounds = self._infeasible()
        with pytest.raises(InfeasibleError) as exc_info:
            solve_lubt(
                topo, bounds, check_bounds=False, on_infeasible="diagnose"
            )
        diag = exc_info.value.diagnosis
        assert isinstance(diag, InfeasibilityDiagnosis)
        assert diag.conflicting_sinks
        assert "must rise" in str(exc_info.value)

    def test_on_infeasible_relax_returns_solution(self):
        topo, bounds = self._infeasible()
        sol = solve_lubt(topo, bounds, check_bounds=False, on_infeasible="relax")
        assert sol.diagnosis is not None
        assert sol.bounds is sol.diagnosis.relaxed_bounds
        assert sol.diagnosis.relaxed_bounds.satisfied_by(sol.delays)
        tree = embed_tree(topo, sol.edge_lengths)
        assert tree.cost == pytest.approx(sol.cost)

    def test_on_infeasible_relax_with_eq3_check_enabled(self):
        """check_bounds=True normally raises BoundsError before any LP;
        the relax path must catch that too and still degrade."""
        topo, bounds = self._infeasible()
        sol = solve_lubt(topo, bounds, check_bounds=True, on_infeasible="relax")
        assert sol.diagnosis is not None

    def test_feasible_instance_ignores_on_infeasible(self):
        topo = instance()
        r = radius_of(topo)
        bounds = DelayBounds.uniform(topo.num_sinks, 0.8 * r, 1.3 * r)
        sol = solve_lubt(topo, bounds, on_infeasible="relax")
        assert sol.diagnosis is None
        baseline = solve_lubt(topo, bounds)
        assert sol.cost == pytest.approx(baseline.cost)

    def test_unknown_on_infeasible_rejected(self):
        topo, bounds = self._infeasible()
        with pytest.raises(ValueError, match="on_infeasible"):
            solve_lubt(topo, bounds, on_infeasible="shrug")

    def test_solve_and_embed_relax_acceptance(self):
        """The PR's acceptance flow: infeasible instance, elastic
        diagnosis, valid embedded tree under relaxed bounds."""
        topo, bounds = self._infeasible()
        sol, tree = solve_and_embed(
            topo, bounds, check_bounds=False,
            resilient=True, on_infeasible="relax",
        )
        assert sol.diagnosis.conflicting_sinks
        assert sol.diagnosis.relaxed_bounds.satisfied_by(tree.sink_delays())
        assert len(tree.placements) == topo.num_nodes

    def test_resilient_diagnosis_uses_the_solves_breakers_and_solvers(self):
        """The elastic LP of a resilient solve goes through the solve's
        breaker registry and backend overrides like its other LPs: with
        ``scipy`` and ``tree`` faulted, the diagnosis fails over and the
        solve raises instead of relaxing through the real backends."""
        from repro.data import uniform_sinks
        from repro.lp.scipy_backend import solve_scipy
        from repro.lp.treesolve import solve_tree
        from repro.resilience import AllBackendsFailedError, BreakerRegistry
        from repro.resilience.faults import ExceptionFault, FaultyBackend

        topo = nearest_neighbor_topology(
            uniform_sinks(12, seed=3), Point(50.0, 50.0)
        )
        r = radius_of(topo)
        bounds = DelayBounds.uniform(12, 0.2 * r, 0.9 * r)
        scipy = FaultyBackend(solve_scipy, [ExceptionFault()] * 99, "scipy")
        tree = FaultyBackend(solve_tree, [ExceptionFault()] * 99, "tree")
        registry = BreakerRegistry()
        with pytest.raises(AllBackendsFailedError):
            solve_lubt(
                topo, bounds, check_bounds=False, resilient=True,
                on_infeasible="relax", breakers=registry,
                solvers={"scipy": scipy, "tree": tree},
            )
        assert scipy.calls > 0
        assert "scipy" in registry.states()


class TestCli:
    def test_diagnose_flag_prints_and_degrades(self, capsys):
        from repro.cli import main

        rc = main([
            "solve", "--bench", "prim1", "--sinks", "12",
            "--lower", "0.0", "--upper", "0.55", "--diagnose",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "infeasibility diagnosis" in out
        assert "bounds relaxed" in out
        assert "embedded relaxed tree" in out

    def test_resilient_flag_reports_fallbacks(self, capsys):
        from repro.cli import main

        rc = main([
            "solve", "--bench", "prim1", "--sinks", "10", "--resilient",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "LP fallbacks" in out
