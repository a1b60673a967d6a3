"""Tests for the tree-structured LP backend (:mod:`repro.lp.treesolve`).

The collapsed node-potential formulation must be *exactly* equivalent to
the flat edge-variable EBF: same optimal cost (under
:func:`~repro.ebf.sweep.canonical_cost` — degenerate optimal faces may
return different vertices), same feasibility verdicts, same infeasibility
diagnoses.  These tests pin that equivalence across bound styles,
topologies, suites, and the resilience/server integration seams.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import repro.lp.treesolve as treesolve
from repro.check import check_instance
from repro.data import load_benchmark, synth_instance, uniform_sinks
from repro.delay import tree_cost
from repro.ebf import DelayBounds, build_ebf_lp, solve_lubt
from repro.ebf.bounds import radius_of
from repro.ebf.constraints import seed_constraint_pairs
from repro.ebf.formulation import build_tree_lp, expand_edge_vector
from repro.ebf.solver import TREE_MIN_SINKS
from repro.ebf.sweep import WarmStart, canonical_cost, solve_sweep
from repro.geometry import Point, manhattan
from repro.lp import (
    BackendCapabilityError,
    InfeasibleError,
    LpStatus,
    solve_lp,
    solve_tree,
)
from repro.lp.treesolve import (
    TOUR_MIN_SINKS,
    collapsed_tree_lp,
    crash_basis,
    steiner_optimum,
    tour_basis,
)
from repro.resilience import (
    DEFAULT_CHAIN,
    AllBackendsFailedError,
    default_solvers,
    faults,
    solve_lp_resilient,
)
from repro.topology import Topology, nearest_neighbor_topology, star_topology


def random_topo(m, seed, fixed=False):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 60, (m, 2))]
    src = Point(30.0, 30.0) if fixed else None
    return nearest_neighbor_topology(pts, src)


def sink_chain_topo(m, seed, fixed=False):
    """A sinks-only tree: each sink hangs under the previous one half
    the time, else under a random earlier node, so most sinks are
    interior and chains run deep."""
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 60, (m, 2))]
    parents = [None, 0]
    for i in range(2, m + 1):
        parents.append(i - 1 if rng.random() < 0.5 else int(rng.integers(0, i)))
    return Topology(parents, m, pts, Point(30.0, 30.0) if fixed else None)


def random_binary_topo(m, seed):
    """A full binary tree over ``m`` sinks merged in random pairs (not
    by distance), with a fixed source anywhere on the die above the last
    merge."""
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 60, (m, 2))]
    source = Point(*(float(c) for c in rng.integers(0, 60, 2)))
    parents = [None] + [0] * (2 * m - 1)
    clusters = list(range(1, m + 1))
    for new in range(m + 1, 2 * m):
        i, j = sorted(rng.choice(len(clusters), 2, replace=False).tolist())
        parents[clusters[i]] = parents[clusters[j]] = new
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(new)
    return Topology(parents, m, pts, source)


def chain_window(topo, lo, hi):
    """``[lo, hi]`` x the longest sink-to-sink path of ``topo`` (which
    has sinks only), measured from the source when it is fixed: ``hi >=
    1`` keeps the unstretched tree feasible."""
    par = topo.parent_array()
    src = topo.source_location
    path = np.zeros(topo.num_nodes)
    for v in range(1, topo.num_nodes):
        p = int(par[v])
        here = topo.sink_location(v)
        if p:
            path[v] = path[p] + manhattan(here, topo.sink_location(p))
        elif src is not None:
            path[v] = manhattan(here, src)
    top = float(path.max())
    return DelayBounds.uniform(topo.num_sinks, lo * top, hi * top)


def _solve_pair(topo, bounds, **kw):
    tree = solve_lubt(topo, bounds, backend="tree", **kw)
    ref = solve_lubt(topo, bounds, backend="scipy", **kw)
    return tree, ref


class TestCanonicalParity:
    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=14),
        seed=st.integers(min_value=0, max_value=300),
        fixed=st.booleans(),
    )
    def test_tree_equals_scipy_on_windows(self, m, seed, fixed):
        topo = random_topo(m, seed, fixed)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(m, 0.9 * r, 1.4 * r)
        tree, ref = _solve_pair(topo, bounds, check_bounds=False)
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)
        # The tree backend's answer must itself be a feasible embedding.
        assert np.all(tree.delays >= bounds.lower - 1e-6 * max(1.0, r))
        assert np.all(tree.delays <= bounds.upper + 1e-6 * max(1.0, r))

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=300),
    )
    def test_tree_equals_simplex_zero_skew(self, m, seed):
        topo = random_topo(m, seed)
        bounds = DelayBounds.zero_skew(m, 1.1 * radius_of(topo))
        tree = solve_lubt(topo, bounds, backend="tree", check_bounds=False)
        ref = solve_lubt(topo, bounds, backend="simplex", check_bounds=False)
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)

    def test_unbounded_windows(self):
        topo = random_topo(12, 5)
        tree, ref = _solve_pair(topo, DelayBounds.unbounded(12))
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)

    def test_weighted_objective(self):
        topo = random_topo(10, 9, fixed=True)
        r = radius_of(topo)
        rng = np.random.default_rng(1)
        weights = np.concatenate([[0.0], rng.uniform(0.5, 2.0, topo.num_nodes - 1)])
        bounds = DelayBounds.uniform(10, 0.9 * r, 1.4 * r)
        tree, ref = _solve_pair(
            topo, bounds, weights=weights, check_bounds=False
        )
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)

    def test_zero_edges(self):
        topo = random_topo(11, 17)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(11, 0.9 * r, 1.5 * r)
        # Pin a couple of interior edges (simulating degree-4 tie splits).
        interior = [i for i in range(1, topo.num_nodes) if not topo.is_sink(i)]
        zero = tuple(interior[:2])
        tree, ref = _solve_pair(
            topo, bounds, zero_edges=zero, check_bounds=False
        )
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)
        assert all(tree.edge_lengths[i] <= 1e-9 for i in zero)

    @pytest.mark.parametrize("bench_name", ["prim1", "prim2", "r1"])
    def test_suite_parity_scaled(self, bench_name):
        bench = load_benchmark(bench_name).scaled(48)
        topo = nearest_neighbor_topology(list(bench.sinks), bench.source)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        tree, ref = _solve_pair(topo, bounds)
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)

    def test_synth_instance_parity(self):
        topo, bounds = synth_instance(96, 11, kind="clustered")
        tree, ref = _solve_pair(topo, bounds)
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)

    @pytest.mark.parametrize("seed", range(12))
    def test_interior_sink_chains(self, seed):
        m = 3 + seed
        topo = sink_chain_topo(m, seed, fixed=seed % 2 == 0)
        weights = None
        if seed % 3 == 0:
            rng = np.random.default_rng(seed)
            weights = np.concatenate(
                [[0.0], rng.uniform(0.5, 2.0, topo.num_nodes - 1)]
            )
        for lo, hi in ((0.0, 1.2), (0.3, 1.5)):
            bounds = chain_window(topo, lo, hi)
            tree, ref = _solve_pair(
                topo, bounds, weights=weights, check_bounds=False
            )
            assert canonical_cost(tree.cost) == canonical_cost(ref.cost)


class TestExperimentSuiteParity:
    """The actual table/figure runners, `backend="tree"` vs the lazy loop
    on scipy.

    Every reported cost is canonical_cost-quantized inside the runners,
    so parity here means bit-identical table cells.
    """

    @pytest.fixture(scope="class")
    def bench(self):
        return load_benchmark("prim1").scaled(16)

    def test_table1_row(self, bench):
        from repro.experiments.table1 import run_table1_row

        tree = run_table1_row(bench, 0.5, backend="tree")
        ref = run_table1_row(bench, 0.5, backend="scipy")
        # table1 reports raw costs (the other runners quantize), so the
        # degenerate-vertex ulp is absorbed here instead.
        assert canonical_cost(tree.lubt_cost) == canonical_cost(ref.lubt_cost)
        assert tree.baseline_cost == ref.baseline_cost

    def test_table2_block(self, bench):
        from repro.experiments import run_table2

        tree = run_table2(bench, 0.5, backend="tree")
        ref = run_table2(bench, 0.5, backend="scipy")
        assert [r.cost for r in tree] == [r.cost for r in ref]

    def test_table3_combos(self, bench):
        from repro.experiments import run_table3
        from repro.experiments.table3 import PAPER_BOUND_COMBOS

        combos = PAPER_BOUND_COMBOS[:3]
        tree = run_table3(bench, combos=combos, backend="tree")
        ref = run_table3(bench, combos=combos, backend="scipy")
        assert [r.cost for r in tree] == [r.cost for r in ref]

    def test_fig8_grid(self, bench):
        from repro.experiments import run_fig8

        kw = dict(widths=(0.1, 0.5), lowers=(1.0, 0.5))
        tree = run_fig8(bench, backend="tree", **kw)
        ref = run_fig8(bench, backend="scipy", **kw)
        assert [p.cost for p in tree] == [p.cost for p in ref]


class TestInfeasibleRouting:
    def _impossible(self, m=8, seed=3):
        """Windows below the Manhattan floor — provably infeasible."""
        topo = random_topo(m, seed, fixed=True)
        r = radius_of(topo)
        return topo, DelayBounds.uniform(m, 0.1 * r, 0.2 * r)

    def test_tree_reports_infeasible(self):
        topo, bounds = self._impossible()
        lp = build_ebf_lp(topo, bounds)
        assert solve_lp(lp, "tree").status is LpStatus.INFEASIBLE

    def test_solver_raises_with_diagnosis(self):
        topo, bounds = self._impossible()
        with pytest.raises(InfeasibleError):
            solve_lubt(
                topo, bounds, backend="tree", check_bounds=False
            )

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=200),
    )
    def test_feasibility_verdict_matches_scipy(self, m, seed):
        """Property: tree and scipy agree on feasible vs infeasible."""
        topo = random_topo(m, seed, fixed=True)
        r = radius_of(topo)
        rng = np.random.default_rng(seed + 1)
        lo, hi = sorted(rng.uniform(0.2, 1.6, 2) * r)
        bounds = DelayBounds.uniform(m, lo, hi)
        lp_t = build_ebf_lp(topo, bounds)
        lp_s = build_ebf_lp(topo, bounds)
        rt = solve_lp(lp_t, "tree")
        rs = solve_lp(lp_s, "scipy")
        assert rt.status is rs.status
        if rt.status is LpStatus.OPTIMAL:
            assert canonical_cost(rt.objective) == canonical_cost(rs.objective)


class TestCapabilityGating:
    def test_declines_unstamped_model(self):
        from repro.lp import LinearProgram, Sense

        lp = LinearProgram()
        j = lp.add_variable(cost=1.0)
        lp.add_constraint({j: 1.0}, Sense.GE, 1.0)
        with pytest.raises(BackendCapabilityError):
            solve_tree(lp)

    def test_declines_stale_watermark(self):
        from repro.lp import Sense

        topo = random_topo(6, 2)
        lp = build_ebf_lp(topo, DelayBounds.unbounded(6))
        lp.add_constraint({0: 1.0}, Sense.LE, 1e9, name="foreign")
        with pytest.raises(BackendCapabilityError):
            solve_tree(lp)

    def test_solves_rescaled_copy(self):
        """The rescaled copy keeps a scaled stamp, so the tree backend
        answers it too (the resilient cascade's rescaled tree retry)."""
        from repro.resilience.fallback import rescale_lp

        topo = random_topo(6, 2)
        lp = build_ebf_lp(topo, DelayBounds.unbounded(6))
        scaled, s = rescale_lp(lp)
        res = solve_tree(scaled)
        assert canonical_cost(lp.objective_value(res.x * s)) == canonical_cost(
            solve_tree(lp).objective
        )

    def test_capability_decline_falls_through_chain(self):
        """An unstamped LP through the resilient chain lands on a generic
        backend without the tree decline counting as a failure."""
        from repro.lp import LinearProgram, Sense

        lp = LinearProgram()
        j = lp.add_variable(cost=1.0)
        lp.add_constraint({j: 1.0}, Sense.GE, 1.0)
        report = solve_lp_resilient(lp, ["tree", "scipy"])
        assert report.result is not None
        assert report.result.backend.startswith("scipy")


class TestResilienceIntegration:
    def test_tree_in_default_chain_and_solvers(self):
        assert "tree" in DEFAULT_CHAIN
        assert "tree" in default_solvers()

    def test_tree_rescues_crashed_generic_backends(self):
        """When both generic backends die, the chain's tree member still
        answers a stamped EBF model."""

        def boom(lp):
            raise RuntimeError("injected crash")

        topo = random_topo(10, 4)
        bounds = DelayBounds.normalized(topo, 0.8, 1.3)
        lp = build_ebf_lp(topo, bounds)
        report = solve_lp_resilient(
            lp, solvers={"simplex": boom, "scipy": boom}
        )
        assert report.result is not None
        assert report.result.backend == "tree"
        # build_ebf_lp defaults to the full Steiner family, so the tree
        # answer is the final LUBT cost, not a lazy lower bound.
        ref = solve_lubt(topo, bounds, backend="scipy")
        assert canonical_cost(report.result.objective) == canonical_cost(ref.cost)


class TestAutoDispatch:
    """``backend="auto"`` takes the direct tree path from
    :data:`TREE_MIN_SINKS` sinks up when no warm store is given; the lazy
    loop keeps everything else."""

    def test_switches_at_the_constant(self):
        for m in (TREE_MIN_SINKS, TREE_MIN_SINKS - 1):
            topo = random_topo(m, 4)
            sol = solve_lubt(topo, DelayBounds.normalized(topo, 0.8, 1.2))
            assert (sol.stats.backend == "tree") is (m >= TREE_MIN_SINKS)

    def test_lazy_loop_keeps_full_resilient_and_explicit_generic(self):
        """Full mode, a warm store and an explicit generic backend,
        resilient or not, keep ``auto``'s lazy loop."""
        topo = random_topo(TREE_MIN_SINKS, 4)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        for kw in (
            {"mode": "full"},
            {"backend": "scipy"},
            {"backend": "simplex"},
            {"backend": "simplex", "resilient": True},
            {"warm": WarmStart()},
        ):
            assert solve_lubt(topo, bounds, **kw).stats.backend != "tree", kw

    def test_direct_path_is_the_tree_lp_bit_for_bit(self):
        topo = random_topo(24, 8, fixed=True)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        lp = build_ebf_lp(topo, bounds, pairs=seed_constraint_pairs(topo))
        ref = solve_lp(lp, "tree")
        e_ref = expand_edge_vector(topo, ref.x)
        warm = WarmStart()
        for sol in (
            solve_lubt(topo, bounds, validate="strict"),
            solve_lubt(topo, bounds, backend="tree", warm=warm),
        ):
            assert np.array_equal(sol.edge_lengths, e_ref)
            assert sol.cost == tree_cost(topo, e_ref)
            stats = sol.stats
            assert (stats.backend, stats.rounds, stats.steiner_rows) == (
                "tree", 1, 0
            )
            assert stats.lp_iterations == ref.iterations
            assert stats.warm_rows == 0
        # A fresh warm store has no basis, so its first tree solve starts
        # cold and matches the reference bit for bit; it leaves its final
        # basis behind for the next window.
        assert warm.basis is not None

    def test_direct_path_is_validated(self, monkeypatch):
        """The exact all-pairs check still runs on the direct path."""
        import repro.ebf.solver as solver

        topo = random_topo(TREE_MIN_SINKS, 5)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        calls = []
        real = solver._validate_solution
        monkeypatch.setattr(
            solver, "_validate_solution",
            lambda *a: calls.append(a) or real(*a),
        )
        solve_lubt(topo, bounds)
        assert len(calls) == 1

    def test_valid_direct_solve_runs_no_pair_scan(self, monkeypatch):
        """The certificate settles a valid solve; the O(m^2) scan stays
        idle."""
        import repro.ebf.solver as solver

        topo = random_topo(40, 6, fixed=True)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        calls = []
        real = solver.steiner_violations
        monkeypatch.setattr(
            solver, "steiner_violations",
            lambda *a, **k: calls.append(a) or real(*a, **k),
        )
        sol = solve_lubt(topo, bounds)
        assert sol.stats.backend == "tree"
        assert calls == []

    def test_direct_path_rejects_a_broken_tree_lp(self, monkeypatch):
        """Halving every edge of the tree LP's answer breaks Steiner
        rows; the post-check still names a violated pair."""
        import dataclasses

        import repro.lp.treesolve as treesolve

        real = treesolve.solve_tree

        def halved(lp):
            res = real(lp)
            return dataclasses.replace(res, x=0.5 * res.x)

        monkeypatch.setattr(treesolve, "solve_tree", halved)
        topo = random_topo(40, 6, fixed=True)
        bounds = DelayBounds.unbounded(topo.num_sinks)
        with pytest.raises(
            AssertionError, match=r"Steiner constraint \(\d+,\d+\)"
        ):
            solve_lubt(topo, bounds)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=4, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        fixed=st.booleans(),
        weighted=st.booleans(),
        zeroed=st.booleans(),
        infeasible=st.booleans(),
    )
    def test_auto_agrees_with_scipy(
        self, m, seed, fixed, weighted, zeroed, infeasible
    ):
        """Property: ``auto`` and the scipy lazy loop agree in
        ``canonical_cost`` — feasible or relaxed — and in raising on
        infeasible windows.

        Infeasible draws put every upper bound at 0.6x the radius of a
        fixed source, below the Manhattan floor of the farthest sinks:
        the minimal relaxation is then unique (each such sink's upper
        bound rises to its floor), so both diagnoses relax the same
        bounds whichever backend solves the elastic LP.
        """
        fixed = fixed or infeasible
        topo = random_topo(m, seed, fixed)
        r = radius_of(topo)
        rng = np.random.default_rng(seed)
        kw = {"check_bounds": False}
        if weighted:
            kw["weights"] = np.concatenate(
                [[0.0], rng.uniform(0.5, 2.0, topo.num_nodes - 1)]
            )
        if zeroed:
            interior = [
                i for i in range(1, topo.num_nodes) if not topo.is_sink(i)
            ]
            kw["zero_edges"] = tuple(interior[:2])
        if not infeasible:
            bounds = DelayBounds.uniform(m, 0.9 * r, 1.4 * r)
            auto = solve_lubt(topo, bounds, **kw)
            ref = solve_lubt(topo, bounds, backend="scipy", **kw)
            assert canonical_cost(auto.cost) == canonical_cost(ref.cost)
            return
        bounds = DelayBounds.uniform(m, 0.2 * r, 0.6 * r)
        for backend in ("auto", "scipy"):
            with pytest.raises(InfeasibleError):
                solve_lubt(topo, bounds, backend=backend, **kw)
        auto = solve_lubt(topo, bounds, on_infeasible="relax", **kw)
        ref = solve_lubt(
            topo, bounds, backend="scipy", on_infeasible="relax", **kw
        )
        assert auto.diagnosis is not None and ref.diagnosis is not None
        assert canonical_cost(auto.cost) == canonical_cost(ref.cost)


class TestResilientTreeLane:
    """A resilient solve at or above :data:`TREE_MIN_SINKS` attempts the
    direct tree LP, then its rescaled retry; the lazy loop answers only
    when both fail."""

    @staticmethod
    def _instance(m):
        topo = random_topo(m, 3, fixed=True)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        return topo, bounds, canonical_cost(solve_lubt(topo, bounds).cost)

    @staticmethod
    def _attempts(sol):
        return [
            (a.backend, a.rescaled, a.outcome)
            for report in sol.solve_reports
            for a in report.attempts
        ]

    def test_resilient_auto_takes_the_tree_path(self):
        topo, bounds, want = self._instance(TREE_MIN_SINKS)
        sol = solve_lubt(topo, bounds, resilient=True)
        stats = sol.stats
        assert (stats.backend, stats.rounds, stats.steiner_rows) == (
            "tree", 1, 0
        )
        assert canonical_cost(sol.cost) == want
        assert self._attempts(sol) == [("tree", False, "optimal")]

    @pytest.mark.parametrize("m", [TREE_MIN_SINKS, 64])
    @pytest.mark.parametrize("backend", ["auto", "tree"])
    def test_failed_tree_lane_falls_back_to_the_loop(self, m, backend):
        """Every ``tree`` call raises: the loop answers on the backend
        ``auto`` picks, behind the two tree attempts."""
        topo, bounds, want = self._instance(m)
        solvers = faults.faulty_solvers(
            {"tree": [faults.ExceptionFault("tree down")] * 99}
        )
        sol = solve_lubt(
            topo, bounds, backend=backend, resilient=True, solvers=solvers
        )
        assert canonical_cost(sol.cost) == want
        loop = {"simplex": "simplex", "scipy-highs": "scipy"}[
            sol.stats.backend
        ]
        assert self._attempts(sol) == [
            ("tree", False, "exception"),
            ("tree", True, "exception"),
        ] + [(loop, False, "optimal")] * sol.stats.rounds
        assert sol.stats.lp_fallbacks == 2

    @pytest.mark.parametrize("m", [TREE_MIN_SINKS, 64])
    def test_rescaled_tree_retry_answers(self, m):
        topo, bounds, want = self._instance(m)
        solvers = faults.faulty_solvers(
            {"tree": [faults.ExceptionFault("tree hiccup")]}
        )
        sol = solve_lubt(topo, bounds, resilient=True, solvers=solvers)
        assert (sol.stats.backend, sol.stats.rounds) == ("tree", 1)
        assert canonical_cost(sol.cost) == want
        assert self._attempts(sol) == [
            ("tree", False, "exception"),
            ("tree", True, "optimal"),
        ]

    def test_total_outage_report_lists_the_tree_lane(self):
        topo, bounds, _ = self._instance(TREE_MIN_SINKS)
        down = [faults.ExceptionFault("down")] * 99
        solvers = faults.faulty_solvers(
            {"simplex": down, "scipy": down, "tree": down}
        )
        with pytest.raises(AllBackendsFailedError) as info:
            solve_lubt(topo, bounds, resilient=True, solvers=solvers)
        attempts = info.value.report.attempts
        assert [(a.backend, a.rescaled) for a in attempts] == [
            (name, rescaled)
            for name in ("tree", "simplex", "scipy", "tree")
            for rescaled in (False, True)
        ]
        assert "tree (rescaled): exception" in str(info.value)


class TestServerIntegration:
    def test_backend_tree_is_canonical_option(self):
        from repro.server import instance_key
        from repro.server.dispatch import ALLOWED_OPTIONS, _check_options

        assert "backend" in ALLOWED_OPTIONS
        assert _check_options({"backend": "tree"}) == {"backend": "tree"}
        topo = random_topo(8, 1)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        k_tree = instance_key(topo, bounds, {"backend": "tree"})
        k_auto = instance_key(topo, bounds, {"backend": "auto"})
        assert k_tree != k_auto
        assert k_tree == instance_key(topo, bounds, {"backend": "tree"})


class TestSynthGenerator:
    @settings(max_examples=10, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**20),
        kind=st.sampled_from(["uniform", "clustered"]),
    )
    def test_synth_checks_clean(self, m, seed, kind):
        topo, bounds = synth_instance(m, seed, kind=kind)
        result = check_instance(topo, bounds)
        assert result.ok, result.summary()

    def test_deterministic_in_seed(self):
        a_topo, a_bounds = synth_instance(128, 42)
        b_topo, b_bounds = synth_instance(128, 42)
        assert np.array_equal(a_bounds.lower, b_bounds.lower)
        assert [a_topo.sink_location(i) for i in a_topo.sink_ids()] == [
            b_topo.sink_location(i) for i in b_topo.sink_ids()
        ]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            synth_instance(1, 0)
        with pytest.raises(ValueError):
            synth_instance(16, 0, kind="ring")


def _linprog_reference(lp):
    """``linprog`` on ``solve_tree``'s collapsed model of ``lp``, with
    the settings the backend uses; returns ``(result, edge vector)``
    with the edges recovered as ``solve_tree`` recovers them."""
    model = collapsed_tree_lp(lp)
    res = linprog(
        model.c,
        A_ub=model.a_ub,
        b_ub=model.b_ub,
        bounds=np.column_stack([model.lb, model.ub]),
        method="highs-ds",
        options={"simplex_dual_edge_weight_strategy": "dantzig"},
    )
    if res.x is None:
        return res, None
    parents = np.asarray(lp.tree_meta.parents)
    d = np.concatenate([[0.0], res.x[: parents.size - 1]])
    e = np.maximum(d - d[parents], 0.0)[1:]
    return res, np.minimum(np.maximum(e, lp.lower_bounds), lp.upper_bounds)


def _assert_matches_linprog(lp, ours):
    """``ours`` is ``linprog``'s optimum on the same collapsed model, in
    at most its pivots (a cold start may end on another optimal vertex
    of a degenerate face)."""
    ref, _ = _linprog_reference(lp)
    assert ours.status is LpStatus.OPTIMAL and ref.status == 0
    assert abs(ours.objective - ref.fun) <= 1e-9 * abs(ref.fun)
    assert canonical_cost(ours.objective) == canonical_cost(ref.fun)
    assert ours.iterations <= ref.nit
    return ref


class TestHighsBinding:
    """The tree backend drives HiGHS through its model and basis binding
    instead of ``linprog``; a cold solve gives ``linprog``'s optimum
    from the crash basis."""

    @pytest.mark.parametrize("topology", ["nn", "htree"])
    @pytest.mark.parametrize("m", [8, 64, 300])
    def test_cold_solve_is_linprog_bit_for_bit(self, m, topology):
        topo, bounds = synth_instance(m, 1996, topology=topology)
        lp = build_tree_lp(topo, bounds)
        _assert_matches_linprog(lp, solve_tree(lp))

    def test_zero_edges_are_linprog_bit_for_bit(self):
        topo, bounds = synth_instance(64, 7, topology="nn")
        parents = topo.parent_array()
        root_edge = int(np.flatnonzero(parents[1:] == 0)[0]) + 1
        interior = [int(v) for v in np.flatnonzero(parents[1:] != 0)[:2] + 1]
        lp = build_tree_lp(
            topo, bounds, zero_edges=(root_edge, *interior)
        )
        _assert_matches_linprog(lp, solve_tree(lp))

    def test_infeasible_window_same_status(self):
        # No fixed source, so every window passes assembly; far sink
        # pairs cannot meet their Steiner rows under 0.2 x radius.
        topo = random_topo(16, 3)
        r = radius_of(topo)
        lp = build_tree_lp(topo, DelayBounds.uniform(16, 0.0, 0.2 * r))
        ours = solve_tree(lp)
        ref, _ = _linprog_reference(lp)
        assert ref.status == 2
        assert ours.status is LpStatus.INFEASIBLE

    def test_binding_members_exist(self):
        """Every binding member the backend touches, so a scipy upgrade
        that moves one fails here by name."""
        import scipy.optimize._highspy._core as core

        for name in ("kOptimal", "kInfeasible", "kModelError", "kUnbounded"):
            assert hasattr(core.HighsModelStatus, name)
        for name in ("kLower", "kBasic", "kUpper", "kZero"):
            assert hasattr(core.HighsBasisStatus, name)
        assert hasattr(core.HighsStatus, "kOk")
        assert hasattr(core.HighsStatus, "kError")
        assert hasattr(core.MatrixFormat, "kColwise")
        assert hasattr(core.ObjSense, "kMinimize")
        basis = core.HighsBasis()
        assert hasattr(basis, "col_status") and hasattr(basis, "row_status")
        highs = core._Highs()
        for method in ("setOptionValue", "passModel", "setBasis", "run",
                       "getModelStatus", "getInfo", "getSolution",
                       "getBasicVariables", "modelStatusToString"):
            assert callable(getattr(highs, method))
        for key, value in treesolve._OPTIONS + treesolve._TOUR_OPTIONS:
            assert highs.setOptionValue(key, value) == core.HighsStatus.kOk
        assert hasattr(highs.getInfo(), "simplex_iteration_count")
        solution = highs.getSolution()
        assert hasattr(solution, "col_value") and hasattr(solution, "col_dual")

    def test_exported_basis_is_highs_own(self, monkeypatch):
        """The basis read off the basic index list equals ``getBasis``'s
        (windows from 0.5 x radius fix the farthest sink's column)."""
        seen = []
        real = treesolve._final_basis

        def spy(highs, x, dual, model):
            ours = real(highs, x, dual, model)
            seen.append((ours, highs.getBasis()))
            return ours

        monkeypatch.setattr(treesolve, "_final_basis", spy)
        for m, topology in ((16, "nn"), (64, "htree"), (96, "nn")):
            topo, _ = synth_instance(m, 5, topology=topology)
            r = radius_of(topo)
            for lo, hi in ((0.8, 1.2), (0.5, 1.0), (0.9, 1.1)):
                bounds = DelayBounds.uniform(m, lo * r, hi * r)
                solve_lubt(topo, bounds, backend="tree", warm=WarmStart())
        assert len(seen) == 9
        for (col, row), hb in seen:
            assert col.tolist() == [int(s) for s in hb.col_status]
            assert row.tolist() == [int(s) for s in hb.row_status]


def _assert_dual_feasible(model, basis):
    """NumPy's check, independent of HiGHS, that ``basis`` is a dual
    feasible basis of ``model``: as many nonbasic entries as columns, a
    full-rank basis matrix, and duals that give every nonbasic column a
    reduced cost of its bound's sign and every nonbasic row a dual
    <= 0."""
    col, row = basis
    lower, upper, basic = treesolve._LOWER, treesolve._UPPER, treesolve._BASIC
    a = model.a_ub.toarray()
    nrows, nvar = a.shape
    assert col.shape == (nvar,) and row.shape == (nrows,)
    assert np.count_nonzero(col != basic) + np.count_nonzero(row != basic) == nvar
    assert set(np.unique(col)) <= {lower, upper, basic}
    assert set(np.unique(row)) <= {upper, basic}
    # Basic structural columns plus the unit columns of basic rows.
    bcols, brows = np.flatnonzero(col == basic), np.flatnonzero(row == basic)
    mat = np.hstack([a[:, bcols], np.eye(nrows)[:, brows]])
    assert np.linalg.matrix_rank(mat) == nrows
    y = np.linalg.solve(
        mat.T, np.concatenate([model.c[bcols], np.zeros(brows.size)])
    )
    reduced = model.c - a.T @ y
    tol = 1e-9 * max(1.0, float(np.abs(model.c).max()))
    assert np.all(reduced[col == lower] >= -tol)
    assert np.all(reduced[col == upper] <= tol)
    assert np.all(y[row == upper] <= tol)
    # Nonbasic columns sit on finite bounds.
    assert np.all(np.isfinite(model.lb[col == lower]))
    assert np.all(np.isfinite(model.ub[col == upper]))


class TestCrashBasis:
    """Cold tree solves start from a dual feasible basis built from the
    topology (``crash_basis``), so dual simplex skips its phase 1 and
    starts where the binding geometry rows place the Steiner points."""

    @staticmethod
    def _zero_edge_lp(m=48):
        topo, bounds = synth_instance(m, 7, topology="nn")
        parents = topo.parent_array()
        root_edge = int(np.flatnonzero(parents[1:] == 0)[0]) + 1
        interior = [int(v) for v in np.flatnonzero(parents[1:] != 0)[:2] + 1]
        return build_tree_lp(topo, bounds, zero_edges=(root_edge, *interior))

    @staticmethod
    def _weighted_lp(m=40):
        topo, bounds = synth_instance(m, 3, topology="nn")
        rng = np.random.default_rng(2)
        weights = np.concatenate(
            [[0.0], rng.uniform(0.5, 2.0, topo.num_nodes - 1)]
        )
        return build_tree_lp(topo, bounds, weights=weights)

    @staticmethod
    def _chain_lp(m, seed, lo, hi):
        topo = sink_chain_topo(m, seed, fixed=seed % 2 == 0)
        return build_tree_lp(topo, chain_window(topo, lo, hi))

    CASES = {
        "nn": lambda: build_tree_lp(*synth_instance(64, 1996, topology="nn")),
        "htree": lambda: build_tree_lp(
            *synth_instance(64, 1996, topology="htree")
        ),
        "chain": lambda: TestCrashBasis._chain_lp(14, 4, 0.0, 1.2),
        "chain-stretched": lambda: TestCrashBasis._chain_lp(11, 7, 0.3, 1.5),
        "weighted": lambda: TestCrashBasis._weighted_lp(),
        "zero-edges": lambda: TestCrashBasis._zero_edge_lp(),
        "two-sinks": lambda: build_tree_lp(*synth_instance(2, 5)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_a_dual_feasible_basis(self, case):
        model = collapsed_tree_lp(self.CASES[case]())
        basis = crash_basis(model)
        assert basis is not None
        _assert_dual_feasible(model, basis)

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=14),
        seed=st.integers(min_value=0, max_value=300),
        chain=st.booleans(),
        weighted=st.booleans(),
    )
    def test_random_trees_give_a_dual_feasible_crash(
        self, m, seed, chain, weighted
    ):
        fixed = seed % 2 == 0
        topo = sink_chain_topo(m, seed, fixed) if chain else random_topo(
            m, seed, fixed
        )
        weights = None
        if weighted:
            rng = np.random.default_rng(seed)
            weights = np.concatenate(
                [[0.0], rng.uniform(0.0, 2.0, topo.num_nodes - 1)]
            )
        r = radius_of(topo)
        bounds = DelayBounds.uniform(m, 0.5 * r, (1.5 + m) * r)
        model = collapsed_tree_lp(build_tree_lp(topo, bounds, weights=weights))
        basis = crash_basis(model)
        assert basis is not None
        _assert_dual_feasible(model, basis)

    @pytest.mark.parametrize(
        "m, topology, window",
        [(64, "nn", (0.8, 1.2)), (96, "nn", (0.5, 1.1)),
         (64, "htree", (0.8, 1.2)), (128, "htree", (0.7, 1.3))],
    )
    def test_flow_runs_through_the_binding_geometry_rows(
        self, m, topology, window
    ):
        """On a full binary tree every Steiner node routes its cost
        through one geometry row, the one binding at the sinks' lower
        bounds, never through a monotonicity row; every auxiliary ties
        to a group attaining its estimated minimum."""
        topo, _ = synth_instance(m, 5, topology=topology)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(m, window[0] * r, window[1] * r)
        model = collapsed_tree_lp(build_tree_lp(topo, bounds))
        col, row = crash_basis(model)
        t, basic = model.layout, treesolve._BASIC
        parents = topo.parent_array()
        n = parents.size
        children = [[] for _ in range(n)]
        for v in range(1, n):
            children[int(parents[v])].append(v)
        # Estimated value of each sink in the 4 auxiliary columns: its
        # lower bound plus its self row's rhs; then subtree minima.
        est = np.full((n, 4), np.inf)
        for s in range(1, m + 1):
            assert not children[s]  # sinks are leaves
            est[s] = model.lb[s - 1] + model.b_ub[t.self_row[s] + np.arange(4)]
        for v in reversed(np.concatenate(t.levels)):
            est[parents[v]] = np.minimum(est[parents[v]], est[v])
        a = model.a_ub.tocsc()
        for k in range(m + 1, n):
            assert len(children[k]) == 2
            assert model.c[k - 1] < 0.0  # out = -c > 0: the delay is basic
            assert col[k - 1] == basic
            lo, hi = a.indptr[k - 1], a.indptr[k]
            geo = a.indices[lo:hi][a.data[lo:hi] == 2.0]
            assert geo.size == 2
            bind = 1 if est[k, 2] + est[k, 3] < est[k, 0] + est[k, 1] else 0
            assert row[geo[bind]] != basic and row[geo[1 - bind]] == basic
            for c in children[k]:
                assert row[t.mono_row[c]] == basic
        for k in np.flatnonzero(t.auxpos >= 0):
            for q in range(4):
                ties = [c for c in children[k] if row[t.tie_row[c] + q] != basic]
                assert len(ties) == 1, (k, q, ties)
                assert est[ties[0], q] == est[k, q]

    def test_halves_the_pivots(self, monkeypatch):
        # Past TOUR_MIN_SINKS a cold solve starts at the tour start; keep
        # this one on the crash.
        monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", 10**9)
        topo, bounds = synth_instance(300, 1996)
        lp = build_tree_lp(topo, bounds)
        ours = solve_tree(lp)
        ref = _assert_matches_linprog(lp, ours)
        assert ours.iterations <= 0.3 * ref.nit, (ours.iterations, ref.nit)

    @pytest.mark.parametrize("seed", [7, 1996])
    def test_large_htree_pivots(self, seed, monkeypatch):
        """On an H-tree net, the topology of perfbench's ``large-net``, a
        512-sink solve from the crash takes at most 0.3x the pivots of
        HiGHS's own start."""
        monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", 10**9)
        topo, bounds = synth_instance(512, seed, topology="htree")
        lp = build_tree_lp(topo, bounds)
        ours = solve_tree(lp)
        ref = _assert_matches_linprog(lp, ours)
        assert ours.iterations <= 0.3 * ref.nit, (ours.iterations, ref.nit)

    def test_unbounded_window_gets_no_crash(self):
        topo = random_topo(12, 5)
        bounds = DelayBounds.unbounded(12)
        assert crash_basis(collapsed_tree_lp(build_tree_lp(topo, bounds))) is None
        tree, ref = _solve_pair(topo, bounds)
        assert canonical_cost(tree.cost) == canonical_cost(ref.cost)

    def test_point_windows_get_no_crash(self):
        topo, _ = synth_instance(64, 1996)
        bounds = DelayBounds.zero_skew(64, 1.1 * radius_of(topo))
        lp = build_tree_lp(topo, bounds)
        assert crash_basis(collapsed_tree_lp(lp)) is None
        result = solve_tree(lp)
        assert result.status is LpStatus.OPTIMAL
        assert result.iterations == 0

    @pytest.mark.parametrize(
        "case", ["nn", "htree", "chain", "weighted", "zero-edges"]
    )
    def test_leaf_sinks_keep_no_auxiliaries(self, case):
        lp = self.CASES[case]()
        meta = lp.tree_meta
        parents, m = np.asarray(meta.parents), meta.num_sinks
        n = parents.size
        nsink = np.zeros(n, dtype=int)
        for s in range(1, m + 1):
            v = s
            while True:
                nsink[v] += 1
                if v == 0:
                    break
                v = int(parents[v])
        leaf = np.bincount(parents[1:], minlength=n) == 0
        leaf_sink = leaf & (np.arange(n) >= 1) & (np.arange(n) <= m)
        holders = np.count_nonzero((nsink > 0) & ~leaf_sink)
        model = collapsed_tree_lp(lp)
        assert model.a_ub.shape[1] == (n - 1) + 4 * holders


@functools.cache
def _nets():
    """Full binary nets of every ``build_net_topology`` kind, at and
    below ``TOUR_MIN_SINKS``; one has its source off the die's diagonal,
    where swapping ``x`` and ``y`` changes the tree."""
    sinks = uniform_sinks(96, seed=3)
    off = nearest_neighbor_topology(sinks, Point(1234.0, 8765.0))
    return {
        "nn": synth_instance(64, 1996, topology="nn"),
        "nn-off-diagonal": (off, None),
        "bipartition": synth_instance(96, 1996, topology="bipartition"),
        "htree": synth_instance(128, 1996, topology="htree"),
        "bipartition-256": synth_instance(256, 7, topology="bipartition"),
    }


class TestTourStart:
    """Cold tree solves from ``TOUR_MIN_SINKS`` sinks up start at the
    tour start (``tour_basis``): a dual feasible basis placed at the
    optimum of the tree under ``[0, inf)`` windows."""

    WINDOWS = ((0.8, 1.2), (0.5, 1.0), (0.9, 1.0), (0.0, np.inf))

    @staticmethod
    def _model(topo, lo, hi):
        r = radius_of(topo)
        bounds = DelayBounds.uniform(topo.num_sinks, lo * r, hi * r)
        return collapsed_tree_lp(build_tree_lp(topo, bounds))

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("case", sorted(_nets()))
    def test_is_a_dual_feasible_basis(self, case, window):
        topo, _ = _nets()[case]
        model = self._model(topo, *window)
        basis = tour_basis(model)
        assert basis is not None
        _assert_dual_feasible(model, basis)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=10_000),
        merge=st.sampled_from(["random", "nn"]),
        window=st.sampled_from(WINDOWS),
    )
    def test_random_full_binary_trees(self, m, seed, merge, window):
        topo = (
            random_binary_topo(m, seed) if merge == "random"
            else random_topo(m, seed, fixed=True)
        )
        model = self._model(topo, *window)
        basis = tour_basis(model)
        if basis is None:
            # Point windows keep presolve; rarely, random pairings close
            # a cycle of flow rows the peel cannot break, and the start
            # fails its checks (the solve takes the crash).
            points = np.all(model.lb[:m] == model.ub[:m])
            assert points or merge == "random"
            return
        _assert_dual_feasible(model, basis)

    @pytest.mark.parametrize("case", sorted(_nets()))
    def test_steiner_optimum_is_the_unbounded_lp_optimum(self, case):
        """The separable per-axis DP gives the optimum of the ``[0, inf)``
        LP, and the tour start's basic solution equals it at every
        column the basis derives through rows tight there, from bounds
        the optimum sits on: most of them where both end leaves do."""
        topo, _ = _nets()[case]
        model = self._model(topo, 0.0, np.inf)
        x = steiner_optimum(model, treesolve._binary_children(model.layout))
        res = linprog(
            model.c, A_ub=model.a_ub, b_ub=model.b_ub,
            bounds=np.column_stack([model.lb, model.ub]), method="highs-ds",
        )
        assert abs(model.c @ x - res.fun) <= 1e-12 * abs(res.fun)
        tol = 1e-9 * np.abs(x).max()
        assert np.all(model.a_ub @ x <= model.b_ub + tol)
        col, row = tour_basis(model)
        a = model.a_ub.toarray()
        nb_rows = np.flatnonzero(row != treesolve._BASIC)
        nb_cols = np.flatnonzero(col != treesolve._BASIC)
        basic = np.flatnonzero(col == treesolve._BASIC)
        value = np.zeros(x.size)
        value[nb_cols] = model.lb[nb_cols]
        value[basic] = np.linalg.solve(
            a[np.ix_(nb_rows, basic)],
            model.b_ub[nb_rows] - a[np.ix_(nb_rows, nb_cols)] @ value[nb_cols],
        )
        # Peel the basis: a row with one unknown column fixes it, exactly
        # when the row is tight at x and its other columns are exact.
        exact = {int(j): abs(value[j] - x[j]) <= tol for j in nb_cols}
        tight = model.b_ub - a @ x <= tol
        pending = list(nb_rows)
        while pending:
            left = []
            for r in pending:
                cols = np.flatnonzero(a[r])
                unknown = [int(j) for j in cols if int(j) not in exact]
                if len(unknown) != 1:
                    left.append(r)
                    continue
                exact[unknown[0]] = bool(tight[r]) and all(
                    exact[int(j)] for j in cols if int(j) != unknown[0]
                )
            assert len(left) < len(pending)  # triangular
            pending = left
        derived = np.array([j for j, ok in exact.items() if ok])
        assert np.allclose(value[derived], x[derived], rtol=0.0, atol=tol)
        # An end leaf whose source path is not monotone sits below its
        # optimum delay, and what the basis derives from it moves too.
        if all(exact[int(j)] for j in nb_cols):
            assert derived.size >= 0.5 * x.size, (derived.size, x.size)

    @staticmethod
    def _fallback_models():
        nn, bounds = synth_instance(64, 1996, topology="nn")
        parents = nn.parent_array()
        interior = int(np.flatnonzero(parents[1:] != 0)[0]) + 1
        rng = np.random.default_rng(2)
        weights = np.concatenate(
            [[0.0], rng.uniform(0.5, 2.0, nn.num_nodes - 1)]
        )
        star = star_topology(
            [nn.sink_location(i) for i in nn.sink_ids()], nn.source_location
        )
        free = random_topo(40, 3, fixed=False)
        chain = sink_chain_topo(14, 4, fixed=True)
        return {
            "free source": build_tree_lp(
                free, DelayBounds.normalized(free, 0.8, 1.2)
            ),
            "weights": build_tree_lp(nn, bounds, weights=weights),
            "pinned edge": build_tree_lp(nn, bounds, zero_edges=(interior,)),
            "interior sinks": build_tree_lp(chain, chain_window(chain, 0.0, 1.2)),
            "non-binary node": build_tree_lp(
                star, DelayBounds.normalized(star, 0.8, 1.2)
            ),
        }

    @pytest.mark.parametrize(
        "case",
        ["free source", "weights", "pinned edge", "interior sinks",
         "non-binary node"],
    )
    def test_fallbacks_start_from_the_crash(self, case, monkeypatch):
        monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", 2)
        model = collapsed_tree_lp(self._fallback_models()[case])
        assert tour_basis(model) is None
        starts = list(treesolve._cold_starts(model))
        crash = crash_basis(model)
        assert len(starts) == 1
        (start, options), = starts
        assert all(np.array_equal(a, b) for a, b in zip(start, crash))
        assert options == ()

    def test_failed_check_starts_from_the_crash(self, monkeypatch):
        monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", 2)
        monkeypatch.setattr(
            treesolve, "_is_dual_feasible_start", lambda *a: False
        )
        model = self._model(_nets()["nn"][0], 0.8, 1.2)
        assert tour_basis(model) is None
        ((start, options),) = treesolve._cold_starts(model)
        assert all(np.array_equal(a, b) for a, b in zip(start, crash_basis(model)))
        assert options == ()

    def test_small_nets_and_point_windows_keep_their_starts(self):
        """Below ``TOUR_MIN_SINKS`` a cold solve starts from the crash;
        all-point windows keep presolve (no start at all)."""
        topo, _ = _nets()["nn"]
        assert topo.num_sinks < TOUR_MIN_SINKS
        model = self._model(topo, 0.8, 1.2)
        ((start, options),) = treesolve._cold_starts(model)
        assert all(np.array_equal(a, b) for a, b in zip(start, crash_basis(model)))
        assert options == ()
        big, _ = _nets()["bipartition-256"]
        points = DelayBounds.zero_skew(256, 1.1 * radius_of(big))
        model = collapsed_tree_lp(build_tree_lp(big, points))
        assert tour_basis(model) is None
        assert list(treesolve._cold_starts(model)) == []

    def test_rescaled_copy_keeps_the_tour_start(self):
        """The cascade's rescaled retry scales the source with the sinks,
        so it starts at the tour start too."""
        from repro.resilience import rescale_lp

        topo, bounds = synth_instance(256, 7, topology="bipartition")
        lp = build_tree_lp(topo, bounds)
        scaled, s = rescale_lp(lp)
        assert np.allclose(scaled.tree_meta.source_uv * s, lp.tree_meta.source_uv)
        assert tour_basis(collapsed_tree_lp(scaled)) is not None

    def test_unbounded_windows_get_a_start(self):
        topo, _ = _nets()["bipartition-256"]
        model = self._model(topo, 0.0, np.inf)
        assert crash_basis(model) is None
        ((start, options),) = treesolve._cold_starts(model)
        assert start is not None
        assert options == treesolve._TOUR_OPTIONS

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("topology", ["bipartition", "htree"])
    def test_canonical_parity_with_linprog(self, topology, window):
        topo, _ = synth_instance(256, 11, topology=topology)
        r = radius_of(topo)
        bounds = DelayBounds.uniform(256, window[0] * r, window[1] * r)
        lp = build_tree_lp(topo, bounds)
        assert tour_basis(collapsed_tree_lp(lp)) is not None
        _assert_matches_linprog(lp, solve_tree(lp))

    @pytest.mark.parametrize("topology", ["bipartition", "htree"])
    def test_takes_fewer_pivots_than_the_crash(self, topology):
        """At 512 sinks the tour start takes at most 0.4x the crash's
        pivots (~0.2x measured)."""
        topo, bounds = synth_instance(512, 3, topology=topology)
        model = collapsed_tree_lp(build_tree_lp(topo, bounds))
        _, tour, *_ = treesolve._solve_highs(
            model, [(tour_basis(model), treesolve._TOUR_OPTIONS)], False
        )
        _, crash, *_ = treesolve._solve_highs(
            model, [(crash_basis(model), ())], False
        )
        assert tour <= 0.4 * crash, (tour, crash)

    def test_pricing_follows_the_start_highs_takes(self, monkeypatch):
        """Devex from the tour start; Dantzig from a carried basis, from
        the crash, and from the crash where the tour start is dropped."""
        key = "simplex_dual_edge_weight_strategy"
        objects, seen = [], []
        real_accepts, real_solve = treesolve._accepts, treesolve._solve_highs

        def accepts(highs, start):
            objects.append(highs)
            return real_accepts(highs, start)

        def solve(*args):
            out = real_solve(*args)
            seen.append(objects[-1].getOptionValue(key)[1])
            return out

        monkeypatch.setattr(treesolve, "_accepts", accepts)
        monkeypatch.setattr(treesolve, "_solve_highs", solve)
        topo, bounds = synth_instance(256, 7, topology="bipartition")
        lp = build_tree_lp(topo, bounds)
        lp.tree_meta.return_basis = True
        lp.tree_meta.basis = solve_tree(lp).basis
        solve_tree(lp)
        lp.tree_meta.basis = None
        monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", 10**9)
        solve_tree(lp)
        monkeypatch.setattr(treesolve, "TOUR_MIN_SINKS", 2)
        monkeypatch.setattr(
            treesolve, "_is_dual_feasible_start", lambda *a: False
        )
        solve_tree(lp)
        assert seen == [1, 0, 0, 0]

    def test_highs_accepts_every_emitted_start(self, monkeypatch):
        verdicts = []
        real = treesolve._accepts

        def spy(highs, start):
            verdicts.append(real(highs, start))
            return verdicts[-1]

        monkeypatch.setattr(treesolve, "_accepts", spy)
        for topo, _ in _nets().values():
            for window in self.WINDOWS[:3]:
                model = self._model(topo, *window)
                for start in (tour_basis(model), crash_basis(model)):
                    treesolve._solve_highs(model, [(start, ())], False)
        assert len(verdicts) == 2 * 3 * len(_nets()) and all(verdicts)

    def test_count_inconsistent_basis_is_refused(self):
        """A carried basis with one basic entry too few is refused: the
        solve starts from the next start and gives the cold answer in
        the cold pivots."""
        topo, bounds = synth_instance(256, 7, topology="bipartition")
        lp = build_tree_lp(topo, bounds)
        cold = solve_tree(lp)
        col, row = tour_basis(collapsed_tree_lp(lp))
        col = col.copy()
        col[np.flatnonzero(col == treesolve._BASIC)[0]] = treesolve._LOWER
        lp.tree_meta.basis = (col, row)
        warm = solve_tree(lp)
        assert warm.iterations == cold.iterations
        assert np.array_equal(warm.x, cold.x)


#: The request windows of perfbench's ``server-mix`` (x radius).
MIX_WINDOWS = tuple(
    (lo, max(lo + w, 1.0))
    for lo in (0.5, 0.6, 0.7, 0.8, 0.9)
    for w in (0.2, 0.3, 0.4, 0.6)
)


class TestWarmBasis:
    """A carried basis is a starting point only: warm answers match cold
    ones canonically, in a fraction of the pivots of HiGHS's own start
    and of the crash start."""

    @pytest.mark.parametrize("m", [32, 64, 96])
    def test_window_sweep_warm_matches_cold(self, m):
        topo, _ = synth_instance(m, 11, topology="nn")
        r = radius_of(topo)
        windows = [
            DelayBounds.uniform(m, lo * r, hi * r) for lo, hi in MIX_WINDOWS
        ]
        # solve_lubt runs the exact post-check on every point and raises
        # on a failure, warm or cold.
        warm = solve_sweep(topo, windows, backend="tree")
        cold = solve_sweep(topo, windows, backend="tree", warm=False)
        for w, c in zip(warm, cold):
            assert canonical_cost(w.cost) == canonical_cost(c.cost)
        warm_iters = np.median([s.stats.lp_iterations for s in warm])
        cold_iters = np.median([s.stats.lp_iterations for s in cold])
        # HiGHS's own start: linprog on the same collapsed models.
        own_iters = np.median([
            _linprog_reference(build_tree_lp(topo, b))[0].nit
            for b in windows
        ])
        assert warm_iters <= own_iters / 10, (warm_iters, own_iters)
        assert warm_iters <= cold_iters / 4, (warm_iters, cold_iters)

    def _cold(self, topo, bounds):
        return solve_lubt(topo, bounds, backend="tree")

    def test_basis_of_another_shape_is_ignored(self):
        topo, bounds = synth_instance(32, 2, topology="nn")
        parents = topo.parent_array()
        interior = int(np.flatnonzero(parents[1:] != 0)[0]) + 1
        ws = WarmStart()
        solve_lubt(topo, bounds, backend="tree", warm=ws,
                   zero_edges=(interior,))
        # The pinned edge added a row: the basis is one row too long.
        shape = tuple(a.size for a in ws.basis)
        sol = solve_lubt(topo, bounds, backend="tree", warm=ws)
        cold = self._cold(topo, bounds)
        assert tuple(a.size for a in ws.basis) != shape
        assert np.array_equal(sol.edge_lengths, cold.edge_lengths)
        assert sol.stats.lp_iterations == cold.stats.lp_iterations

    def test_basis_of_another_topology_is_dropped(self):
        topo_a, bounds_a = synth_instance(32, 2, topology="nn")
        topo_b, bounds_b = synth_instance(32, 3, topology="nn")
        ws = WarmStart()
        solve_lubt(topo_a, bounds_a, backend="tree", warm=ws)
        sol = solve_lubt(topo_b, bounds_b, backend="tree", warm=ws)
        cold = self._cold(topo_b, bounds_b)
        assert np.array_equal(sol.edge_lengths, cold.edge_lengths)
        assert sol.stats.lp_iterations == cold.stats.lp_iterations

    def test_shuffled_basis_still_gives_the_cold_answer(self):
        topo, bounds = synth_instance(64, 4, topology="nn")
        r = radius_of(topo)
        ws = WarmStart()
        solve_lubt(topo, bounds, backend="tree", warm=ws)
        rng = np.random.default_rng(0)
        col, row = ws.basis
        ws.basis = (rng.permutation(col), rng.permutation(row))
        window = DelayBounds.uniform(64, 0.6 * r, 1.1 * r)
        sol = solve_lubt(topo, window, backend="tree", warm=ws)
        assert canonical_cost(sol.cost) == canonical_cost(
            self._cold(topo, window).cost
        )
