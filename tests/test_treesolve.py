"""Tests for the tree-structured LP backend (:mod:`repro.lp.treesolve`).

The collapsed node-potential formulation must be *exactly* equivalent to
the flat edge-variable EBF: same optimal cost (under
:func:`~repro.ebf.sweep.canonical_cost` — degenerate optimal faces may
return different vertices), same feasibility verdicts, same infeasibility
diagnoses.  These tests pin that equivalence across bound styles,
topologies, suites, and the resilience/server integration seams.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import check_instance
from repro.data import load_benchmark, synth_instance
from repro.delay import tree_cost
from repro.ebf import DelayBounds, build_ebf_lp, solve_lubt
from repro.ebf.bounds import radius_of
from repro.ebf.constraints import seed_constraint_pairs
from repro.ebf.formulation import expand_edge_vector
from repro.ebf.solver import TREE_MIN_SINKS
from repro.ebf.sweep import WarmStart, canonical_cost
from repro.geometry import Point
from repro.lp import (
    BackendCapabilityError,
    InfeasibleError,
    LpStatus,
    solve_lp,
    solve_tree,
)
from repro.resilience import (
    DEFAULT_CHAIN,
    default_solvers,
    diagnose_infeasibility,
    solve_lp_resilient,
)
from repro.topology import nearest_neighbor_topology


def random_topo(m, seed, fixed=False):
    rng = np.random.default_rng(seed)
    pts = [Point(float(x), float(y)) for x, y in rng.integers(0, 60, (m, 2))]
    src = Point(30.0, 30.0) if fixed else None
    return nearest_neighbor_topology(pts, src)


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

    def test_diagnosis_identical_to_generic(self):
        topo, bounds = self._impossible()
        via_tree = diagnose_infeasibility(topo, bounds, backend="tree")
        via_auto = diagnose_infeasibility(topo, bounds, backend="auto")
        assert (
            sorted(r.sink for r in via_tree.conflicting)
            == sorted(r.sink for r in via_auto.conflicting)
        )
        assert via_tree.total_slack == pytest.approx(via_auto.total_slack)

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

    def test_declines_rescaled_copy(self):
        from repro.resilience.fallback import rescale_lp

        topo = random_topo(6, 2)
        lp = build_ebf_lp(topo, DelayBounds.unbounded(6))
        scaled, _ = rescale_lp(lp)
        with pytest.raises(BackendCapabilityError):
            solve_tree(scaled)

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
            lp, solvers={"simplex": boom, "scipy": boom}, rescale_retry=False
        )
        assert report.result is not None
        assert report.result.backend == "tree"
        # build_ebf_lp defaults to the full Steiner family, so the tree
        # answer is the final LUBT cost, not a lazy lower bound.
        ref = solve_lubt(topo, bounds, backend="scipy")
        assert canonical_cost(report.result.objective) == canonical_cost(ref.cost)

    def test_race_auto_includes_tree(self):
        topo = random_topo(10, 6)
        lp = build_ebf_lp(topo, DelayBounds.normalized(topo, 0.8, 1.3))
        report = solve_lp_resilient(lp, race="auto")
        assert report.result is not None
        assert "tree" in report.backends_tried


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
        topo = random_topo(TREE_MIN_SINKS, 4)
        bounds = DelayBounds.normalized(topo, 0.8, 1.2)
        for kw in (
            {"mode": "full"},
            {"resilient": True},
            {"backend": "scipy"},
            {"backend": "simplex"},
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
        # An explicit tree solve neither reads nor feeds a warm store.
        assert warm.solves == 0

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
