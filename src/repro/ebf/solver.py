"""The LUBT solver: EBF LP + (optional) lazy constraint generation.

``mode="full"`` builds all C(m,2) Steiner rows up front — the literal
formulation of Section 4.3.  ``mode="lazy"`` implements the Section 4.6
constraint reduction as sound row generation: seed with the farthest cross
pair per branching node, solve, add violated rows, repeat.  Both modes end
with an exact all-pairs violation check, so a returned solution always
satisfies *every* Steiner constraint; by LP optimality it is the minimum
cost LUBT for the topology (Theorem 4.2).

A lazy solve on the tree backend skips the loop: the collapsed
node-potential LP (:mod:`repro.lp.treesolve`) holds every Steiner row, so
one solve on a row-less stamped model is the whole LUBT.  ``"auto"``
takes that path from :data:`TREE_MIN_SINKS` sinks up unless a warm store
asks for the loop's carried rows (see :func:`direct_tree_path`).  A
resilient solve takes the same path: ``resilient`` changes how that LP is
attempted (the tree backend, then its rescaled retry), and only when both
attempts fail does the lazy loop answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.delay import node_delays_linear, tree_cost
from repro.ebf.bounds import BoundsError, DelayBounds
from repro.ebf.constraints import (
    all_sink_pairs,
    seed_constraint_pairs,
    steiner_certificate,
    steiner_violations,
)
from repro.ebf.formulation import (
    add_steiner_rows,
    build_ebf_lp,
    build_tree_lp,
    expand_edge_vector,
)
from repro.lp import InfeasibleError, solve_lp
from repro.lp.solve import preferred_backend
from repro.resilience.errors import AllBackendsFailedError
from repro.resilience.fallback import backend_chain, solve_lp_resilient

_VIOLATION_TOL = 1e-6
#: Slack of the exact post-solve checks (delay windows, Steiner rows).
_CHECK_TOL = 1e-5
#: Cap on the LP solves of one lazy row-generation loop; a loop that has
#: not converged by then raises ``RuntimeError``.
MAX_ROUNDS = 60

#: Sink count from which a lazy ``backend="auto"`` solve without a warm
#: store takes the direct tree path instead of the lazy loop on the
#: dense simplex / HiGHS, resilient or not.  A module constant, not an
#: option.  It was the measured tie of the two paths until cold tree
#: solves started from the crash basis; since then the tree path is
#: faster at every measured size, from 4 sinks up (``auto_crossover`` in
#: BENCH_scaling.json, written by ``benchmarks/bench_scaling.py``).  It
#: stays at 8 while perfbench's self-test expects ``cts-chip``'s 6-sink
#: nets on the simplex lazy loop, and moves with the next change to
#: the benchmark (ROADMAP.md).
TREE_MIN_SINKS = 8


def direct_tree_path(
    num_sinks: int,
    *,
    backend: str = "auto",
    mode: str = "lazy",
    warm=None,
) -> bool:
    """Whether :func:`solve_lubt` answers with one tree LP instead of the
    lazy loop.

    True for a lazy solve on ``"tree"``, and on ``"auto"`` from
    :data:`TREE_MIN_SINKS` sinks up when no ``warm`` store is given: a
    warm store asks for the Steiner rows only the loop finds and reuses,
    so it keeps ``"auto"`` on the loop.  ``resilient`` plays no part: a
    resilient direct solve attempts the same tree LP, and falls back to
    the loop only when every tree attempt fails.
    """
    if mode != "lazy":
        return False
    if backend == "tree":
        return True
    return backend == "auto" and warm is None and num_sinks >= TREE_MIN_SINKS


@dataclass(frozen=True)
class SolveStats:
    """Diagnostics for one LUBT solve."""

    backend: str
    mode: str
    rounds: int
    steiner_rows: int
    total_pairs: int
    lp_iterations: int
    wall_seconds: float
    #: Extra LP attempts (retries + backend switches) under resilient mode.
    lp_fallbacks: int = 0
    #: Wall-clock spent inside LP backends, total and per LP solve (one
    #: per lazy round, and one for a failed tree lane before them).
    lp_seconds: float = 0.0
    round_lp_seconds: tuple[float, ...] = ()
    #: Steiner rows seeded from a :class:`~repro.ebf.sweep.WarmStart`
    #: carry-over before the first LP solve (lazy mode only).
    warm_rows: int = 0
    #: Wall-clock of the embedding stage.  The solver itself never embeds;
    #: :func:`repro.embedding.solve_and_embed` stamps this in afterwards.
    embed_seconds: float = 0.0

    @property
    def assembly_seconds(self) -> float:
        """Non-LP time inside the solve: row generation, violation scans,
        bookkeeping (embedding excluded — it happens after the solve)."""
        return max(0.0, self.wall_seconds - self.lp_seconds)


@dataclass(frozen=True)
class LubtSolution:
    """A minimum-cost LUBT for a fixed topology (edge lengths only).

    Steiner point *locations* are recovered separately by
    :func:`repro.embedding.embed_tree`, mirroring the paper's two stage
    structure (LP first, DME-style placement second).

    ``lp``/``lp_result`` are retained when ``solve_lubt(keep_lp=True)``
    so downstream analyses (e.g. delay-bound shadow prices) can read row
    duals without re-solving.

    ``diagnosis`` is set only on the graceful-degradation path
    (``on_infeasible="relax"``): the original bounds were infeasible and
    ``bounds`` here are the minimally relaxed ones the diagnosis
    produced.  ``solve_reports`` (resilient mode) records every LP
    attempt the fallback chain made, one report per LP solve.
    """

    topology: object
    bounds: DelayBounds
    edge_lengths: np.ndarray
    cost: float
    delays: np.ndarray
    stats: SolveStats
    weights: np.ndarray | None = field(default=None, repr=False)
    lp: object | None = field(default=None, repr=False, compare=False)
    lp_result: object | None = field(default=None, repr=False, compare=False)
    diagnosis: object | None = field(default=None, repr=False, compare=False)
    solve_reports: tuple = field(default=(), repr=False, compare=False)

    @property
    def skew(self) -> float:
        return float(self.delays.max() - self.delays.min())

    @property
    def shortest_delay(self) -> float:
        return float(self.delays.min())

    @property
    def longest_delay(self) -> float:
        return float(self.delays.max())


def solve_lubt(
    topo,
    bounds: DelayBounds,
    *,
    weights=None,
    zero_edges=(),
    backend: str = "auto",
    mode: str = "lazy",
    batch: int = 4000,
    check_bounds: bool = True,
    validate: bool | str = True,
    keep_lp: bool = False,
    resilient: bool = False,
    on_infeasible: str = "raise",
    warm=None,
    breakers=None,
    solvers=None,
) -> LubtSolution:
    """Solve the LUBT problem for a fixed topology (Definition 2.1).

    Raises :class:`repro.lp.InfeasibleError` when no LUBT exists for the
    topology and bounds — per Section 9, EBF infeasibility is exactly that
    certificate.

    Parameters
    ----------
    backend:
        ``"auto"`` (default), ``"simplex"``, ``"scipy"``, or ``"tree"``
        — the structure-aware node-potential solver
        (:mod:`repro.lp.treesolve`) that solves the *entire* Steiner
        family in one collapsed O(n)-row LP.  A lazy solve on
        ``"tree"`` takes the direct path: one tree LP on a row-less
        stamped model, no seed rows, no loop, no warm rows
        (``rounds == 1``, ``steiner_rows == 0``), the exact
        post-validation kept; with a ``warm`` store it starts from the
        store's basis.  ``"auto"`` means ``"tree"`` there from
        :data:`TREE_MIN_SINKS` sinks up when ``warm`` is ``None``;
        otherwise — below the constant, with a warm store, in full
        mode — it is a size-based simplex/scipy choice
        (:func:`direct_tree_path`).
    mode:
        ``"lazy"`` (Section 4.6 row generation, default) or ``"full"``
        (all C(m,2) Steiner rows up front).
    batch:
        Most-violated rows added per lazy round (at most
        :data:`MAX_ROUNDS` rounds).
    check_bounds:
        Verify Definition 2.1's Eq. 3/4 validity conditions first.  Turn
        off to probe infeasible bound sets deliberately.
    validate:
        Static pre-check (:func:`repro.check.check_instance`) plus exact
        post-checks.  ``"strict"`` raises
        :class:`repro.check.InstanceCheckError` on any error-severity
        diagnostic before solving — in strict mode the built LP is
        checked too; ``"warn"`` (= ``True``, the default) surfaces
        error findings as :class:`~repro.check.DiagnosticWarning`
        warnings and solves anyway; ``"off"`` (= ``False``) skips both
        the pre-check and the post-solve validation.
        ``check_bounds=False`` also disables the pre-check's geometric
        floor (``BD005``), keeping the two knobs consistent.
    resilient:
        Route every LP through :func:`repro.resilience.solve_lp_resilient`
        (backend cascade + rescale retry, on the caller's thread)
        instead of a single backend; the per-LP
        :class:`~repro.resilience.SolveReport` history lands in
        ``solution.solve_reports``.  On the direct path the cascade is
        the tree backend alone, then its rescaled retry.  When both
        fail, the lazy loop answers on the backend ``"auto"`` picks
        for it (even under ``backend="tree"``), and the tree attempts
        head its first report, or the report of a total outage.
    on_infeasible:
        ``"raise"`` (default) raises :class:`InfeasibleError` as before;
        ``"diagnose"`` additionally runs the elastic re-solve and raises
        with ``err.diagnosis`` populated; ``"relax"`` degrades gracefully
        — it re-solves under the minimally relaxed bounds and returns
        that solution with ``solution.diagnosis`` set.
    warm:
        A :class:`repro.ebf.sweep.WarmStart` carry-over (or ``None``).
        In lazy mode its remembered active pair set — the Steiner rows
        previous solves on the *same topology* discovered — is added
        alongside the seed rows before the first LP solve, which
        typically collapses a sweep's follow-up solves to one round.
        After convergence the rows this solve discovered are absorbed
        back, so the object learns across a sweep.  Sound regardless of
        bounds: Steiner rows depend only on the topology, never on the
        delay bounds, so a carried row is always a valid (if possibly
        slack) constraint.  Passing one keeps ``backend="auto"`` on the
        lazy loop at any size.  On the direct tree path
        (``backend="tree"``) it carries the collapsed LP's last optimal
        basis instead of rows: the delay windows are column bounds of
        that LP, so the basis stays dual feasible under any new window
        and dual simplex re-solves in a few pivots; the solve then
        leaves its own final basis behind.  A basis that does not fit
        the model is ignored, and one that fits is only a starting
        point: the pre-check and the exact post-checks run as on a cold
        solve, whose answer a warm one matches under
        :func:`~repro.ebf.sweep.canonical_cost`.  Ignored in full mode
        (all rows are present anyway).
    breakers:
        A :class:`~repro.resilience.BreakerRegistry` shared across
        solves (resilient mode only).  Backends whose circuit is open
        are skipped without being called; each LP attempt feeds
        the registry, and per-LP breaker states appear in the solve
        reports.  Long-lived callers (the solve server, pool workers)
        pass one registry so a backend's failures in one request protect
        every later request.
    solvers:
        Backend-callable overrides forwarded to
        :func:`repro.resilience.solve_lp_resilient` (resilient mode
        only) — the fault-injection seam chaos tests use to force
        server-side backend failures.
    """
    if on_infeasible not in ("raise", "diagnose", "relax"):
        raise ValueError(f"unknown on_infeasible {on_infeasible!r}")
    if mode not in ("lazy", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    if validate is True:
        validate = "warn"
    elif validate is False:
        validate = "off"
    if validate not in ("strict", "warn", "off"):
        raise ValueError(f"unknown validate {validate!r}")
    post_validate = validate != "off"

    if validate != "off":
        _precheck(topo, bounds, strict=validate == "strict",
                  geometric_floor=check_bounds)

    retry_kwargs = dict(
        weights=weights,
        zero_edges=zero_edges,
        backend=backend,
        mode=mode,
        batch=batch,
        validate=validate,
        keep_lp=keep_lp,
        resilient=resilient,
        warm=warm,
        breakers=breakers,
        solvers=solvers,
    )
    if check_bounds:
        try:
            bounds.check(topo)
        except BoundsError:
            # Eq. 3/4 violations are infeasibility certificates known
            # before any LP; route them through the same handler.
            if on_infeasible == "raise":
                raise
            return _handle_infeasible(topo, bounds, on_infeasible, retry_kwargs)

    reports: list = []
    round_lp_seconds: list[float] = []
    # Attempts of a failed tree lane: they head the next report.
    lane: list = []

    def _solve(lp, resolved, chain=None):
        """One LP on ``resolved``; resilient, through the cascade
        ``chain`` (default: ``resolved``, then the other backends)."""
        t0 = time.perf_counter()
        try:
            if not resilient:
                return solve_lp(lp, resolved)
            try:
                report = solve_lp_resilient(
                    lp, chain or backend_chain(lp, resolved),
                    breakers=breakers, solvers=solvers,
                )
            except AllBackendsFailedError as exc:
                exc.report.attempts[:0] = lane
                raise AllBackendsFailedError(exc.report) from None
            report.attempts[:0] = lane
            lane.clear()
            reports.append(report)
            return report.result
        finally:
            round_lp_seconds.append(time.perf_counter() - t0)

    direct_tree = direct_tree_path(
        topo.num_sinks, backend=backend, mode=mode, warm=warm
    )
    start = time.perf_counter()
    warm_rows = 0
    result = None
    try:
        if direct_tree:
            # The tree LP implies every Steiner row: state none.
            pairs = []
            lp = build_tree_lp(
                topo, bounds, weights=weights, zero_edges=zero_edges
            )
            if warm is not None:
                # Windows are column bounds of the tree LP, so the last
                # optimal basis on this topology stays dual feasible:
                # dual simplex restarts from it.
                lp.tree_meta.basis = warm.basis_for(topo)
                lp.tree_meta.return_basis = True
            if validate == "strict":
                _check_built_lp(lp)
            try:
                result = _solve(lp, "tree", ("tree",)).require_optimal()
            except AllBackendsFailedError as exc:
                # The tree LP and its rescaled retry both failed: the
                # lazy loop answers.
                lane[:] = exc.report.attempts
            else:
                if warm is not None:
                    warm.absorb(topo, (), result.basis)
        elif mode == "full":
            pairs = list(all_sink_pairs(topo))
            lp = build_ebf_lp(
                topo, bounds, weights=weights, pairs=pairs,
                zero_edges=zero_edges,
            )
            if validate == "strict":
                _check_built_lp(lp)
            result = _solve(lp, backend).require_optimal()
        if result is not None:
            e = expand_edge_vector(topo, result.x)
            rounds, iters = 1, result.iterations
        else:
            pairs = seed_constraint_pairs(topo)
            lp = build_ebf_lp(
                topo, bounds, weights=weights, pairs=pairs,
                zero_edges=zero_edges,
            )
            if validate == "strict":
                _check_built_lp(lp)
            # Already-added pairs, orientation-normalized: violation
            # tolerance jitter must not append duplicate Steiner rows.
            seen = {(i, j) if i < j else (j, i) for i, j in pairs}
            if warm is not None:
                carried = [
                    (i, j, k)
                    for i, j, k in warm.pairs_for(topo)
                    if ((i, j) if i < j else (j, i)) not in seen
                ]
                if carried:
                    add_steiner_rows(lp, topo, carried)
                    seen.update(
                        (i, j) if i < j else (j, i) for i, j, _ in carried
                    )
                    pairs = pairs + [(i, j) for i, j, _ in carried]
                    warm_rows = len(carried)
            total_pairs = topo.num_sinks * (topo.num_sinks - 1) // 2
            # Resolve "auto" once, against the row count the lazy loop is
            # heading toward, and stick with it: re-deciding per round
            # wastes a dense-tableau solve on the small seed LP only to
            # hand the grown model to scipy next round anyway.
            resolved = "auto" if direct_tree else backend
            if resolved == "auto":
                projected = lp.num_constraints + min(
                    batch, max(0, total_pairs - len(pairs))
                )
                resolved = preferred_backend(lp, projected_rows=projected)
            iters = 0
            e = None
            discovered: list[tuple[int, int, int]] = []
            for rounds in range(1, MAX_ROUNDS + 1):
                result = _solve(lp, resolved).require_optimal()
                iters += result.iterations
                e = expand_edge_vector(topo, result.x)
                violated = steiner_violations(
                    topo, e, _VIOLATION_TOL, limit=batch, with_lca=True
                )
                picked = [
                    (i, j, k, v)
                    for i, j, k, v in violated
                    if ((i, j) if i < j else (j, i)) not in seen
                ]
                # Total order on the batch (violation desc, then sink ids):
                # the scan's tie order is an implementation detail, and row
                # append order decides which degenerate optimum vertex the
                # backend returns — sort so reruns are bit-reproducible.
                picked.sort(key=lambda t: (-t[3], t[0], t[1]))
                fresh = [(i, j, k) for i, j, k, _ in picked]
                if not fresh:
                    # Either no violations, or every violated pair is
                    # already a row (sub-tolerance LP slack); re-adding
                    # identical rows cannot change the optimum, and the
                    # exact post-validation still guards the result.
                    break
                add_steiner_rows(lp, topo, fresh)
                seen.update(
                    (i, j) if i < j else (j, i) for i, j, _ in fresh
                )
                pairs += [(i, j) for i, j, _ in fresh]
                discovered += fresh
            else:
                raise RuntimeError(
                    f"lazy row generation did not converge in "
                    f"{MAX_ROUNDS} rounds"
                )
            assert e is not None
            if warm is not None:
                # Steiner rows are topology facts, so rows found under
                # these bounds remain valid for every later sweep point.
                warm.absorb(topo, discovered)
    except InfeasibleError:
        if on_infeasible == "raise":
            raise
        return _handle_infeasible(topo, bounds, on_infeasible, retry_kwargs)

    wall = time.perf_counter() - start
    node_delays = node_delays_linear(topo, e)
    delays = node_delays[1 : topo.num_sinks + 1]
    w = None if weights is None else np.asarray(weights, dtype=float)
    cost = tree_cost(topo, e, weights=w)

    if post_validate:
        _validate_solution(topo, bounds, e, node_delays)

    stats = SolveStats(
        backend=result.backend,
        mode=mode,
        rounds=rounds,
        steiner_rows=len(pairs),
        total_pairs=topo.num_sinks * (topo.num_sinks - 1) // 2,
        lp_iterations=iters,
        wall_seconds=wall,
        lp_fallbacks=sum(r.fallbacks_used for r in reports),
        lp_seconds=sum(round_lp_seconds),
        round_lp_seconds=tuple(round_lp_seconds),
        warm_rows=warm_rows,
    )
    return LubtSolution(
        topo,
        bounds,
        e,
        cost,
        delays,
        stats,
        w,
        lp if keep_lp else None,
        result if keep_lp else None,
        solve_reports=tuple(reports),
    )


def _precheck(topo, bounds, *, strict: bool, geometric_floor: bool) -> None:
    """Static verification of the (topology, bounds) instance before any
    LP is built; see :mod:`repro.check`."""
    from repro.check import check_instance

    result = check_instance(
        topo, bounds, geometric_floor=geometric_floor
    )
    if strict:
        result.raise_if_errors("cannot solve: instance failed static checks")
    elif not result.ok:
        import warnings

        from repro.check import DiagnosticWarning

        for d in result.errors:
            warnings.warn(DiagnosticWarning(d), stacklevel=3)


def _check_built_lp(lp) -> None:
    """Strict mode also vets the assembled LP (NaN rows, dominated or
    duplicate Steiner rows, ...) before handing it to a backend."""
    from repro.check import CheckResult, check_lp

    CheckResult(tuple(check_lp(lp))).raise_if_errors(
        "cannot solve: assembled LP failed static checks"
    )


def _handle_infeasible(topo, bounds, on_infeasible, retry_kwargs):
    """Shared ``"diagnose"``/``"relax"`` path: run the elastic re-solve,
    then either raise with the diagnosis attached or solve under the
    relaxed bounds.  A resilient solve's elastic LP goes through its
    breakers and backend overrides, like its other LPs."""
    from repro.resilience.elastic import (
        build_elastic_lp,
        read_elastic_solution,
    )

    lp, slack_cols = build_elastic_lp(
        topo, bounds, zero_edges=retry_kwargs["zero_edges"]
    )
    if retry_kwargs["resilient"]:
        result = solve_lp_resilient(
            lp, breakers=retry_kwargs["breakers"],
            solvers=retry_kwargs["solvers"],
        ).result
    else:
        result = solve_lp(lp)
    diag = read_elastic_solution(topo, bounds, slack_cols, result)
    if on_infeasible == "diagnose":
        err = InfeasibleError(
            "no LUBT exists for these bounds (Section 9 certificate)\n"
            + diag.summary()
        )
        err.diagnosis = diag
        raise err
    relaxed = solve_lubt(
        topo,
        diag.relaxed_bounds,
        check_bounds=False,
        on_infeasible="raise",
        **retry_kwargs,
    )
    return LubtSolution(
        relaxed.topology,
        relaxed.bounds,
        relaxed.edge_lengths,
        relaxed.cost,
        relaxed.delays,
        relaxed.stats,
        relaxed.weights,
        relaxed.lp,
        relaxed.lp_result,
        diagnosis=diag,
        solve_reports=relaxed.solve_reports,
    )


def _validate_solution(topo, bounds, e, node_delays) -> None:
    """Exact post-checks: delay windows and all Steiner constraints.

    The Steiner verdict is the :func:`steiner_violations` scan's at
    ``_CHECK_TOL``, but the scan runs only when the O(n log n)
    certificate cannot settle it: a worst pair more than the
    certificate's rounding guard below the tolerance is one the scan
    would not report either.  A borderline or failing certificate hands
    over to the scan, which decides and names the pair.
    """
    if not bounds.satisfied_by(
        node_delays[1 : topo.num_sinks + 1], tol=_CHECK_TOL
    ):
        raise AssertionError("solver returned delays outside the bounds")
    worst, guard = steiner_certificate(topo, node_delays)
    if worst <= _CHECK_TOL - guard:
        return
    leftovers = steiner_violations(topo, e, tol=_CHECK_TOL, limit=1)
    if leftovers:
        i, j, v = leftovers[0]
        raise AssertionError(
            f"Steiner constraint ({i},{j}) violated by {v:g} after solve"
        )
