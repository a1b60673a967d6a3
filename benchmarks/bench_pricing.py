"""Dual simplex pricing on the collapsed tree LP, from the cold start
production takes.

``repro.lp.treesolve`` prices HiGHS's dual simplex by the start HiGHS
takes, a fixed choice rather than an option: Devex from the tour start
(``treesolve._TOUR_OPTIONS``), Dantzig from every other start
(``treesolve._OPTIONS``).  This measures each pricing, steepest edge
(HiGHS's default for ``linprog(method="highs")``) among them, from the
start production uses: a cold ``solve_tree`` begins at the tour start
(:func:`repro.lp.treesolve.tour_basis`) from ``TOUR_MIN_SINKS`` sinks up
and at the crash basis (:func:`repro.lp.treesolve.crash_basis`) below
that or where the tour start does not apply; each row records which
(``start``).  For each sink count and topology (H-tree and
nearest-neighbour merge) it builds the tree-stamped model of one synth
instance (seed 1996, window [0.8, 1.2] x radius) and solves it with
``solve_tree`` in interleaved rounds (rotating which strategy goes
first), setting the pricing entry of both option sets to each strategy
here, in the benchmark only.  It records the median ``solve_tree`` wall
and the iteration count of each, and the objectives' largest relative
spread.  Production runs the ``devex`` column on ``tour`` rows and the
``dantzig`` column on ``crash`` rows.
Output: ``benchmarks/out/pricing.txt`` and ``pricing.json``.

    cd benchmarks && PYTHONPATH=../src python -m pytest bench_pricing.py -s
"""

import os
import statistics
import time

from conftest import save_output

import repro.lp.treesolve as treesolve
from repro.analysis import Table
from repro.data import synth_instance
from repro.ebf.formulation import build_tree_lp
from repro.lp import LpStatus

#: ``simplex_dual_edge_weight_strategy`` per strategy.
STRATEGIES = {"steepest": 2, "devex": 1, "dantzig": 0}
SIZES = (32, 64, 96, 128, 512, 1024, 2048, 4096)
TOPOLOGIES = ("htree", "nn")


def _rounds(sinks):
    return 7 if sinks <= 128 else 3


def _options(options, strategy):
    """``options`` with its pricing entry set to ``strategy``."""
    key = "simplex_dual_edge_weight_strategy"
    return tuple(
        (k, STRATEGIES[strategy] if k == key else v) for k, v in options
    )


def _start(lp):
    """The cold start ``solve_tree`` takes on ``lp``."""
    model = treesolve.collapsed_tree_lp(lp)
    if (
        model.layout.num_sinks >= treesolve.TOUR_MIN_SINKS
        and treesolve.tour_basis(model) is not None
    ):
        return "tour"
    return "crash"


def test_pricing(monkeypatch):
    names = list(STRATEGIES)
    cold, tour = treesolve._OPTIONS, treesolve._TOUR_OPTIONS
    assert cold == _options(cold, "dantzig") and tour == _options(tour, "devex")
    t = Table(
        ["sinks", "topology", "start"]
        + [f"{n} s" for n in names]
        + [f"{n} iters" for n in names]
        + ["devex/dantzig"],
        title="tree LP pricing from the production cold start: median "
        f"solve_tree wall ({os.cpu_count()} cores)",
    )
    rows = []
    for sinks in SIZES:
        for topology in TOPOLOGIES:
            lp = build_tree_lp(*synth_instance(sinks, 1996, topology=topology))
            start = _start(lp)
            walls = {n: [] for n in names}
            iters, objs = {}, {}
            for r in range(_rounds(sinks)):
                for n in names[r % 3 :] + names[: r % 3]:
                    monkeypatch.setattr(treesolve, "_OPTIONS", _options(cold, n))
                    monkeypatch.setattr(
                        treesolve, "_TOUR_OPTIONS", _options(tour, n)
                    )
                    t0 = time.perf_counter()
                    res = treesolve.solve_tree(lp)
                    walls[n].append(time.perf_counter() - t0)
                    assert res.status is LpStatus.OPTIMAL, (
                        sinks, topology, n, res.message
                    )
                    iters[n], objs[n] = int(res.iterations), float(res.objective)
            secs = {n: statistics.median(v) for n, v in walls.items()}
            spread = (max(objs.values()) - min(objs.values())) / max(
                1.0, abs(objs["devex"])
            )
            rows.append(
                {"sinks": sinks, "topology": topology, "start": start,
                 "rounds": _rounds(sinks), "seconds": secs,
                 "iterations": iters, "objective_rel_spread": spread}
            )
            t.add_row(
                sinks, topology, start,
                *[f"{secs[n]:.4f}" for n in names],
                *[iters[n] for n in names],
                f"{secs['devex'] / secs['dantzig']:.2f}",
            )
            assert spread <= 1e-9, rows[-1]
    save_output(
        "pricing.txt",
        t.render(),
        data={
            "protocol": "synth_instance(sinks, 1996, topology=...), window "
            "[0.8, 1.2] x radius; solve_tree from its cold start (the "
            "tour start from TOUR_MIN_SINKS sinks up where it applies, "
            "else the crash basis; each row's start) with "
            "the simplex_dual_edge_weight_strategy of treesolve._OPTIONS "
            "and treesolve._TOUR_OPTIONS set per strategy, in interleaved "
            "rounds (7 up to 128 sinks, else 3); median wall seconds; "
            "production prices tour rows with devex, crash rows with "
            "dantzig",
            "nproc": os.cpu_count(),
            "strategies": STRATEGIES,
            "rows": rows,
        },
    )
