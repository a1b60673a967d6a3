"""Dual simplex pricing on the collapsed tree LP.

``repro.lp.treesolve`` runs HiGHS's dual simplex with Dantzig pricing, a
fixed choice rather than an option.  This measures that choice against
HiGHS's default (``method="highs"``: dual simplex, steepest edge) and
Devex pricing.  For each sink count and topology (H-tree and
nearest-neighbour merge) it assembles the collapsed model ``solve_tree``
hands HiGHS on one synth instance (seed 1996, window [0.8, 1.2] x
radius; :func:`repro.lp.treesolve.collapsed_tree_lp`), solves it with
``linprog`` under each strategy in interleaved rounds (rotating which
goes first), and records the median ``linprog`` wall and the iteration
count of each, and the objectives' largest relative spread.  With
``dantzig`` this is the solve ``solve_tree`` runs, bit for bit.
Output: ``benchmarks/out/pricing.txt`` and ``pricing.json``.

    cd benchmarks && PYTHONPATH=../src python -m pytest bench_pricing.py -s
"""

import os
import statistics
import time

import numpy as np
from conftest import save_output
from scipy.optimize import linprog

from repro.analysis import Table
from repro.data import synth_instance
from repro.ebf.formulation import build_tree_lp
from repro.lp.treesolve import collapsed_tree_lp

STRATEGIES = {
    "steepest": {"method": "highs"},
    "devex": {
        "method": "highs-ds",
        "options": {"simplex_dual_edge_weight_strategy": "devex"},
    },
    "dantzig": {
        "method": "highs-ds",
        "options": {"simplex_dual_edge_weight_strategy": "dantzig"},
    },
}
SIZES = (32, 64, 96, 128, 512, 1024, 2048, 4096)
TOPOLOGIES = ("htree", "nn")


def _rounds(sinks):
    return 7 if sinks <= 128 else 3


def _tree_lp(topo, bounds):
    """The collapsed model ``solve_tree`` solves for this instance, as
    ``linprog``'s ``(c, A_ub, b_ub, bounds)`` arguments."""
    model = collapsed_tree_lp(build_tree_lp(topo, bounds))
    return {
        "c": model.c,
        "A_ub": model.a_ub,
        "b_ub": model.b_ub,
        "bounds": np.column_stack([model.lb, model.ub]),
    }


def test_pricing():
    names = list(STRATEGIES)
    t = Table(
        ["sinks", "topology"]
        + [f"{n} s" for n in names]
        + [f"{n} iters" for n in names]
        + ["steepest/dantzig"],
        title=f"tree LP pricing: median linprog wall ({os.cpu_count()} cores)",
    )
    rows = []
    for sinks in SIZES:
        for topology in TOPOLOGIES:
            topo, bounds = synth_instance(sinks, 1996, topology=topology)
            lp = _tree_lp(topo, bounds)
            walls = {n: [] for n in names}
            iters, objs = {}, {}
            for r in range(_rounds(sinks)):
                for n in names[r % 3 :] + names[: r % 3]:
                    t0 = time.perf_counter()
                    res = linprog(**lp, **STRATEGIES[n])
                    walls[n].append(time.perf_counter() - t0)
                    assert res.status == 0, (sinks, topology, n, res.message)
                    iters[n], objs[n] = int(res.nit), float(res.fun)
            secs = {n: statistics.median(v) for n, v in walls.items()}
            spread = (max(objs.values()) - min(objs.values())) / max(
                1.0, abs(objs["dantzig"])
            )
            rows.append(
                {"sinks": sinks, "topology": topology, "rounds": _rounds(sinks),
                 "seconds": secs, "iterations": iters,
                 "objective_rel_spread": spread}
            )
            t.add_row(
                sinks, topology,
                *[f"{secs[n]:.4f}" for n in names],
                *[iters[n] for n in names],
                f"{secs['steepest'] / secs['dantzig']:.2f}",
            )
            assert spread <= 1e-9, rows[-1]
    save_output(
        "pricing.txt",
        t.render(),
        data={
            "protocol": "synth_instance(sinks, 1996, topology=...), window "
            "[0.8, 1.2] x radius; the collapsed model solve_tree solves, "
            "solved by linprog per strategy in interleaved rounds (7 up to "
            "128 sinks, else 3); median wall seconds",
            "nproc": os.cpu_count(),
            "strategies": STRATEGIES,
            "rows": rows,
        },
    )
