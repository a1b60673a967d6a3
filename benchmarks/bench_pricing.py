"""Dual simplex pricing on the collapsed tree LP, from the crash basis.

``repro.lp.treesolve`` runs HiGHS's dual simplex with Dantzig pricing, a
fixed choice rather than an option.  This measures that choice against
steepest edge (HiGHS's default for ``linprog(method="highs")``) and
Devex pricing, from the start production uses: a cold ``solve_tree``
begins at the crash basis (:func:`repro.lp.treesolve.crash_basis`).
For each sink count and topology (H-tree and nearest-neighbour merge)
it builds the tree-stamped model of one synth instance (seed 1996,
window [0.8, 1.2] x radius) and solves it with ``solve_tree`` in
interleaved rounds (rotating which strategy goes first), swapping the
pricing entry of ``treesolve._OPTIONS`` for each strategy here, in the
benchmark only.  It records the median ``solve_tree`` wall and the
iteration count of each, and the objectives' largest relative spread.
With ``dantzig`` this is the solve production runs.
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


def _options(strategy):
    """``treesolve._OPTIONS`` with its pricing entry set to ``strategy``."""
    key = "simplex_dual_edge_weight_strategy"
    return tuple(
        (k, STRATEGIES[strategy] if k == key else v)
        for k, v in treesolve._OPTIONS
    )


def test_pricing(monkeypatch):
    names = list(STRATEGIES)
    assert treesolve._OPTIONS == _options("dantzig")
    t = Table(
        ["sinks", "topology"]
        + [f"{n} s" for n in names]
        + [f"{n} iters" for n in names]
        + ["steepest/dantzig"],
        title="tree LP pricing from the crash basis: median solve_tree "
        f"wall ({os.cpu_count()} cores)",
    )
    rows = []
    for sinks in SIZES:
        for topology in TOPOLOGIES:
            lp = build_tree_lp(*synth_instance(sinks, 1996, topology=topology))
            walls = {n: [] for n in names}
            iters, objs = {}, {}
            for r in range(_rounds(sinks)):
                for n in names[r % 3 :] + names[: r % 3]:
                    monkeypatch.setattr(treesolve, "_OPTIONS", _options(n))
                    t0 = time.perf_counter()
                    res = treesolve.solve_tree(lp)
                    walls[n].append(time.perf_counter() - t0)
                    assert res.status is LpStatus.OPTIMAL, (
                        sinks, topology, n, res.message
                    )
                    iters[n], objs[n] = int(res.iterations), float(res.objective)
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
            "[0.8, 1.2] x radius; solve_tree from the crash basis with "
            "treesolve._OPTIONS's simplex_dual_edge_weight_strategy set "
            "per strategy, in interleaved rounds (7 up to 128 sinks, else "
            "3); median wall seconds",
            "nproc": os.cpu_count(),
            "strategies": STRATEGIES,
            "rows": rows,
        },
    )
