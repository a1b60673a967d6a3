"""Self-test of the benchmark.

Quick mode must emit every metric the benchmark defines, with its unit,
and the answer check must count a perturbed cost and an out-of-window
delay as failed ops.  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from checks import Tally, TreeView, canonical_cost, check_solution  # noqa: E402

COMMON = {"setup_s": "s", "failed_ratio": "ratio", "peak_rss_mb": "MiB"}
SOLVE_PATH = {
    "check.precheck_s": "s/solve", "ebf.solve_s": "s/solve",
    "ebf.self_s": "s/solve", "ebf.seed_rows_s": "s/solve",
    "ebf.lp_build_s": "s/solve", "ebf.scan_s": "s/solve",
    "ebf.scan_calls": "count/solve", "ebf.rounds_per_solve": "count/solve",
    "ebf.warm_rows_per_solve": "count/solve", "lp.solve_s": "s/solve",
    "lp.iterations": "count/solve", "uncovered_share": "ratio",
    "trace_overhead": "ratio",
}

#: Report metrics per workload: (tracing off, tracing on).
EXPECTED = {
    "large-net": (
        {**COMMON, "net_p50_s": "s"},
        {**SOLVE_PATH, "topology.build_s": "s/op",
         "embedding.embed_s": "s/op", "lp.solve_s.tree": "s/solve",
         "lp.calls.tree": "count/solve"},
    ),
    "cts-chip": (
        {**COMMON, "nets_per_s": "1/s"},
        {**SOLVE_PATH, "topology.build_s": "s/op", "data.placement_s": "s/op",
         "lp.solve_s.simplex": "s/solve", "lp.calls.simplex": "count/solve",
         "perf.pool_start_s": "s", "perf.prep_s": "s/op",
         "perf.worker_busy_ratio": "ratio", "perf.dispatch_ms_per_task": "ms",
         "perf.tasks_per_chunk": "count", "perf.journal_append_s": "s",
         "perf.journal_appends": "count", "perf.workers_replaced": "count"},
    ),
    "bound-sweep": (
        {**COMMON, "points_per_s": "1/s"},
        {**SOLVE_PATH, "lp.solve_s.scipy-highs": "s/solve",
         "lp.calls.scipy-highs": "count/solve",
         "perf.shard_imbalance": "ratio"},
    ),
    "server-mix": (
        {**COMMON, "req_p50_ms": "ms", "req_p99_ms": "ms", "req_per_s": "1/s"},
        {**SOLVE_PATH, "data.encode_ms": "ms", "server.hit_ratio": "ratio",
         "server.hit_ms_p50": "ms", "server.solve_ms_p50": "ms",
         "server.wait_ms_p50": "ms", "server.shed": "count",
         "server.errors": "count"},
    ),
}


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_mode_emits_every_metric(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.splitlines()
    seen = {}
    for line in lines:
        if line.startswith("metric "):
            _, workload, name, _, unit, n = line.split()
            assert int(n[2:]) >= 1, line
            seen[(workload, name)] = unit
    for workload, names in EXPECTED.items():
        for name, unit in names[trace].items():
            assert seen.get((workload, name)) == unit, (workload, name)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    contract = {
        m["name"]: m["unit"]
        for m in bench["end_to_end" if trace == 0 else "per_layer"]
    }
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(EXPECTED)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == contract


@pytest.fixture(scope="module")
def solved():
    from repro.data import uniform_sinks
    from repro.ebf import DelayBounds, solve_lubt
    from repro.geometry import Point
    from repro.topology import nearest_neighbor_topology

    source = Point(5000.0, 5000.0)
    sinks = uniform_sinks(12, seed=3)
    r = max(abs(p.x - source.x) + abs(p.y - source.y) for p in sinks)
    topo = nearest_neighbor_topology(sinks, source)
    bounds = DelayBounds.uniform(12, 0.8 * r, 1.2 * r)
    return topo, bounds, solve_lubt(topo, bounds)


def test_correct_answer_passes(solved):
    topo, bounds, sol = solved
    tally = Tally()
    tally.record(check_solution(
        TreeView(topo), sol.edge_lengths, bounds.lower, bounds.upper,
        sol.cost, canonical_cost(sol.cost),
    ), True)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_perturbed_cost_is_a_failed_op(solved):
    topo, bounds, sol = solved
    tally = Tally()
    reference = canonical_cost(sol.cost)
    # The reported cost drifts from the tree; then the tree itself is
    # consistent but its cost misses the stored reference.
    tally.record(check_solution(
        TreeView(topo), sol.edge_lengths, bounds.lower, bounds.upper,
        sol.cost * (1 + 1e-6), reference,
    ), True)
    tally.record(check_solution(
        TreeView(topo), sol.edge_lengths, bounds.lower, bounds.upper,
        sol.cost, reference * (1 + 1e-6),
    ), True)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_out_of_window_delay_is_a_failed_op(solved):
    topo, bounds, sol = solved
    e = sol.edge_lengths.copy()
    # Lengthen one sink's own edge past its upper bound: path lengths only
    # grow, so the Steiner rows still hold and only the window is broken.
    sink = 1
    e[sink] += float(bounds.upper[sink - 1] - sol.delays[sink - 1]) + 1.0
    tally = Tally()
    failures = check_solution(
        TreeView(topo), e, bounds.lower, bounds.upper, float(e[1:].sum()),
        None,
    )
    tally.record(failures, False)
    assert tally.failed == 1
    assert all("window" in f for f in failures), failures


def test_steiner_violation_is_a_failed_op(solved):
    topo, bounds, sol = solved
    failures = check_solution(
        TreeView(topo), sol.edge_lengths * 0.5, bounds.lower * 0.5,
        bounds.upper * 0.5, float(sol.edge_lengths[1:].sum() * 0.5), None,
    )
    assert any("Steiner" in f for f in failures), failures
