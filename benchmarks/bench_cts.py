"""CTS throughput bench: resident scheduler vs inline serial, per core.

The chip-scale claim behind the batch scheduler: at thousands of clock
nets the per-net LP is milliseconds, so multi-net throughput is decided
by dispatch overhead.  This bench runs one synthetic placement through
two schedules and records nets/second for each, best of ``REPEATS``
runs:

* ``inline``   — ``run_cts`` serially in one process (the correctness
  reference and the best single-core path);
* ``scheduler``— ``run_cts`` on a resident :class:`WorkerPool` with
  EWMA-chunked dispatch.

Writes ``BENCH_cts.json`` at the repo root (same idiom as
``BENCH_scaling.json``) and asserts the gate: the scheduler's nets/s
*per core* — divided by ``min(jobs, os.cpu_count())``, the cores it can
actually use — is at least ``MIN_PER_CORE`` of inline serial nets/s.
Per-net canonical costs must be identical across both schedules.

Runs both under pytest (quick sizes; sidecar JSON only) and as a
script::

    python benchmarks/bench_cts.py --nets 1000 --jobs 4   # refresh baseline
    python benchmarks/bench_cts.py --check                # CI gate, no write
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from conftest import full_run, save_output  # noqa: E402

from repro.data import synth_placement  # noqa: E402
from repro.ebf.sweep import canonical_cost  # noqa: E402
from repro.perf import WorkerPool, cts_tasks, run_cts  # noqa: E402

BASELINE_PATH = Path(__file__).parent.parent / "BENCH_cts.json"

#: The gate: scheduler nets/s per usable core over inline serial nets/s.
MIN_PER_CORE = 0.4

#: Runs per schedule; the best (fastest) one counts.
REPEATS = 3

#: Leaf clock nets: a local buffer drives a handful of flops, so the
#: per-net LP is milliseconds and dispatch overhead dominates — the
#: regime the scheduler exists for.
QUICK = {"nets": 256, "sinks_per_net": 5, "jobs": 2}
FULL = {"nets": 1000, "sinks_per_net": 6, "jobs": 4}


def _timed(run):
    """``(seconds, report)`` of one ``run()``."""
    t0 = time.perf_counter()
    report = run()
    return time.perf_counter() - t0, report


def _best_of(run):
    """Fastest of ``REPEATS`` calls of ``run() -> (seconds, report)``."""
    runs = [run() for _ in range(REPEATS)]
    for _, report in runs:
        assert report.ok, report.summary()
    return min(runs, key=lambda r: r[0])


def run_bench(nets: int, sinks_per_net: int, jobs: int, seed: int = 0) -> dict:
    placement = synth_placement(
        nets=nets, sinks_per_net=sinks_per_net, seed=seed
    )
    pairs = cts_tasks(placement)

    def scheduled():
        # A fresh pool per run (forked outside the timed region), so the
        # recorded pool counters are that run's own.
        with WorkerPool(jobs) as pool:
            return _timed(
                lambda: run_cts(placement, tasks=pairs, jobs=jobs, pool=pool)
            )

    inline_s, inline = _best_of(
        lambda: _timed(lambda: run_cts(placement, tasks=pairs))
    )
    sched_s, sched = _best_of(scheduled)

    for a, b in zip(inline.results, sched.results):
        assert canonical_cost(a.cost) == canonical_cost(b.cost), a.name

    cores = min(jobs, os.cpu_count() or 1)
    inline_nps = len(pairs) / inline_s
    sched_nps = len(pairs) / sched_s
    # Dispatch overhead the scheduler adds on top of a perfect split of
    # the serial work over the usable cores, amortized per net.
    overhead_ms = max(0.0, sched_s - inline_s / cores) / len(pairs) * 1e3
    return {
        "protocol": (
            f"synth placement {nets} nets x {sinks_per_net} sinks "
            f"(seed {seed}), window [0.8, 1.2] x radius, jobs={jobs}, "
            f"best of {REPEATS} runs per schedule"
        ),
        "nets": len(pairs),
        "sinks_per_net": sinks_per_net,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "cores_used": cores,
        "inline_seconds": inline_s,
        "scheduler_seconds": sched_s,
        "inline_nets_per_second": inline_nps,
        "scheduler_nets_per_second": sched_nps,
        "scheduler_nets_per_second_per_core": sched_nps / cores,
        "per_core_vs_inline": sched_nps / cores / inline_nps,
        "speedup_vs_inline": inline_s / sched_s,
        "scheduler_overhead_ms_per_net": overhead_ms,
        "p50_net_seconds": sched.p50_seconds,
        "p99_net_seconds": sched.p99_seconds,
        "scheduler_stats": {
            k: v for k, v in sched.scheduler.items() if k != "jobs"
        },
    }


def render(data: dict) -> str:
    from repro.analysis import Table

    t = Table(
        ["schedule", "seconds", "nets/s", "nets/s per core"],
        title=f"CTS throughput: {data['protocol']}",
    )
    t.add_row(
        "inline serial",
        f"{data['inline_seconds']:.2f}",
        f"{data['inline_nets_per_second']:,.1f}",
        f"{data['inline_nets_per_second']:,.1f}",
    )
    t.add_row(
        f"resident scheduler ({data['cores_used']} cores)",
        f"{data['scheduler_seconds']:.2f}",
        f"{data['scheduler_nets_per_second']:,.1f}",
        f"{data['scheduler_nets_per_second_per_core']:,.1f}",
    )
    return t.render() + (
        f"\nper core vs inline {data['per_core_vs_inline']:.2f}x; "
        f"per-net latency p50 {1e3 * data['p50_net_seconds']:.2f}ms / "
        f"p99 {1e3 * data['p99_net_seconds']:.2f}ms; scheduler overhead "
        f"{data['scheduler_overhead_ms_per_net']:.3f}ms/net vs perfect "
        f"{data['cores_used']}-core split"
    )


def test_cts_throughput():
    params = FULL if full_run() else QUICK
    data = run_bench(**params)
    save_output("cts.txt", render(data), data=data)
    if full_run():
        BASELINE_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
    assert data["per_core_vs_inline"] >= MIN_PER_CORE, data


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nets", type=int, default=FULL["nets"])
    ap.add_argument("--sinks", type=int, default=FULL["sinks_per_net"])
    ap.add_argument("--jobs", type=int, default=FULL["jobs"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--check",
        action="store_true",
        help=f"CI gate: run at quick sizes, assert scheduler nets/s per "
        f"core >= {MIN_PER_CORE}x inline serial, do not rewrite the "
        f"committed baseline",
    )
    args = ap.parse_args(argv)
    if args.check:
        data = run_bench(**QUICK)
    else:
        data = run_bench(args.nets, args.sinks, args.jobs, args.seed)
    print(render(data))
    if not args.check:
        BASELINE_PATH.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {BASELINE_PATH}")
    ratio = data["per_core_vs_inline"]
    if ratio < MIN_PER_CORE:
        print(
            f"FAIL: scheduler nets/s per core is {ratio:.2f}x inline "
            f"serial, below the {MIN_PER_CORE}x gate",
            file=sys.stderr,
        )
        return 1
    print(f"per-core gate OK: {ratio:.2f}x >= {MIN_PER_CORE}x inline serial")
    return 0


if __name__ == "__main__":
    sys.exit(main())
