"""Benchmark of the LUBT solver stack: four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload large-net --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace 0     # every workload
    python3 perfbench/run.py --workload all --quick       # brief self-test run
    python3 perfbench/run.py --record-reference           # rewrite reference/

Each run prints report lines (``stamp``, ``metric <workload> <name>
<value> <unit> n=<samples>``, ``check``, ``split``, ``layers``) and, as
its last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Values are as timed.  See
perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
#: Inputs kept aside for re-checking a claim made on the default seed.
ALTERNATE_SEED = 2
SETUP_SAMPLES = 3

#: The contract metrics of the last output line, with their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
}
PER_LAYER = {
    "uncovered_share": "ratio",
    "trace_overhead": "ratio",
    "check.precheck_s": "s/solve",
    "ebf.solve_s": "s/solve",
    "ebf.self_s": "s/solve",
    "ebf.seed_rows_s": "s/solve",
    "ebf.lp_build_s": "s/solve",
    "ebf.scan_s": "s/solve",
    "ebf.scan_calls": "count/solve",
    "ebf.rounds_per_solve": "count/solve",
    "lp.solve_s": "s/solve",
    "lp.iterations": "count/solve",
}

WORKLOAD_NAMES = ("large-net", "cts-chip", "bound-sweep", "server-mix")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs and one-second runs (self-test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up once, print it, and exit")
    ap.add_argument("--record-reference", action="store_true",
                    help="solve the default and alternate seeds' inputs on "
                    "the inline serial path and store their costs")
    return ap.parse_args(argv)


def stamp(args, workload) -> dict:
    """Where and on what this result was measured."""
    import multiprocessing

    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        # Only this checkout's own repository names the commit.
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 — older numpy: leave it unnamed
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "alternate_seed": ALTERNATE_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "sizes": workload.reference_sizes(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {
            k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
            )
        },
        "start_method": multiprocessing.get_start_method(),
    }


def setup_probe(args) -> float:
    """Set up once more in a fresh interpreter; returns its set-up time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.quick:
        cmd.append("--quick")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr[-2000:]}")
    return float(out.stdout.split()[-1])


def run_workload(args) -> int:
    import workloads as workloads_module
    from tracing import Tracer, install
    from workloads import FULL, QUICK, WORKLOADS, Metric

    tracer = Tracer()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    wl = WORKLOADS[args.workload](
        QUICK if args.quick else FULL, args.seed, tracer, ROOT, workdir
    )
    try:
        if args.trace:
            # Before set-up, so no pool forks ahead of the wrappers.
            install(tracer, extra_modules=(workloads_module,))
        wl.setup()
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(f"setup_s {setup_s!r}")
            return 0
        wl.prepare()
        if args.trace:
            metrics = wl.run_traced(args.seconds)
        else:
            metrics = wl.run(args.seconds)
        rss = wl.peak_rss_mb()
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    tally = wl.tally
    report = list(metrics)
    if not args.trace:
        samples = [setup_s] + [
            setup_probe(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        report = [
            Metric("setup_s", statistics.median(samples), "s", len(samples)),
            Metric("failed_ratio", tally.failed / max(1, tally.attempted),
                   "ratio", tally.attempted),
            Metric("peak_rss_mb", rss, "MiB", 1),
        ] + report

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("stamp " + json.dumps(stamp(args, wl), sort_keys=True))
    for m in report:
        print(f"metric {args.workload} {m.name} {m.value!r} {m.unit} n={m.n}")
    if wl.reference is None:
        optimality = "skipped (no stored reference for this seed and size)"
    else:
        optimality = (f"{tally.checked}/{tally.attempted} ops checked "
                      f"against the stored reference")
    print(f"check {args.workload} attempted={tally.attempted} "
          f"failed={tally.failed} optimality: {optimality}")
    for example in tally.examples:
        print(f"check {args.workload} failure: {example}")
    for note in wl.notes:
        print(note)

    wanted = PER_LAYER if args.trace else END_TO_END
    by_name = {m.name: m for m in report}
    missing = [name for name in wanted if name not in by_name]
    if missing:
        print(f"no result: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": by_name[name].value, "unit": unit}
            for name, unit in wanted.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def record_reference(args) -> int:
    from checks import save_reference
    from tracing import Tracer
    from workloads import FULL, WORKLOADS

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        for seed in (DEFAULT_SEED, ALTERNATE_SEED):
            workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
            wl = WORKLOADS[name](FULL, seed, Tracer(), ROOT, workdir)
            try:
                wl.setup()
                wl.prepare()
                costs = wl.reference_costs()
            finally:
                wl.close()
                shutil.rmtree(workdir, ignore_errors=True)
            path = save_reference(name, seed, wl.reference_sizes(), costs)
            print(f"{name} seed {seed}: {len(costs)} costs -> {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.quick:
        args.seconds = min(args.seconds, 1.0)
    if args.record_reference:
        return record_reference(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
