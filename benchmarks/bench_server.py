"""Server smoke bench: the LUBT-as-a-service latency and reuse gates.

Starts a resident :class:`repro.server.SolveServer` on a free port,
drives it over the real socket protocol, and checks the service
contract end to end (see docs/SERVER.md):

* **repeat-query gate** — the second identical solve must be answered
  from the instance cache at least ``--repeat-factor`` (default 2x)
  faster than the first, with *bit-identical* cost/lengths/delays and
  ``cache_hit`` marked;
* **cross-client warm gate** — a second connection sweeping new bound
  windows on a topology first solved by another client must report
  ``warm_rows > 0`` on its very first point (the cross-request
  WarmStart store did its job).  Warm rows only come from and feed the
  lazy loop, so both clients send ``backend="scipy"``;
* **cross-client basis gate** — on the default path (``auto``, the
  tree LP at this size) a second connection's new window on a topology
  another client already solved must re-solve from the stored basis in
  at most a fifth of the first solve's ``lp_iterations``, and
  ``stats`` must count a stored basis;
* **correctness anchor** — every served cost must match an in-process
  ``solve_lubt`` to :func:`canonical_cost` bits.

Fresh timings are written to ``BENCH_server.json`` at the repo root;
``--check`` compares against the committed file instead of overwriting,
failing on a > ``--factor`` latency regression (CI mode).

    PYTHONPATH=src python benchmarks/bench_server.py            # refresh
    PYTHONPATH=src python benchmarks/bench_server.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.data import load_benchmark
from repro.ebf import DelayBounds, canonical_cost, solve_lubt
from repro.geometry import manhattan_radius_from
from repro.server import ServerClient, ServerThread
from repro.topology import nearest_neighbor_topology

REPO_ROOT = Path(__file__).parent.parent

SINKS = 48
SWEEP_LOWERS = (0.55, 0.7, 0.85)
#: Request options of both clients: the lazy loop, which fills and reads
#: the warm store (the default path at this size solves without it).
LAZY = {"backend": "scipy"}
#: The basis gate's new window (x radius; the first solve uses
#: [0.8, 1.2]) and the least cold/warm LP-iteration ratio it must reach.
BASIS_WINDOW = (0.6, 1.1)
BASIS_FACTOR = 5


def _instance(size=SINKS):
    bench = load_benchmark("prim2").scaled(size)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    return topo, radius


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run_bench(repeat_factor: float, repeats: int) -> tuple[dict, list[str]]:
    failures: list[str] = []
    topo, radius = _instance()
    m = topo.num_sinks
    bounds = DelayBounds.uniform(m, 0.8 * radius, 1.2 * radius)

    with ServerThread(jobs=1) as handle:
        # --- repeat-query gate (client A) -------------------------------
        with ServerClient(port=handle.port) as a:
            cold_seconds, first = _timed(lambda: a.solve(topo, bounds, **LAZY))
            hit_seconds = float("inf")
            for _ in range(repeats):
                s, second = _timed(lambda: a.solve(topo, bounds, **LAZY))
                hit_seconds = min(hit_seconds, s)
        if first["cache_hit"]:
            failures.append("first query claims a cache hit")
        if not second["cache_hit"]:
            failures.append("repeated query was not served from the cache")
        for field in ("cost", "edge_lengths", "delays"):
            if second["result"][field] != first["result"][field]:
                failures.append(
                    f"cached {field} is not bit-identical to the first answer"
                )
        speedup = cold_seconds / hit_seconds if hit_seconds > 0 else float("inf")
        if speedup < repeat_factor:
            failures.append(
                f"repeat-query speedup {speedup:.2f}x < required "
                f"{repeat_factor:g}x (cold {cold_seconds:.4f}s, "
                f"hit {hit_seconds:.4f}s)"
            )
        print(
            f"repeat query ({m} sinks): cold {cold_seconds:.4f}s, "
            f"cache hit {hit_seconds:.4f}s, {speedup:.2f}x, "
            + ("bit-identical" if not failures else "PROBLEMS")
        )

        # --- correctness anchor ----------------------------------------
        sol = solve_lubt(topo, bounds)
        if canonical_cost(first["result"]["cost"]) != canonical_cost(sol.cost):
            failures.append(
                f"served cost {first['result']['cost']!r} != in-process "
                f"{sol.cost!r} (canonical)"
            )

        # --- cross-client warm gate (client B, new windows) -------------
        blist = [
            DelayBounds.uniform(m, lo * radius, 1.3 * radius)
            for lo in SWEEP_LOWERS
        ]
        with ServerClient(port=handle.port) as b:
            sweep_seconds, (points, done) = _timed(
                lambda: b.sweep(topo, blist, **LAZY)
            )
            stats = b.stats()
        if done["errors"]:
            failures.append(f"sweep reported {done['errors']} errors")
        if not points or points[0].get("warm_rows", 0) <= 0:
            failures.append(
                "second client's first sweep point was not warm-seeded "
                f"(warm_rows={points[0].get('warm_rows') if points else None})"
            )
        print(
            f"cross-client sweep: {done['points']} points in "
            f"{sweep_seconds:.3f}s, first-point warm rows "
            f"{points[0]['warm_rows'] if points else 0}, "
            f"store total {stats['warm']['total_rows']}"
        )

        # --- cross-client basis gate (default path, new window) ---------
        with ServerClient(port=handle.port) as a:
            cold = a.solve(topo, bounds)
        window = DelayBounds.uniform(m, BASIS_WINDOW[0] * radius,
                                     BASIS_WINDOW[1] * radius)
        with ServerClient(port=handle.port) as b:
            warm = b.solve(topo, window)
            stats = b.stats()
        cold_iters = cold["result"]["stats"]["lp_iterations"]
        warm_iters = warm["result"]["stats"]["lp_iterations"]
        if warm_iters * BASIS_FACTOR > cold_iters:
            failures.append(
                f"new window took {warm_iters} LP iterations, more than "
                f"1/{BASIS_FACTOR} of the first solve's {cold_iters}"
            )
        if stats["warm"].get("bases", 0) < 1:
            failures.append("warm store holds no basis after a tree solve")
        inline = solve_lubt(topo, window)
        if canonical_cost(warm["result"]["cost"]) != canonical_cost(
            inline.cost
        ):
            failures.append(
                f"warm-started cost {warm['result']['cost']!r} != "
                f"in-process {inline.cost!r} (canonical)"
            )
        print(
            f"cross-client basis: first solve {cold_iters} LP iterations, "
            f"new window {warm_iters}, stored bases "
            f"{stats['warm'].get('bases', 0)}"
        )

    data = {
        "protocol": (
            f"prim2[{SINKS}], window [0.8, 1.2] x radius, inline server, "
            f"cache-hit best of {repeats}; cross-client sweep lowers="
            f"{list(SWEEP_LOWERS)} x upper 1.3"
        ),
        "sinks": m,
        "cold_seconds": cold_seconds,
        "cache_hit_seconds": hit_seconds,
        "repeat_speedup": speedup,
        "required_repeat_speedup": repeat_factor,
        "bit_identical": all("bit-identical" not in f for f in failures),
        "sweep_points": done["points"],
        "sweep_seconds": sweep_seconds,
        "first_point_warm_rows": points[0]["warm_rows"] if points else 0,
        "warm_rows_total": done["warm_rows_total"],
        "basis_window": list(BASIS_WINDOW),
        "basis_cold_iterations": cold_iters,
        "basis_warm_iterations": warm_iters,
        "canonical_cost": canonical_cost(first["result"]["cost"]),
    }
    return data, failures


def check_against(baseline_path: Path, fresh: dict, factor: float) -> list[str]:
    """CI mode: fresh latencies must not regress past ``factor`` x the
    committed ones (costs must agree canonically)."""
    failures = []
    ref = json.loads(baseline_path.read_text())
    if fresh["canonical_cost"] != ref["canonical_cost"]:
        failures.append(
            f"canonical cost drifted {ref['canonical_cost']!r} -> "
            f"{fresh['canonical_cost']!r}"
        )
    for key in ("cold_seconds", "cache_hit_seconds", "sweep_seconds"):
        if ref[key] > 0 and fresh[key] / ref[key] > factor:
            failures.append(
                f"{key}: {fresh[key]:.4f}s vs committed {ref[key]:.4f}s "
                f"({fresh[key] / ref[key]:.2f}x > {factor:g}x)"
            )
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_server.json")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed baseline instead "
                    "of overwriting it")
    ap.add_argument("--factor", type=float, default=4.0,
                    help="--check: fail when fresh/committed latency "
                    "exceeds this (default 4.0 — socket timings are noisy)")
    ap.add_argument("--repeat-factor", type=float, default=2.0,
                    help="cache hit must beat the cold solve by this "
                    "factor (default 2.0)")
    ap.add_argument("--repeats", type=int, default=3,
                    help="best-of-N cache-hit timings (default 3)")
    args = ap.parse_args(argv)

    data, failures = run_bench(args.repeat_factor, args.repeats)
    if args.check:
        failures += check_against(args.out, data, args.factor)
    else:
        args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if failures:
        print("\nserver bench FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nserver bench passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
