"""``lubt`` command-line interface.

Subcommands map one-to-one onto the experiment drivers:

    lubt solve  --bench prim1 --lower 0.9 --upper 1.1 [--sinks 64]
                [--resilient] [--race] [--lp-timeout S] [--diagnose]
    lubt table1 --bench prim1 [--sinks 64] [--jobs N]
    lubt table2 --bench prim2 --skew 0.5 [--sinks 64] [--jobs N]
    lubt table3 --bench r1 [--sinks 64] [--jobs N]
    lubt fig8   --bench prim2 [--sinks 64] [--plot] [--jobs N]
    lubt cts    --placement FILE [--nets N] [--jobs N] [--topology auto]
                [--journal PATH] [--resume] | --synth NETSxSINKS [--seed S]
    lubt serve  [--port 9155] [--jobs N] [--cache-size 256]
    lubt request --port 9155 --bench prim1 [--op solve|sweep|stats|...]
    lubt chaos  [--seed 1234] [--duration 15] [--clients 3] [--jobs 2]
    lubt benchmarks

``--sinks`` runs the benchmark's scaled view (first N sinks); omit it for
the full paper-scale net.  ``--jobs N`` solves the independent rows of a
table across N worker processes (see :mod:`repro.perf`); the rendered
output is identical to the serial run.  ``table2``/``table3``/``fig8``
accept ``--journal PATH`` (crash-safe per-solve JSONL journal) and
``--resume`` (replay a killed run's completed solves and finish the
rest; the rendered table is byte-identical to an uninterrupted run).
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import Table
from repro.data import benchmark_names, load_benchmark
from repro.ebf import DelayBounds
from repro.experiments import (
    render_table1,
    render_table2,
    render_table3,
    render_fig8,
    run_fig8,
    run_table1,
    run_table2,
    run_table3,
)
from repro.geometry import manhattan_radius_from
from repro.topology import nearest_neighbor_topology


def _bench_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bench",
        default="prim1",
        choices=benchmark_names(),
        help="benchmark surrogate to use",
    )
    parser.add_argument(
        "--sinks",
        type=int,
        default=None,
        help="use only the first N sinks (default: full size)",
    )


def _jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="solve independent rows across N worker processes "
        "(default: 1, serial; output is identical either way)",
    )


def _journal_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append each completed solve to a crash-safe JSONL journal; "
        "a killed run restarted with --resume replays completed work",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an existing --journal instead of refusing to "
        "overwrite it",
    )


def _open_journal(args):
    """``--journal/--resume`` -> an open SolveJournal (or None).

    A fresh run refuses a non-empty existing journal unless ``--resume``
    is given: silently mixing two different runs' records in one file is
    exactly the corruption the journal exists to prevent.
    """
    if args.journal is None:
        if args.resume:
            raise SystemExit("--resume requires --journal PATH")
        return None
    from pathlib import Path

    from repro.perf import SolveJournal

    path = Path(args.journal)
    if path.exists() and path.stat().st_size > 0 and not args.resume:
        raise SystemExit(
            f"journal {path} already exists; pass --resume to continue "
            f"it, or delete it to start fresh"
        )
    return SolveJournal(path)


def _close_journal(journal) -> None:
    if journal is not None:
        print(
            f"journal: {journal.replayed} solve(s) replayed, "
            f"{journal.appended} appended ({journal.path})"
        )
        journal.close()


def _load(args) -> object:
    bench = load_benchmark(args.bench)
    if args.sinks is not None:
        bench = bench.scaled(args.sinks)
    return bench


def _cmd_solve(args) -> int:
    from repro.embedding import solve_and_embed
    from repro.resilience import AllBackendsFailedError

    source, sinks, name = _load_instance_sinks(args)
    topo = nearest_neighbor_topology(sinks, source)
    radius = manhattan_radius_from(source, sinks)
    bounds = DelayBounds.uniform(
        len(sinks), args.lower * radius, args.upper * radius
    )
    on_infeasible = "relax" if args.diagnose else "raise"
    try:
        sol, tree = solve_and_embed(
            topo,
            bounds,
            check_bounds=False,
            resilient=args.resilient,
            lp_timeout=args.lp_timeout,
            on_infeasible=on_infeasible,
            race="auto" if args.race else None,
            backend=args.backend,
        )
    except AllBackendsFailedError as exc:
        print("solve failed — every LP backend was exhausted:", file=sys.stderr)
        print(exc.report.summary(), file=sys.stderr)
        return 2
    if sol.diagnosis is not None:
        _print_diagnosis(sol.diagnosis, radius)
    t = Table(["metric", "value"], title=f"LUBT on {name}")
    t.add_row("sinks", len(sinks))
    t.add_row("radius", radius)
    t.add_row("bounds (normalized)", f"[{args.lower}, {args.upper}]")
    if sol.diagnosis is not None:
        t.add_row("bounds relaxed", "yes (see diagnosis above)")
    t.add_row("tree cost", sol.cost)
    t.add_row("shortest delay", sol.shortest_delay / radius)
    t.add_row("longest delay", sol.longest_delay / radius)
    t.add_row("skew", sol.skew / radius)
    t.add_row("LP rounds", sol.stats.rounds)
    t.add_row("LP iterations", sol.stats.lp_iterations)
    t.add_row("Steiner rows used", sol.stats.steiner_rows)
    t.add_row("of possible", sol.stats.total_pairs)
    t.add_row("backend", sol.stats.backend)
    t.add_row("LP seconds", f"{sol.stats.lp_seconds:.4f}")
    t.add_row("embed seconds", f"{sol.stats.embed_seconds:.4f}")
    if args.resilient or args.race:
        t.add_row("LP fallbacks", sol.stats.lp_fallbacks)
    if args.race:
        from collections import Counter

        wins = Counter(
            r.result.backend
            for r in sol.solve_reports
            if r.result is not None
        )
        cancelled = sum(
            1
            for r in sol.solve_reports
            for a in r.attempts
            if a.outcome == "cancelled"
        )
        t.add_row(
            "race winners",
            ", ".join(f"{b} x{n}" for b, n in sorted(wins.items()))
            + f" ({cancelled} cancelled)",
        )
    print(t)
    if sol.diagnosis is not None:
        # Graceful degradation must end in a routable tree, not just an
        # LP answer; the embedded relaxed tree proves it.
        print(
            f"embedded relaxed tree: {len(tree.placements)} nodes, "
            f"drawn wirelength {tree.drawn_wirelength:,.1f}"
        )
    return 0


def _print_diagnosis(diag, radius: float) -> None:
    t = Table(
        ["sink", "lower/r", "upper/r", "lower -", "upper +"],
        title="infeasibility diagnosis (minimal bound relaxation)",
    )
    for r in diag.conflicting:
        t.add_row(
            f"s{r.sink}",
            r.lower / radius,
            r.upper / radius,
            r.lower_relax / radius,
            r.upper_relax / radius,
        )
    print("bounds are infeasible — no LUBT exists (Section 9 certificate)")
    print(t)
    print(
        f"total relaxation {diag.total_slack / radius:.4f} x radius across "
        f"{len(diag.conflicting)} sink(s); re-solving with relaxed bounds"
    )


def _load_instance_sinks(args) -> tuple[object, list, str]:
    """Shared ``--bench``/``--file`` instance loading for solve/check."""
    if getattr(args, "file", None):
        from repro.data import load_sinks_file
        from repro.geometry import Point, bounding_box

        source, sinks, _ = load_sinks_file(args.file)
        if source is None:
            xmin, ymin, xmax, ymax = bounding_box(sinks)
            source = Point((xmin + xmax) / 2, (ymin + ymax) / 2)
        return source, sinks, args.file
    bench = _load(args)
    return bench.source, list(bench.sinks), bench.name


def _check_one(topo, bounds, *, with_lp: bool = True):
    """Run the staged static check: topology + bounds first, then —
    errors or not — attempt the LP build so LP-level findings (and any
    BD006 collapse emitted during assembly) land in the same report."""
    from repro.check import CheckResult, check_instance, collect
    from repro.ebf.formulation import build_ebf_lp

    result = check_instance(topo, bounds)
    build_error = None
    if with_lp:
        lp = None
        with collect() as emitted:
            try:
                lp = build_ebf_lp(topo, bounds)
            except Exception as exc:  # noqa: BLE001 — reporting boundary:
                # the instance is arbitrary and possibly broken by design
                build_error = f"{type(exc).__name__}: {exc}"
        diags = list(result.diagnostics) + emitted
        if lp is not None:
            diags += check_instance(lp=lp).diagnostics
        result = CheckResult(tuple(diags))
    return result, build_error


def _cmd_check(args) -> int:
    import json as _json

    source, sinks, name = _load_instance_sinks(args)
    radius = manhattan_radius_from(source, sinks)
    topo = nearest_neighbor_topology(sinks, source)
    # Deliberately *unchecked*: `lubt check` must be able to represent
    # the broken window it is asked to diagnose.
    lower = [args.lower * radius] * len(sinks)
    upper = [args.upper * radius] * len(sinks)
    bounds = DelayBounds.unchecked(lower, upper)

    if args.suite == "table1":
        payload, failed = _check_table1_suite(args, name)
    else:
        result, build_error = _check_one(topo, bounds)
        payload = {
            "instance": name,
            "sinks": len(sinks),
            **result.to_json_dict(),
        }
        if build_error is not None:
            payload["build_error"] = build_error
        failed = not result.ok or build_error is not None
        if not args.json:
            print(f"checking {name} ({len(sinks)} sinks)")
            print(result.summary())
            if build_error is not None:
                print(f"LP build failed: {build_error}")
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
    if args.fail_on_warning and not failed:
        failed = payload["counts"]["warning"] > 0 if "counts" in payload else any(
            row["counts"]["warning"] for row in payload.get("rows", ())
        )
    return 1 if failed else 0


def _check_table1_suite(args, name: str) -> tuple[dict, bool]:
    """Statically verify every (topology, bounds) pair Table 1 would
    solve: baseline topology + realized-delay windows per skew bound."""
    from repro.baselines import bounded_skew_tree
    from repro.experiments.table1 import PAPER_SKEW_BOUNDS
    import math

    bench = _load(args)
    sinks = list(bench.sinks)
    radius = manhattan_radius_from(bench.source, sinks)
    rows = []
    failed = False
    counts = {"error": 0, "warning": 0, "info": 0}
    for skew in PAPER_SKEW_BOUNDS:
        bound_abs = skew * radius if math.isfinite(skew) else math.inf
        base = bounded_skew_tree(sinks, bound_abs, bench.source, verify=False)
        bounds = DelayBounds.uniform(
            bench.num_sinks, base.shortest_delay, base.longest_delay
        )
        result, build_error = _check_one(base.topology, bounds)
        row = {
            "skew_bound": skew if math.isfinite(skew) else "inf",
            **result.to_json_dict(),
        }
        if build_error is not None:
            row["build_error"] = build_error
        rows.append(row)
        for k in counts:
            counts[k] += row["counts"][k]
        failed = failed or not result.ok or build_error is not None
        if not args.json:
            print(f"skew bound {skew:g}: {result.summary().splitlines()[-1]}")
    return {"instance": name, "suite": "table1", "counts": counts,
            "ok": not failed, "rows": rows}, failed


def _cmd_table1(args) -> int:
    print(render_table1(run_table1(_load(args), jobs=args.jobs)))
    return 0


def _cmd_table2(args) -> int:
    journal = _open_journal(args)
    try:
        rows = run_table2(
            _load(args), args.skew, jobs=args.jobs, journal=journal
        )
    finally:
        _close_journal(journal)
    print(render_table2(rows))
    return 0


def _cmd_table3(args) -> int:
    journal = _open_journal(args)
    try:
        rows = run_table3(_load(args), jobs=args.jobs, journal=journal)
    finally:
        _close_journal(journal)
    print(render_table3(rows))
    return 0


def _cmd_fig8(args) -> int:
    journal = _open_journal(args)
    try:
        points = run_fig8(_load(args), jobs=args.jobs, journal=journal)
    finally:
        _close_journal(journal)
    print(render_fig8(points))
    if args.plot:
        from repro.experiments.fig8 import ascii_plot

        print()
        print(ascii_plot(points))
    return 0


def _parse_synth_spec(spec: str) -> tuple[int, int]:
    """``"256x8"`` -> ``(256, 8)`` (nets x sinks-per-net)."""
    nets, sep, sinks = spec.lower().partition("x")
    if not sep:
        raise SystemExit(
            f"bad --synth spec {spec!r} (expected NETSxSINKS, e.g. 256x8)"
        )
    try:
        return int(nets), int(sinks)
    except ValueError:
        raise SystemExit(
            f"bad --synth spec {spec!r} (expected NETSxSINKS, e.g. 256x8)"
        ) from None


def _cmd_cts(args) -> int:
    from repro.data import parse_placement_map, synth_placement
    from repro.perf import run_cts

    if (args.placement is None) == (args.synth is None):
        raise SystemExit("pass exactly one of --placement FILE / --synth NxM")
    if args.placement is not None:
        placement = parse_placement_map(args.placement)
        label = args.placement
    else:
        n, m = _parse_synth_spec(args.synth)
        placement = synth_placement(nets=n, sinks_per_net=m, seed=args.seed)
        label = f"synth {n}x{m} (seed {args.seed})"
    journal = _open_journal(args)
    progress = None
    if args.progress:
        done = [0]

        def progress(r) -> None:
            done[0] += 1
            print(
                f"  [{done[0]}] {r.name}: "
                + (f"cost {r.cost:,.1f}" if r.ok else f"FAILED ({r.error})"),
                flush=True,
            )

    try:
        report = run_cts(
            placement,
            jobs=args.jobs,
            timeout=args.timeout,
            journal=journal,
            topology=args.topology,
            lower=args.lower,
            upper=args.upper,
            nets=args.nets,
            on_net=progress,
        )
    finally:
        _close_journal(journal)
    print(f"placement: {label}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_chaos(args) -> int:
    from repro.resilience.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        seed=args.seed,
        duration=args.duration,
        clients=args.clients,
        jobs=args.jobs,
        sinks=args.sinks,
        points=args.points,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        kill_workers=not args.no_kill,
        sanitize=args.sanitize,
        stall_threshold=args.stall_threshold,
    )
    report = run_chaos(config)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_sensitivity(args) -> int:
    from repro.analysis import delay_sensitivities

    bench = _load(args)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    bounds = DelayBounds.uniform(
        bench.num_sinks, args.lower * radius, args.upper * radius
    )
    sol, sens = delay_sensitivities(topo, bounds, check_bounds=False)
    t = Table(
        ["sink", "delay/r", "binding", "d cost/d l", "d cost/d u"],
        title=f"delay-bound shadow prices on {bench.name} "
        f"(cost {sol.cost:,.1f})",
    )
    for s in sorted(sens, key=lambda s: -(abs(s.lower_price) + abs(s.upper_price))):
        binding = (
            "lower" if s.lower_binding else "upper" if s.upper_binding else "-"
        )
        t.add_row(f"s{s.sink}", s.delay / radius, binding, s.lower_price, s.upper_price)
    print(t)
    return 0


def _cmd_zeroskew(args) -> int:
    from repro.ebf import solve_zero_skew

    bench = _load(args)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    sol = solve_zero_skew(topo)
    t = Table(["metric", "value"], title=f"zero-skew tree on {bench.name}")
    t.add_row("sinks", bench.num_sinks)
    t.add_row("tree cost", sol.cost)
    t.add_row("common delay", sol.delay)
    t.add_row("delay / radius", sol.delay / radius)
    print(t)
    return 0


def _cmd_svg(args) -> int:
    from repro.analysis import save_svg
    from repro.embedding import solve_and_embed

    bench = _load(args)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    bounds = DelayBounds.uniform(
        bench.num_sinks, args.lower * radius, args.upper * radius
    )
    sol, tree = solve_and_embed(topo, bounds, check_bounds=False)
    save_svg(args.output, tree, label_sinks=bench.num_sinks <= 40)
    print(
        f"wrote {args.output} (cost {sol.cost:,.1f}, "
        f"skew {sol.skew / radius:.3f} x radius)"
    )
    return 0


def _cmd_serve(args) -> int:
    from repro.server import SolveServer

    server = SolveServer(
        args.host,
        args.port,
        jobs=args.jobs,
        cache_size=args.cache_size,
        solve_timeout=args.solve_timeout,
    )

    async def _amain() -> None:
        await server.start()
        mode = (
            f"{args.jobs} resident workers" if args.jobs > 1
            else "inline solves"
        )
        print(
            f"lubt solve server listening on {server.host}:{server.port} "
            f"({mode}, cache {args.cache_size})",
            flush=True,
        )
        await server.serve_until_shutdown()

    import asyncio

    try:
        asyncio.run(_amain())
    except KeyboardInterrupt:
        pass
    return 0


def _parse_windows(spec: str) -> list[tuple[float, float]]:
    """``"0.5:1.2,0.7:1.2"`` -> ``[(0.5, 1.2), (0.7, 1.2)]``."""
    windows = []
    for part in spec.split(","):
        lo, _, hi = part.partition(":")
        if not _:
            raise ValueError(f"bad window {part!r} (expected LOWER:UPPER)")
        windows.append((float(lo), float(hi)))
    return windows


def _cmd_request(args) -> int:
    import json as _json

    from repro.server import ServerClient, ServerError

    with ServerClient(args.host, args.port, timeout=args.timeout) as client:
        if args.op in ("ping", "stats", "shutdown"):
            reply = getattr(client, args.op)()
            print(_json.dumps(reply, indent=2, sort_keys=True))
            return 0

        source, sinks, name = _load_instance_sinks(args)
        topo = nearest_neighbor_topology(sinks, source)
        radius = manhattan_radius_from(source, sinks)
        try:
            if args.op == "sweep":
                blist = [
                    DelayBounds.uniform(
                        len(sinks), lo * radius, hi * radius
                    )
                    for lo, hi in _parse_windows(args.windows)
                ]
                points, done = client.sweep(topo, blist)
                t = Table(
                    ["window", "cost", "cache", "warm rows"],
                    title=f"server sweep of {name}",
                )
                for (lo, hi), p in zip(_parse_windows(args.windows), points):
                    if not p.get("ok", False):
                        t.add_row(f"[{lo}, {hi}]", f"error: {p['error']}", "", "")
                        continue
                    t.add_row(
                        f"[{lo}, {hi}]",
                        p["result"]["cost"],
                        "hit" if p["cache_hit"] else "miss",
                        p["warm_rows"],
                    )
                print(t)
                print(
                    f"{done['points']} points, {done['cache_hits']} cache "
                    f"hits, {done['warm_rows_total']} warm rows total"
                )
                return 1 if done["errors"] else 0
            reply = client.solve(
                topo,
                DelayBounds.uniform(
                    len(sinks), args.lower * radius, args.upper * radius
                ),
            )
        except ServerError as exc:
            print(f"server refused the request: {exc}", file=sys.stderr)
            return 2
    res = reply["result"]
    t = Table(["metric", "value"], title=f"served LUBT on {name}")
    t.add_row("sinks", len(sinks))
    t.add_row("tree cost", res["cost"])
    t.add_row("skew", res["skew"] / radius)
    t.add_row("backend", res["stats"]["backend"])
    t.add_row("served from cache", "yes" if reply["cache_hit"] else "no")
    t.add_row("warm-seeded rows", reply["warm_rows"])
    t.add_row("instance key", reply["instance_key"][:16] + "…")
    print(t)
    return 0


def _cmd_benchmarks(_args) -> int:
    t = Table(["name", "sinks", "description"], title="benchmark surrogates")
    for name in benchmark_names():
        b = load_benchmark(name)
        t.add_row(b.name, b.num_sinks, b.description)
    print(t)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lubt",
        description="LUBT (bounded-delay routing trees via LP) experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one LUBT instance")
    _bench_arg(p)
    p.add_argument("--lower", type=float, default=0.8, help="lower bound / radius")
    p.add_argument("--upper", type=float, default=1.2, help="upper bound / radius")
    p.add_argument(
        "--file",
        default=None,
        help="load sinks from a pin-list/CSV file instead of a surrogate",
    )
    p.add_argument(
        "--backend",
        choices=("auto", "simplex", "scipy", "tree"),
        default="auto",
        help="LP backend: 'tree' uses the structure-aware collapsed "
        "solve; 'auto' takes it from 8 sinks up and picks a generic "
        "backend by size below that",
    )
    p.add_argument(
        "--resilient",
        action="store_true",
        help="solve LPs through the backend fallback chain "
        "(simplex -> scipy -> tree, with retries)",
    )
    p.add_argument(
        "--race",
        action="store_true",
        help="race the LP backends concurrently and take the first "
        "definitive answer (losers are cancelled and recorded)",
    )
    p.add_argument(
        "--lp-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt LP wall-clock limit (resilient mode)",
    )
    p.add_argument(
        "--diagnose",
        action="store_true",
        help="on infeasible bounds, print the elastic infeasibility "
        "diagnosis and solve under the minimal relaxation",
    )
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "check",
        help="statically verify an instance before solving "
        "(typed LP/TP/BD diagnostics; exit 1 on errors)",
    )
    _bench_arg(p)
    p.add_argument("--lower", type=float, default=0.8, help="lower bound / radius")
    p.add_argument("--upper", type=float, default=1.2, help="upper bound / radius")
    p.add_argument(
        "--file",
        default=None,
        help="check sinks from a pin-list/CSV file instead of a surrogate",
    )
    p.add_argument(
        "--suite",
        choices=("none", "table1"),
        default="none",
        help="check every (topology, bounds) pair an experiment suite "
        "would solve instead of a single instance",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable report on stdout"
    )
    p.add_argument(
        "--fail-on-warning",
        action="store_true",
        help="exit nonzero on warnings too (default: errors only)",
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("table1", help="reproduce Table 1 for one benchmark")
    _bench_arg(p)
    _jobs_arg(p)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="reproduce Table 2 for one benchmark")
    _bench_arg(p)
    _jobs_arg(p)
    _journal_args(p)
    p.add_argument("--skew", type=float, default=0.5, help="skew bound / radius")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("table3", help="reproduce Table 3 for one benchmark")
    _bench_arg(p)
    _jobs_arg(p)
    _journal_args(p)
    p.set_defaults(func=_cmd_table3)

    p = sub.add_parser("fig8", help="reproduce the Figure 8 tradeoff sweep")
    _bench_arg(p)
    _jobs_arg(p)
    _journal_args(p)
    p.add_argument("--plot", action="store_true", help="also print an ASCII plot")
    p.set_defaults(func=_cmd_fig8)

    p = sub.add_parser(
        "cts",
        help="chip-scale clock-tree flow: solve every clock net of a "
        "placement as one batch on the resident scheduler",
    )
    p.add_argument(
        "--placement",
        default=None,
        metavar="FILE",
        help="placement.map file (cells + I/O ports; clock nets are "
        "grouped from the mapped register names)",
    )
    p.add_argument(
        "--synth",
        default=None,
        metavar="NxM",
        help="generate a seeded synthetic placement with N clock nets "
        "of M sinks each instead of reading a file (e.g. 1024x8)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="seed for --synth (default 0)"
    )
    p.add_argument(
        "--nets",
        type=int,
        default=None,
        metavar="N",
        help="solve only the first N clock nets (default: all)",
    )
    _jobs_arg(p)
    _journal_args(p)
    p.add_argument(
        "--topology",
        choices=("auto", "nn", "bipartition", "htree"),
        default="auto",
        help="per-net topology builder; 'auto' picks by sink count "
        "(nn <=32, bipartition <=256, htree beyond)",
    )
    p.add_argument("--lower", type=float, default=0.8, help="lower bound / radius")
    p.add_argument("--upper", type=float, default=1.2, help="upper bound / radius")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-net kill-on-timeout (scoped to the offending net; "
        "chunk survivors are resubmitted)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="print each net as it completes (completion order)",
    )
    p.set_defaults(func=_cmd_cts)

    p = sub.add_parser(
        "chaos",
        help="seeded chaos soak: abuse a live solve server with "
        "overload, worker kills, backend faults, and protocol garbage; "
        "exit 0 iff zero wrong answers, no hangs, consistent counters",
    )
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument(
        "--duration", type=float, default=15.0,
        help="soak length in seconds (total run is bounded by roughly "
        "this plus startup/teardown)",
    )
    p.add_argument("--clients", type=int, default=3, metavar="N")
    p.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="server worker processes (>1 enables worker killing)",
    )
    p.add_argument("--sinks", type=int, default=7, metavar="N")
    p.add_argument(
        "--points", type=int, default=4, metavar="N",
        help="known-answer bound windows in the instance family",
    )
    p.add_argument(
        "--max-inflight", type=int, default=1, metavar="N",
        help="admission-control concurrency (small values force sheds)",
    )
    p.add_argument("--queue-limit", type=int, default=1, metavar="N")
    p.add_argument(
        "--no-kill", action="store_true",
        help="do not SIGKILL pool workers during the soak",
    )
    p.add_argument(
        "--sanitize", action="store_true",
        help="run under the runtime sanitizer harness: instrumented "
        "locks (lock-order cycles fail the run) plus an event-loop "
        "stall detector in the server",
    )
    p.add_argument(
        "--stall-threshold", type=float, default=0.5, metavar="SEC",
        help="loop-stall report threshold with --sanitize (seconds)",
    )
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "sensitivity", help="per-sink delay-bound shadow prices (LP duals)"
    )
    _bench_arg(p)
    p.add_argument("--lower", type=float, default=0.9, help="lower bound / radius")
    p.add_argument("--upper", type=float, default=1.1, help="upper bound / radius")
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("zeroskew", help="exact zero-skew tree (Sec. 4.6)")
    _bench_arg(p)
    p.set_defaults(func=_cmd_zeroskew)

    p = sub.add_parser("svg", help="solve and export the tree as SVG")
    _bench_arg(p)
    p.add_argument("--lower", type=float, default=0.8)
    p.add_argument("--upper", type=float, default=1.2)
    p.add_argument("--output", default="lubt_tree.svg")
    p.set_defaults(func=_cmd_svg)

    p = sub.add_parser(
        "serve",
        help="run a resident solve server (JSON-lines protocol; "
        "instance cache + cross-request warm starts)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=9155,
        help="listening port (0 picks a free one; printed at startup)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="resident solve workers (1 = solve inline in the server)",
    )
    p.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="result-cache capacity in instances (0 disables caching)",
    )
    p.add_argument(
        "--solve-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-request wall-clock limit (worker-pool mode)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "request", help="send one request to a running solve server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9155)
    p.add_argument(
        "--timeout", type=float, default=300.0, help="socket timeout (s)"
    )
    p.add_argument(
        "--op",
        choices=("solve", "sweep", "ping", "stats", "shutdown"),
        default="solve",
    )
    _bench_arg(p)
    p.add_argument("--lower", type=float, default=0.8, help="lower bound / radius")
    p.add_argument("--upper", type=float, default=1.2, help="upper bound / radius")
    p.add_argument(
        "--file",
        default=None,
        help="load sinks from a pin-list/CSV file instead of a surrogate",
    )
    p.add_argument(
        "--windows",
        default="0.5:1.2,0.7:1.2,0.9:1.2",
        help="sweep windows as LOWER:UPPER[,LOWER:UPPER...] (x radius)",
    )
    p.set_defaults(func=_cmd_request)

    p = sub.add_parser("benchmarks", help="list benchmark surrogates")
    p.set_defaults(func=_cmd_benchmarks)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
