"""Chip-scale CTS driver: one placement → thousands of LUBT solves.

The multi-net clock-tree flow: parse a placement, group its flops into
clock nets, build a per-net topology (H-tree / bipartition /
nearest-neighbor by size), attach a per-net delay window normalized to
the net's own radius, and push every net through the chunked dispatch of
:func:`~repro.perf.run_many` on one resident worker pool — with
optional crash-safe journal/resume, exactly like the experiment tables.

This is the throughput stress test of the whole perf stack: at 10k nets
the per-net solve is milliseconds, so nets/second is decided by
dispatch overhead, which is what the scheduler's fork-once chunked
design exists to remove.  :func:`run_cts` reports it directly
(``nets_per_second``, per-net latency percentiles, pool counters).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.data.placement import (
    ClockNet,
    Placement,
    extract_clock_nets,
    parse_placement_map,
)
from repro.perf.batch import SolveTask, solve_many
from repro.perf.journal import SolveJournal
from repro.perf.pool import TaskOutcome, WorkerPool

#: Default per-net delay window, as multiples of the net radius (the
#: Tables 1-3 convention: sinks no closer than 0.8x and no farther than
#: 1.2x the farthest sink's distance).
DEFAULT_LOWER = 0.8
DEFAULT_UPPER = 1.2


@dataclass(frozen=True)
class CtsNetResult:
    """Outcome of one net's solve."""

    name: str
    num_sinks: int
    ok: bool
    cost: float | None
    seconds: float
    error: str | None = None
    timed_out: bool = False


@dataclass(frozen=True)
class CtsReport:
    """Aggregate result of a CTS run."""

    nets: int
    solved: int
    failed: int
    total_sinks: int
    wall_seconds: float
    nets_per_second: float
    p50_seconds: float
    p99_seconds: float
    total_cost: float
    results: tuple[CtsNetResult, ...]
    scheduler: Mapping[str, Any] = field(default_factory=dict)
    replayed: int = 0
    appended: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def summary(self) -> str:
        lines = [
            f"CTS: {self.solved}/{self.nets} nets solved "
            f"({self.total_sinks} sinks) in {self.wall_seconds:.2f}s "
            f"= {self.nets_per_second:,.1f} nets/s",
            f"per-net latency: p50 {1e3 * self.p50_seconds:.2f}ms, "
            f"p99 {1e3 * self.p99_seconds:.2f}ms; "
            f"total wirelength {self.total_cost:,.1f}",
        ]
        if self.failed:
            worst = [r.name for r in self.results if not r.ok][:5]
            lines.append(
                f"FAILED nets: {self.failed} (first: {', '.join(worst)})"
            )
        if self.replayed or self.appended:
            lines.append(
                f"journal: {self.replayed} replayed, "
                f"{self.appended} appended"
            )
        s = self.scheduler
        if s.get("tasks_run"):
            lines.append(
                f"pool: {s['tasks_run']} tasks on {s['jobs']} workers "
                f"(pool reuse {s['pool_reuse']}, "
                f"{s['workers_replaced']} workers replaced)"
            )
        return "\n".join(lines)


def cts_tasks(
    placement: Placement | str | Path,
    *,
    topology: str = "auto",
    lower: float = DEFAULT_LOWER,
    upper: float = DEFAULT_UPPER,
    nets: int | None = None,
) -> list[tuple[ClockNet, SolveTask]]:
    """Turn a placement into per-net :class:`~repro.perf.SolveTask` s.

    Each net gets its own topology (``topology`` as in
    :func:`repro.topology.build_net_topology`) and a delay window of
    ``[lower, upper]`` x that net's radius — per-net bounds, since a
    2mm block net and a 200um leaf net live at different scales.
    ``nets`` caps how many nets are taken (file order, the natural
    "first N nets of the design" prefix).  Single-sink nets are skipped
    — a one-sink net has no tree to optimize.  Every net is solved with
    ``solve_lubt``'s defaults.
    """
    from repro.geometry import manhattan_radius_from
    from repro.ebf import DelayBounds
    from repro.topology import build_net_topology

    if isinstance(placement, (str, Path)):
        placement = parse_placement_map(placement)
    all_nets = extract_clock_nets(placement)
    if nets is not None:
        all_nets = all_nets[:nets]
    out: list[tuple[ClockNet, SolveTask]] = []
    for net in all_nets:
        if net.num_sinks < 2:
            continue
        sinks = list(net.sinks)
        topo = build_net_topology(sinks, net.source, kind=topology)
        radius = manhattan_radius_from(net.source, sinks)
        bounds = DelayBounds.uniform(
            len(sinks), lower * radius, upper * radius
        )
        out.append((net, SolveTask(topo, bounds)))
    return out


def run_cts(
    placement: Placement | str | Path,
    *,
    jobs: int = 1,
    timeout: float | None = None,
    journal: SolveJournal | None = None,
    topology: str = "auto",
    lower: float = DEFAULT_LOWER,
    upper: float = DEFAULT_UPPER,
    nets: int | None = None,
    pool: WorkerPool | None = None,
    on_net: Callable[[CtsNetResult], Any] | None = None,
    tasks: Sequence[tuple[ClockNet, SolveTask]] | None = None,
) -> CtsReport:
    """Solve every clock net of a placement; return a :class:`CtsReport`.

    ``jobs``/``timeout``/``journal``/``pool`` thread straight into
    :func:`repro.perf.solve_many` — the batch runs on a resident pool
    with chunked dispatch, per-completion journal appends, and timeout
    kills scoped to the offending net.  Without ``pool=`` a parallel run
    forks its own ``min(jobs, nets)`` workers and closes them afterwards;
    either way the report's ``scheduler`` block carries that pool's
    counters.  ``on_net`` fires per net in completion order.  ``jobs=1``
    (no timeout/pool) runs inline serially; per-net costs are
    bit-identical between the two paths.

    ``tasks`` (from :func:`cts_tasks`) skips re-extraction when the
    caller already built the task list — e.g. to time workload prep and
    solve phases separately, or to solve one list under several
    schedules.
    """
    pairs = list(tasks) if tasks is not None else cts_tasks(
        placement,
        topology=topology,
        lower=lower,
        upper=upper,
        nets=nets,
    )
    net_results: list[CtsNetResult | None] = [None] * len(pairs)

    def _on_result(o: TaskOutcome) -> None:
        net = pairs[o.index][0]
        r = CtsNetResult(
            net.name,
            net.num_sinks,
            o.ok,
            float(o.value.cost) if o.ok else None,
            o.elapsed,
            error=o.error,
            timed_out=o.timed_out,
        )
        net_results[o.index] = r
        if on_net is not None:
            on_net(r)

    t0 = time.perf_counter()
    replayed0 = journal.replayed if journal is not None else 0
    appended0 = journal.appended if journal is not None else 0
    own_pool = pool is None and (jobs > 1 or timeout is not None)
    if own_pool:
        pool = WorkerPool(max(1, min(jobs, len(pairs))))
    try:
        outcomes = solve_many(
            [t for _, t in pairs],
            jobs=jobs,
            timeout=timeout,
            journal=journal,
            pool=pool,
            on_result=_on_result,
        )
        scheduler_stats = pool.stats() if pool is not None else {}
    finally:
        if own_pool:
            pool.close()
    wall = time.perf_counter() - t0

    assert all(r is not None for r in net_results)
    results: list[CtsNetResult] = net_results  # type: ignore[assignment]
    solved = sum(1 for r in results if r.ok)
    seconds = sorted(r.seconds for r in results) or [0.0]

    def _pct(q: float) -> float:
        if not seconds:
            return 0.0
        k = min(len(seconds) - 1, max(0, int(round(q * (len(seconds) - 1)))))
        return seconds[k]

    if not outcomes:
        wall = max(wall, 1e-12)
    return CtsReport(
        nets=len(pairs),
        solved=solved,
        failed=len(pairs) - solved,
        total_sinks=sum(r.num_sinks for r in results),
        wall_seconds=wall,
        nets_per_second=solved / max(wall, 1e-12),
        p50_seconds=_pct(0.50),
        p99_seconds=_pct(0.99),
        total_cost=sum(r.cost for r in results if r.ok and r.cost),
        results=tuple(results),
        scheduler=scheduler_stats,
        replayed=(journal.replayed - replayed0) if journal else 0,
        appended=(journal.appended - appended0) if journal else 0,
    )
