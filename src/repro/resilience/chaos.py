"""Chaos soak harness: a live solve server under seeded abuse.

Overload, crash, and recovery code that is only exercised by unit tests
tends to rot at the *seams* — the places where admission control meets
the pool, the pool meets the breaker registry, and all of them meet a
client that disconnects mid-request.  :func:`run_chaos` drives a real
:class:`~repro.server.ServerThread` with concurrent clients running a
seeded action mix:

* **solve** requests from a known instance family (answers are checked
  against ground truth computed up front, in-process);
* **malformed** JSON lines (must earn a typed ``bad-request`` error);
* **oversized** lines (typed ``oversized`` error, then disconnect);
* **mid-request disconnects** (half a request, then a closed socket);
* **ping**/**stats** probes;

while (optionally) a killer thread SIGKILLs pool workers mid-solve and
:class:`~repro.resilience.faults.FaultyBackend` schedules force the
simplex and tree backends to fail, exercising fallback (the tree lane's
included) and circuit breakers server-side.

The pass/fail contract is chosen to be **deterministic for a fixed
seed** even though thread/socket timing is not: the harness asserts
*invariants* — zero wrong answers, zero hangs, protocol errors always
typed, counters consistent (``shed`` equals the busy replies clients
saw, ``solves <= requests``, cache within capacity) — never exact
traffic counts.  CI runs this as a bounded soak job (``lubt chaos``).
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos run (defaults are CI-sized)."""

    seed: int = 1234
    #: Soak length in seconds (wall clock; the whole run is bounded by
    #: roughly this plus startup/teardown).
    duration: float = 15.0
    clients: int = 3
    #: Server worker processes; ``jobs>1`` enables worker killing.
    jobs: int = 2
    sinks: int = 7
    #: Distinct bound windows in the known-answer instance family.
    points: int = 4
    max_inflight: int | None = None
    queue_limit: int = 2
    #: Deliberately smaller than the instance-family key space (points x
    #: batch variants) so the LRU churns and *real* solves keep flowing
    #: through the pool for the whole soak instead of the first seconds.
    cache_size: int = 12
    solve_timeout: float | None = 60.0
    #: Small line limit so oversized probes are cheap to construct.
    max_line_bytes: int = 64 * 1024
    kill_workers: bool = True
    #: Consecutive injected failures of the simplex and of the tree
    #: backend per solver map: the server's own in inline mode, a fresh
    #: copy with every pooled task (0 disables fault injection).
    fault_count: int = 8
    #: Client-side deadline (seconds) attached to a fraction of solves.
    deadline: float = 30.0
    #: Run under the runtime sanitizer harness (``lubt chaos
    #: --sanitize``): server/client locks are wrapped by a
    #: :class:`~repro.resilience.sanitize.LockSanitizer` (lock-order
    #: cycles become invariant violations) and the server runs an
    #: event-loop :class:`~repro.resilience.sanitize.StallMonitor`
    #: (stalls are reported in the summary, gated by the existing hang
    #: invariants).
    sanitize: bool = False
    #: Loop-stall threshold (seconds) when ``sanitize`` is on.
    stall_threshold: float = 0.5


@dataclass
class ChaosReport:
    """What happened, and whether the invariants held."""

    config: ChaosConfig
    elapsed: float = 0.0
    actions: dict = field(default_factory=dict)
    solves_checked: int = 0
    cache_hits: int = 0
    busy_observed: int = 0
    deadline_errors: int = 0
    solve_errors: int = 0
    #: Invariant violations (empty == pass).
    wrong_answers: list = field(default_factory=list)
    hangs: list = field(default_factory=list)
    inconsistencies: list = field(default_factory=list)
    protocol_failures: list = field(default_factory=list)
    #: Potential deadlocks the lock sanitizer recorded (``sanitize``
    #: runs only; empty == pass).
    lock_order_violations: list = field(default_factory=list)
    sanitizer_stats: dict = field(default_factory=dict)
    server_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (
            self.wrong_answers
            or self.hangs
            or self.inconsistencies
            or self.protocol_failures
            or self.lock_order_violations
        )

    def summary(self) -> str:
        lines = [
            f"chaos soak: seed={self.config.seed} "
            f"duration={self.elapsed:.1f}s clients={self.config.clients} "
            f"jobs={self.config.jobs}",
            f"  actions: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.actions.items())),
            f"  solves checked: {self.solves_checked} "
            f"(cache hits {self.cache_hits}), busy {self.busy_observed}, "
            f"deadline errors {self.deadline_errors}, "
            f"solve errors {self.solve_errors}",
        ]
        st = self.server_stats
        if st:
            lines.append(
                f"  server: requests={st.get('requests')} "
                f"solves={st.get('solves')} errors={st.get('errors')} "
                f"shed={st.get('shed')} "
                f"workers_replaced="
                f"{(st.get('pool') or {}).get('workers_replaced')}"
            )
            if st.get("breakers"):
                lines.append(
                    "  breakers: "
                    + ", ".join(
                        f"{n}={r['state']}(opens={r['opens']})"
                        for n, r in sorted(st["breakers"].items())
                    )
                )
        if self.sanitizer_stats:
            st = self.server_stats or {}
            stall = st.get("stall") or {}
            lines.append(
                f"  sanitizer: locks={self.sanitizer_stats['locks_created']} "
                f"acquisitions={self.sanitizer_stats['acquisitions']} "
                f"loop_stalls={stall.get('stalls', 'n/a')} "
                f"max_drift={stall.get('max_drift', 0.0):.3f}s"
            )
        for label, items in (
            ("WRONG ANSWERS", self.wrong_answers),
            ("HANGS", self.hangs),
            ("COUNTER INCONSISTENCIES", self.inconsistencies),
            ("PROTOCOL FAILURES", self.protocol_failures),
            ("LOCK ORDER VIOLATIONS", self.lock_order_violations),
        ):
            for item in items[:10]:
                lines.append(f"  {label}: {item}")
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _chaos_instances(config: ChaosConfig):
    """The known-answer family: one topology, ``points`` bound windows,
    each solved serially up front for ground-truth canonical costs."""
    from repro import DelayBounds, Point, nearest_neighbor_topology
    from repro.ebf.bounds import radius_of
    from repro.ebf.solver import solve_lubt
    from repro.ebf.sweep import canonical_cost

    rng = np.random.default_rng(config.seed)
    pts = [
        Point(float(x), float(y))
        for x, y in rng.integers(0, 80, (config.sinks, 2))
    ]
    topo = nearest_neighbor_topology(pts, Point(40.0, 40.0))
    r = radius_of(topo)
    factors = np.linspace(0.75, 0.95, config.points)
    family = [
        DelayBounds.uniform(config.sinks, float(f) * r, 1.4 * r)
        for f in factors
    ]
    expected = [
        canonical_cost(solve_lubt(topo, b).cost) for b in family
    ]
    return topo, family, expected


def _raw_probe(host, port, payload: bytes, timeout: float = 20.0):
    """Send raw bytes on a fresh socket; return the first reply line
    (possibly empty on immediate disconnect)."""
    with socket.create_connection((host, port), timeout=timeout) as s:
        s.sendall(payload)
        with s.makefile("rb") as f:
            return f.readline()


class _ClientWorker(threading.Thread):
    """One chaos client: a seeded action loop against the live server."""

    def __init__(self, index, config, port, topo, family, expected, report,
                 lock, t_end):
        super().__init__(name=f"chaos-client-{index}", daemon=True)
        self.index = index
        self.config = config
        self.port = port
        self.topo = topo
        self.family = family
        self.expected = expected
        self.report = report
        self.lock = lock
        self.t_end = t_end
        self.rng = random.Random(config.seed * 1000 + index)

    def _count(self, action: str) -> None:
        with self.lock:
            self.report.actions[action] = (
                self.report.actions.get(action, 0) + 1
            )

    def _check_solve(self, client) -> None:
        from repro.server.client import ServerBusyError, ServerError

        i = self.rng.randrange(len(self.family))
        use_deadline = self.rng.random() < 0.25
        # Varying ``batch`` (constraint-generation batch size) changes
        # the instance key but provably not the LP optimum, so the soak
        # keeps *real* solves flowing through the pool instead of
        # degenerating into a pure cache-hit loop — while every answer
        # stays checkable against the same ground truth.
        batch = self.rng.choice((8, 16, 32, 48, 64, 96))
        # A slice of solves pins the structure-aware tree backend so the
        # soak exercises it server-side, its fallback to the lazy loop
        # under injected tree failures included (distinct instance keys,
        # same ground-truth canonical cost — exact parity is the
        # invariant).
        extra = (
            {"backend": "tree"} if self.rng.random() < 0.25 else {}
        )
        try:
            reply = client.solve(
                self.topo,
                self.family[i],
                deadline=self.config.deadline if use_deadline else None,
                resilient=True,
                batch=batch,
                **extra,
            )
        except ServerBusyError:
            with self.lock:
                self.report.busy_observed += 1
            return
        except ServerError as exc:
            with self.lock:
                if exc.code == "deadline-expired":
                    self.report.deadline_errors += 1
                elif exc.code in ("solve-error", None):
                    # Injected worker kills / forced backend failures
                    # surface here; they are chaos working as intended,
                    # not wrongness — wrongness is a *wrong answer*.
                    self.report.solve_errors += 1
                else:
                    self.report.protocol_failures.append(
                        f"solve error with unexpected code {exc.code!r}: "
                        f"{exc}"
                    )
            return
        result = reply["result"]
        got = result["canonical_cost"]
        want = self.expected[i]
        lo, hi = self.family[i].lower, self.family[i].upper
        delays = result["delays"]
        bad_delay = any(
            d < float(lo[k]) - 1e-5 or d > float(hi[k]) + 1e-5
            for k, d in enumerate(delays)
        )
        with self.lock:
            self.report.solves_checked += 1
            if reply.get("cache_hit"):
                self.report.cache_hits += 1
            if abs(got - want) > 1e-7 * max(1.0, abs(want)):
                self.report.wrong_answers.append(
                    f"point {i}: canonical cost {got!r} != expected "
                    f"{want!r}"
                )
            if bad_delay:
                self.report.wrong_answers.append(
                    f"point {i}: delays outside the requested bounds"
                )

    def _abuse(self, kind: str) -> None:
        host = "127.0.0.1"
        try:
            if kind == "malformed":
                line = _raw_probe(host, self.port, b"this is not json\n")
                reply = json.loads(line) if line.strip() else {}
                if reply.get("code") != "bad-request":
                    with self.lock:
                        self.report.protocol_failures.append(
                            f"malformed line answered {reply!r}, "
                            f"expected code 'bad-request'"
                        )
            elif kind == "oversized":
                pad = b"x" * (self.config.max_line_bytes + 1024)
                line = _raw_probe(
                    host, self.port, b'{"op":"ping","pad":"' + pad + b'"}\n'
                )
                reply = json.loads(line) if line.strip() else {}
                if reply.get("code") != "oversized":
                    with self.lock:
                        self.report.protocol_failures.append(
                            f"oversized line answered {reply!r}, "
                            f"expected code 'oversized'"
                        )
            else:  # disconnect mid-request
                with socket.create_connection(
                    (host, self.port), timeout=20.0
                ) as s:
                    s.sendall(b'{"op":"solve","instance":')  # no newline
        except (OSError, ValueError):
            # Sockets racing server shutdown/chaos are expected noise,
            # not an invariant violation (those are reply-shaped).
            with self.lock:
                self.report.actions["abuse_io_noise"] = (
                    self.report.actions.get("abuse_io_noise", 0) + 1
                )

    def run(self) -> None:
        from repro.server.client import ServerClient

        try:
            client = ServerClient(
                port=self.port,
                timeout=120.0,
                busy_retries=0,  # every shed must surface and be counted
                connect_retries=4,
                jitter_seed=self.config.seed + self.index,
            )
        except OSError:
            with self.lock:
                self.report.protocol_failures.append(
                    f"client {self.index} could not connect"
                )
            return
        try:
            while time.monotonic() < self.t_end:
                roll = self.rng.random()
                if roll < 0.62:
                    self._count("solve")
                    self._check_solve(client)
                elif roll < 0.72:
                    self._count("ping")
                    client.ping()
                elif roll < 0.80:
                    self._count("stats")
                    client.stats()
                elif roll < 0.88:
                    self._count("malformed")
                    self._abuse("malformed")
                elif roll < 0.94:
                    self._count("oversized")
                    self._abuse("oversized")
                else:
                    self._count("disconnect")
                    self._abuse("disconnect")
        except Exception as exc:  # a crashed client thread is a harness
            # failure worth reporting, not a silent exit.
            with self.lock:
                self.report.protocol_failures.append(
                    f"client {self.index} crashed: "
                    f"{type(exc).__name__}: {exc}"
                )
        finally:
            try:
                client.close()
            except OSError:
                pass


def _killer_loop(server, t_end, seed) -> None:
    """SIGKILL a random pool worker a few times over the run."""
    rng = random.Random(seed ^ 0xDEAD)
    while time.monotonic() < t_end:
        time.sleep(1.2)
        if time.monotonic() >= t_end:
            return
        pool = server.pool
        if pool is None:
            return
        procs = pool.worker_processes()
        if procs:
            rng.choice(procs).kill()


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run one chaos soak; see the module docstring for the contract."""
    from repro.lp.simplex import solve_simplex
    from repro.lp.treesolve import solve_tree
    from repro.resilience.faults import ExceptionFault, FaultyBackend
    from repro.server.client import ServerClient
    from repro.server.dispatch import ServerThread

    config = config or ChaosConfig()
    report = ChaosReport(config=config)
    topo, family, expected = _chaos_instances(config)

    sanitizer = None
    if config.sanitize:
        from repro.resilience.sanitize import LockSanitizer

        sanitizer = LockSanitizer()

    overrides = None
    if config.fault_count > 0:
        overrides = {
            name: FaultyBackend(
                solver,
                [ExceptionFault(f"chaos: injected {name} failure")]
                * config.fault_count,
                name=name,
            )
            for name, solver in (
                ("simplex", solve_simplex), ("tree", solve_tree)
            )
        }

    t0 = time.monotonic()
    # The instrument window wraps construction only: ServerThread's
    # constructor blocks until the server (and, under jobs>1, its forked
    # pool) finished starting, so every lock in the server stack — and
    # the harness's own report lock — is born sanitized and stays
    # instrumented for the whole soak.
    from contextlib import nullcontext

    with sanitizer.instrument() if sanitizer else nullcontext():
        lock = threading.Lock()
        handle = ServerThread(
            jobs=config.jobs,
            cache_size=config.cache_size,
            max_inflight=config.max_inflight,
            queue_limit=config.queue_limit,
            solve_timeout=config.solve_timeout,
            max_line_bytes=config.max_line_bytes,
            solver_overrides=overrides,
            stall_threshold=(
                config.stall_threshold if config.sanitize else None
            ),
        )
    try:
        t_end = time.monotonic() + config.duration
        clients = [
            _ClientWorker(i, config, handle.port, topo, family, expected,
                          report, lock, t_end)
            for i in range(config.clients)
        ]
        for c in clients:
            c.start()
        killer = None
        if config.kill_workers and config.jobs > 1:
            killer = threading.Thread(
                target=_killer_loop,
                args=(handle.server, t_end, config.seed),
                name="chaos-killer",
                daemon=True,
            )
            killer.start()
        for c in clients:
            c.join(timeout=config.duration + 120.0)
            if c.is_alive():
                report.hangs.append(f"client {c.index} did not finish")
        if killer is not None:
            killer.join(timeout=30.0)

        # Post-storm verification: the server must still answer every
        # known point correctly (this also drains any breaker damage
        # through fallback paths).  busy_retries=0 + a manual retry loop
        # keeps the shed/busy ledger exact: every server-side shed is a
        # client-observed ServerBusyError, counted once.
        try:
            from repro.server.client import ServerBusyError

            with ServerClient(
                port=handle.port, timeout=120.0, busy_retries=0,
                jitter_seed=config.seed,
            ) as c:
                for i, b in enumerate(family):
                    for _attempt in range(20):
                        try:
                            reply = c.solve(topo, b, resilient=True)
                        except ServerBusyError as exc:
                            report.busy_observed += 1
                            time.sleep(max(0.05, exc.retry_after))
                            continue
                        break
                    else:
                        report.hangs.append(
                            f"post-storm point {i}: still shed after 20 "
                            f"retries"
                        )
                        continue
                    got = reply["result"]["canonical_cost"]
                    if abs(got - expected[i]) > 1e-7 * max(
                        1.0, abs(expected[i])
                    ):
                        report.wrong_answers.append(
                            f"post-storm point {i}: {got!r} != "
                            f"{expected[i]!r}"
                        )
                report.server_stats = c.stats()
        except Exception as exc:  # a dead server after the storm is
            # exactly what this harness exists to catch.
            report.hangs.append(
                f"post-storm verification failed: "
                f"{type(exc).__name__}: {exc}"
            )
    finally:
        try:
            handle.stop(timeout=60.0)
        except RuntimeError as exc:
            report.hangs.append(str(exc))

    if sanitizer is not None:
        report.sanitizer_stats = sanitizer.stats()
        report.lock_order_violations = [
            v.render() for v in sanitizer.violations
        ]

    # Counter consistency (invariants, not exact traffic counts).
    st = report.server_stats
    if st:
        if st["shed"] != report.busy_observed:
            report.inconsistencies.append(
                f"server shed {st['shed']} != busy replies observed "
                f"{report.busy_observed}"
            )
        if st["solves"] > st["requests"]:
            report.inconsistencies.append(
                f"solves {st['solves']} > requests {st['requests']}"
            )
        cache = st["cache"]
        if cache["size"] > cache["capacity"]:
            report.inconsistencies.append(
                f"cache size {cache['size']} > capacity "
                f"{cache['capacity']}"
            )
        for name, rec in (st.get("breakers") or {}).items():
            if rec["state"] not in ("closed", "open", "half-open"):
                report.inconsistencies.append(
                    f"breaker {name} in unknown state {rec['state']!r}"
                )
    report.elapsed = time.monotonic() - t0
    return report
