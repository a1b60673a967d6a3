"""LUBT-as-a-service: the resident solve server.

One :class:`SolveServer` process answers a stream of JSON solve/sweep
requests (see :mod:`repro.server.protocol`) against shared state that
makes repeated and related queries cheap:

* a **result cache** (:class:`~repro.server.cache.LruCache`) keyed by
  :func:`~repro.server.keys.instance_key` — a repeated query is answered
  bit-identically from memory, no LP runs;
* a **warm store** (:class:`~repro.server.warm.WarmStore`) keyed by
  topology hash — any client's sweep re-seeds its lazy loops from the
  active Steiner rows previous clients discovered on the same structure,
  turning PR 5's per-sweep ``WarmStart`` 3x into a cross-request win;
* a **resident worker pool** (:class:`repro.perf.WorkerPool`,
  ``jobs > 1``) — workers are forked once at startup and reused across
  requests, so per-request process cost disappears while the hard
  kill-on-timeout and crash-isolation guarantees stay.

Solves run off the event loop (executor thread, optionally a pooled
worker process), so the loop stays responsive: a 10-second LP never
blocks another client's cache hit.

Overload safety (see docs/SERVER.md "Overload, deadlines, and
recovery"): solves pass **admission control** — at most ``max_inflight``
run concurrently, at most ``queue_limit`` more wait, and anything beyond
that is shed immediately with a typed ``busy`` reply carrying a
retry-after hint, so saturation degrades into fast, honest refusals
instead of unbounded queueing.  Client ``deadline`` budgets are enforced
in the queue and propagated to the pool's hard-kill timeout.  A shared
:class:`~repro.resilience.BreakerRegistry` gives every request circuit
breakers over the LP backends; their state is visible in ``stats``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Mapping

from repro.data.instance_json import instance_from_dict
from repro.ebf.bounds import DelayBounds
from repro.ebf.sweep import WarmStart, canonical_cost
from repro.resilience.breaker import BreakerRegistry, default_registry
from repro.resilience.report import SolveReport
from repro.resilience.sanitize import StallMonitor
from repro.server.cache import LruCache
from repro.server.keys import instance_key
from repro.server.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    busy_reply,
    decode_line,
    encode_line,
    error_reply,
)
from repro.server.warm import WarmStore
from repro.topology.serialize import topology_from_dict, topology_hash


class ServerOverloadedError(RuntimeError):
    """Admission control refused the request (shed with ``busy``)."""

    def __init__(self, retry_after: float):
        self.retry_after = retry_after
        super().__init__(
            f"server at admission capacity — retry in ~{retry_after:g}s"
        )


class DeadlineExpiredError(RuntimeError):
    """The request's client-supplied deadline passed before it could run."""

#: solve_lubt keywords a request may set.  keep_lp is deliberately out
#: (payloads must stay picklable and bounded); weights/zero_edges wait
#: for a use case.
ALLOWED_OPTIONS = frozenset(
    {
        "mode",
        "backend",
        "batch",
        "max_rounds",
        "check_bounds",
        "validate",
        "resilient",
        "lp_timeout",
        "on_infeasible",
        "race",
    }
)


def _check_options(options: Mapping[str, Any]) -> dict[str, Any]:
    bad = set(options) - ALLOWED_OPTIONS
    if bad:
        raise ProtocolError(
            f"unknown solve option(s) {sorted(bad)}; "
            f"allowed: {sorted(ALLOWED_OPTIONS)}"
        )
    return dict(options)


def _deadline_at(req: Mapping[str, Any]) -> float | None:
    """Convert a request's ``deadline`` budget (seconds) to a monotonic
    instant, validating it is a positive finite number."""
    deadline = req.get("deadline")
    if deadline is None:
        return None
    try:
        seconds = float(deadline)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"deadline must be a number of seconds, got {deadline!r}"
        ) from None
    if not (seconds > 0.0) or seconds != seconds or seconds == float("inf"):
        raise ProtocolError(
            f"deadline must be a positive finite number, got {deadline!r}"
        )
    return time.monotonic() + seconds


def _solve_job(
    topo, bounds, options, carried_pairs, topo_key,
    breakers=None, solvers=None,
):
    """One request's solve — runs inline, in an executor thread, or in a
    resident pool worker (module-level, so it pickles by reference).

    Returns ``(payload, pairs)``: the JSON-ready result payload and the
    warm rows (carried + newly discovered) to deposit back into the
    cross-request store.

    ``breakers`` is either a live :class:`BreakerRegistry` (inline mode)
    or the string ``"process"`` — pool workers resolve the latter to
    their own process-wide :func:`~repro.resilience.default_registry`,
    because a registry full of locks cannot travel over the task pipe
    but a *resident* worker still wants cross-request breaker memory.
    The registry's post-solve snapshot rides back on the payload under
    ``"breakers"`` (popped by the server before caching).
    """
    from repro.ebf.solver import direct_tree_path, solve_lubt

    if breakers == "process":
        breakers = default_registry()
    # Warm rows only feed the lazy loop, and a store would keep "auto"
    # on it: a solve bound for the direct tree path gets none.
    direct = direct_tree_path(
        topo.num_sinks,
        backend=options.get("backend", "auto"),
        mode=options.get("mode", "lazy"),
        resilient=bool(options.get("resilient"))
        or options.get("race") == "auto",
    )
    ws = None if direct else WarmStart.seeded(topo_key, carried_pairs)
    sol = solve_lubt(
        topo, bounds, warm=ws, breakers=breakers, solvers=solvers,
        **options,
    )
    stats = sol.stats
    payload = {
        "cost": float(sol.cost),
        "canonical_cost": canonical_cost(float(sol.cost)),
        "edge_lengths": [float(v) for v in sol.edge_lengths],
        "delays": [float(v) for v in sol.delays],
        "skew": float(sol.skew),
        "stats": {
            "backend": stats.backend,
            "mode": stats.mode,
            "rounds": stats.rounds,
            "steiner_rows": stats.steiner_rows,
            "total_pairs": stats.total_pairs,
            "lp_iterations": stats.lp_iterations,
            "wall_seconds": stats.wall_seconds,
            "lp_seconds": stats.lp_seconds,
            "lp_fallbacks": stats.lp_fallbacks,
            "warm_rows": stats.warm_rows,
        },
        "attempts": [
            {
                "backend": a.backend,
                "outcome": a.outcome,
                "wall_seconds": a.wall_seconds,
            }
            for rep in sol.solve_reports
            for a in rep.attempts
        ],
        "relaxed": sol.diagnosis is not None,
    }
    if breakers is not None:
        payload["breakers"] = breakers.snapshot()
    return payload, [] if ws is None else list(ws.pairs)


class SolveServer:
    """The resident asyncio solve server (see module docstring).

    ``jobs=1`` solves in executor threads of the server process —
    zero-copy, ideal for tests and small deployments.  ``jobs > 1``
    forks a resident :class:`~repro.perf.WorkerPool` and ships each
    solve to a worker, so N requests solve truly concurrently and a
    pathological LP can be killed without hurting the server.

    ``solve_timeout`` is a hard per-request wall-clock limit (pool mode
    kills the worker; inline mode cannot interrupt a running LP and
    applies it only in pool mode).

    Admission control: at most ``max_inflight`` solves run concurrently
    (default: ``jobs``) and at most ``queue_limit`` more may wait for a
    slot; beyond that, requests are shed instantly with a typed ``busy``
    reply whose ``retry_after`` hint is an EWMA of recent solve times
    scaled by queue pressure.  Cache hits bypass admission entirely —
    an overloaded server still answers repeats from memory.

    ``solver_overrides`` maps backend names to replacement callables,
    forwarded to every solve (must be picklable in pool mode) — the
    fault-injection seam the chaos harness uses to force server-side
    backend failures.  ``max_line_bytes`` bounds one request line
    (default 16 MiB); an oversized line gets a typed ``oversized``
    error before the connection closes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int = 1,
        cache_size: int = 256,
        solve_timeout: float | None = None,
        start_method: str | None = None,
        max_inflight: int | None = None,
        queue_limit: int = 32,
        max_line_bytes: int = MAX_LINE_BYTES,
        solver_overrides: Mapping[str, Any] | None = None,
        stall_threshold: float | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if queue_limit < 0:
            raise ValueError(f"queue_limit must be >= 0, got {queue_limit}")
        if max_line_bytes < 1024:
            raise ValueError(
                f"max_line_bytes must be >= 1024, got {max_line_bytes}"
            )
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.jobs = jobs
        self.solve_timeout = solve_timeout
        self.max_inflight = max_inflight if max_inflight is not None else jobs
        self.queue_limit = queue_limit
        self.max_line_bytes = max_line_bytes
        self.solver_overrides = (
            dict(solver_overrides) if solver_overrides else None
        )
        self.cache = LruCache(cache_size)
        self.warm = WarmStore()
        self.pool = None
        #: Shared circuit breakers for inline solves; pool workers keep
        #: their own process-wide registries (see ``_solve_job``).
        self.breakers = BreakerRegistry()
        self._start_method = start_method
        self.requests = 0
        self.solves = 0
        self.errors = 0
        #: Requests refused by admission control (typed ``busy`` replies).
        self.shed = 0
        #: Requests that died in the queue on their client deadline.
        self.deadline_expired = 0
        #: Solves (admitted or queued) currently in the system.
        self._load = 0
        self._slots: asyncio.Semaphore | None = None
        self._solve_ewma = 0.0
        #: Last breaker snapshot reported by any solve (pool workers
        #: merge theirs in via the result payload).
        self._breaker_view: dict[str, dict] = {}
        self.started_at: float | None = None
        #: Event-loop stall detector (sanitizer harness); armed when
        #: ``stall_threshold`` is given, e.g. by ``lubt chaos --sanitize``.
        self.stall_threshold = stall_threshold
        self._stall: StallMonitor | None = None
        self.last_stall_stats: dict[str, Any] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop = asyncio.Event()
        #: Provenance reports of the most recent requests (telemetry).
        self.recent_reports: list[SolveReport] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (async; idempotent)."""
        if self._server is not None:
            return
        if self.jobs > 1 and self.pool is None:
            from repro.perf.pool import WorkerPool

            # Forking the resident workers blocks on per-worker pipe
            # handshakes; keep it off the event loop so a concurrently
            # started server never stalls accepts (CC001).
            jobs, start_method = self.jobs, self._start_method
            self.pool = await asyncio.get_running_loop().run_in_executor(
                None, lambda: WorkerPool(jobs, start_method=start_method)
            )
        self._slots = asyncio.Semaphore(self.max_inflight)
        if self.stall_threshold is not None and self._stall is None:
            self._stall = StallMonitor(threshold=self.stall_threshold)
            self._stall.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.max_line_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.monotonic()

    async def serve_until_shutdown(self) -> None:
        """Start (if needed) and serve until a ``shutdown`` request or
        :meth:`request_stop`."""
        await self.start()
        try:
            await self._stop.wait()
        finally:
            await self.aclose()

    def request_stop(self) -> None:
        self._stop.set()

    async def aclose(self) -> None:
        if self._stall is not None:
            stall, self._stall = self._stall, None
            # Keep the final counters visible in post-shutdown stats().
            self.last_stall_stats = stall.stats()
            await stall.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.pool is not None:
            # pool.close() joins (and after a grace period SIGKILLs)
            # every worker process — up to seconds of wall time.  Swap
            # the pool out first so no request races a closing pool,
            # then join off the event loop (CC001): heartbeats, stats
            # requests and connection teardowns keep flowing meanwhile.
            pool, self.pool = self.pool, None
            await asyncio.get_running_loop().run_in_executor(None, pool.close)

    def run(self) -> None:
        """Blocking entry point (the ``lubt serve`` subcommand)."""
        asyncio.run(self.serve_until_shutdown())

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:  # noqa: CC006 — teardown boundary
            # Event-loop teardown cancelled this connection (typically a
            # client parked in readline when the server shut down).  The
            # transport dies with the loop; completing normally keeps
            # asyncio's stream done-callback from logging the
            # cancellation as a crash.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            except asyncio.CancelledError:  # noqa: CC006 — teardown boundary
                pass  # cancelled mid-close; the transport dies regardless

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Oversized request line: tell the client *why* the
                # connection is about to close (stable code, so a
                # client can distinguish this from a crash) instead
                # of silently hanging up.
                self.errors += 1
                try:
                    await self._write(writer, error_reply(
                        None,
                        f"request line exceeds the server's "
                        f"{self.max_line_bytes}-byte limit",
                        code="oversized",
                    ))
                except (ConnectionError, OSError):
                    pass
                return
            except ConnectionError:
                return  # client vanished
            if not line:
                return
            if not line.strip():
                continue
            self.requests += 1
            try:
                await self._dispatch(line, writer)
            except (ConnectionError, OSError):
                return  # client vanished mid-reply; nothing to tell it
            if self._stop.is_set():
                return

    async def _dispatch(self, line: bytes, writer) -> None:
        req_id: Any = None
        try:
            req = decode_line(line)
            req_id = req.get("id")
            op = req["op"]
            if op == "ping":
                await self._write(
                    writer,
                    {
                        "id": req_id,
                        "ok": True,
                        "event": "pong",
                        "protocol": PROTOCOL_VERSION,
                    },
                )
            elif op == "stats":
                await self._write(writer, self._stats_reply(req_id))
            elif op == "shutdown":
                await self._write(
                    writer, {"id": req_id, "ok": True, "event": "bye"}
                )
                self.request_stop()
            elif op == "solve":
                await self._op_solve(req, writer)
            else:  # op == "sweep" (decode_line rejected everything else)
                await self._op_sweep(req, writer)
        except ServerOverloadedError as exc:
            self.shed += 1
            await self._write(writer, busy_reply(req_id, exc.retry_after))
        except DeadlineExpiredError as exc:
            self.deadline_expired += 1
            self.errors += 1
            await self._write(
                writer, error_reply(req_id, exc, code="deadline-expired")
            )
        except ProtocolError as exc:
            self.errors += 1
            await self._write(
                writer, error_reply(req_id, exc, code="bad-request")
            )
        except Exception as exc:  # noqa: BLE001 — protocol boundary: any
            # bad request or failed solve becomes an error reply; the
            # connection (and server) live on.
            self.errors += 1
            await self._write(
                writer, error_reply(req_id, exc, code="solve-error")
            )

    async def _write(self, writer, obj: dict[str, Any]) -> None:
        writer.write(encode_line(obj))
        await writer.drain()

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    async def _op_solve(self, req: dict[str, Any], writer) -> None:
        if "instance" not in req:
            raise ProtocolError("solve request needs an 'instance' document")
        topo, bounds, options = instance_from_dict(req["instance"])
        options.update(req.get("options") or {})
        options = _check_options(options)
        deadline_at = _deadline_at(req)
        reply = await self._answer(topo, bounds, options, deadline_at)
        reply.update({"id": req.get("id"), "ok": True, "event": "result"})
        await self._write(writer, reply)

    async def _op_sweep(self, req: dict[str, Any], writer) -> None:
        if "tree" not in req or "bounds_list" not in req:
            raise ProtocolError(
                "sweep request needs 'tree' and 'bounds_list'"
            )
        topo, _, _ = topology_from_dict(req["tree"])
        options = _check_options(req.get("options") or {})
        # Unchecked on purpose: a sweep may probe broken windows, and a
        # bad point must fail *as that point* (per-point error event),
        # not poison the whole request.  solve_lubt's check_bounds still
        # vets each point unless the client turned it off.
        bounds_list = [
            DelayBounds.unchecked(
                [float(v) for v in b["lower"]],
                [float(v) for v in b["upper"]],
            )
            for b in req["bounds_list"]
        ]
        req_id = req.get("id")
        deadline_at = _deadline_at(req)
        cache_hits = warm_total = errors = 0
        for index, bounds in enumerate(bounds_list):
            try:
                reply = await self._answer(topo, bounds, options, deadline_at)
            except ServerOverloadedError as exc:
                # A sweep sheds per point: earlier answers stand, this
                # point gets the typed busy event, the sweep goes on.
                self.shed += 1
                errors += 1
                point = busy_reply(req_id, exc.retry_after)
                point["index"] = index
                await self._write(writer, point)
                continue
            except Exception as exc:  # noqa: BLE001 — per-point boundary:
                # one infeasible point must not kill the rest of a sweep.
                errors += 1
                self.errors += 1
                code = (
                    "deadline-expired"
                    if isinstance(exc, DeadlineExpiredError)
                    else "solve-error"
                )
                if isinstance(exc, DeadlineExpiredError):
                    self.deadline_expired += 1
                point = error_reply(req_id, exc, code=code)
                point["index"] = index
                await self._write(writer, point)
                continue
            cache_hits += 1 if reply["cache_hit"] else 0
            warm_total += reply["warm_rows"]
            reply.update(
                {"id": req_id, "ok": True, "event": "point", "index": index}
            )
            await self._write(writer, reply)
        await self._write(
            writer,
            {
                "id": req_id,
                "ok": True,
                "event": "done",
                "points": len(bounds_list),
                "cache_hits": cache_hits,
                "warm_rows_total": warm_total,
                "errors": errors,
            },
        )

    def _cache_reply(self, key: str, cached: dict) -> dict[str, Any]:
        self._record_report(
            SolveReport(instance_key=key, cache_hit=True,
                        warm_rows=cached["stats"]["warm_rows"])
        )
        return {
            "instance_key": key,
            "cache_hit": True,
            "warm_rows": cached["stats"]["warm_rows"],
            "result": cached,
        }

    def _retry_after_hint(self) -> float:
        """How long a shed client should wait: the recent-solve EWMA
        scaled by queue pressure (more waiting work, longer hint)."""
        base = self._solve_ewma if self._solve_ewma > 0.0 else 0.25
        excess = max(0, self._load - self.max_inflight)
        return round(base * (1.0 + excess / max(1, self.max_inflight)), 3)

    async def _answer(
        self, topo, bounds, options, deadline_at: float | None = None
    ) -> dict[str, Any]:
        """Solve one (topology, bounds, options) query through the cache
        and warm store; returns the reply body (no envelope fields).

        Fresh solves pass admission control: shed with
        :class:`ServerOverloadedError` when the queue is full, wait for
        one of ``max_inflight`` slots otherwise, and honor
        ``deadline_at`` (monotonic) both in the queue and as a cap on
        the pool's hard-kill timeout.  Cache hits skip all of it.
        """
        key = instance_key(topo, bounds, options)
        cached = self.cache.get(key)
        if cached is not None:
            return self._cache_reply(key, cached)
        if self._load >= self.max_inflight + self.queue_limit:
            raise ServerOverloadedError(self._retry_after_hint())
        assert self._slots is not None, "server not started"
        self._load += 1
        try:
            async with self._slots:
                remaining = None
                if deadline_at is not None:
                    remaining = deadline_at - time.monotonic()
                    if remaining <= 0.0:
                        raise DeadlineExpiredError(
                            "deadline expired while waiting for a solve slot"
                        )
                # The wait may have outlived an identical in-flight
                # request; serving its cached answer keeps repeats
                # bit-identical and skips a redundant solve.
                cached = self.cache.get(key)
                if cached is not None:
                    return self._cache_reply(key, cached)
                tkey = topology_hash(topo)
                carried = self.warm.pairs(tkey)
                loop = asyncio.get_running_loop()
                t0 = time.monotonic()
                payload, pairs = await loop.run_in_executor(
                    None, self._solve_blocking,
                    topo, bounds, options, carried, tkey, remaining,
                )
                self._solve_ewma = (
                    0.7 * self._solve_ewma + 0.3 * (time.monotonic() - t0)
                    if self._solve_ewma > 0.0
                    else time.monotonic() - t0
                )
        finally:
            self._load -= 1
        self.solves += 1
        self._merge_breakers(payload.pop("breakers", None))
        self.warm.absorb(tkey, pairs)
        self.cache.put(key, payload)
        self._record_report(
            SolveReport(instance_key=key, cache_hit=False,
                        warm_rows=payload["stats"]["warm_rows"])
        )
        return {
            "instance_key": key,
            "cache_hit": False,
            "warm_rows": payload["stats"]["warm_rows"],
            "result": payload,
        }

    def _merge_breakers(self, snapshot: dict | None) -> None:
        if snapshot:
            self._breaker_view.update(snapshot)

    def _solve_blocking(
        self, topo, bounds, options, carried, tkey, remaining=None
    ):
        if self.pool is None:
            return _solve_job(
                topo, bounds, options, carried, tkey,
                breakers=self.breakers, solvers=self.solver_overrides,
            )
        timeout = self.solve_timeout
        if remaining is not None:
            timeout = remaining if timeout is None else min(timeout, remaining)
        outcome = self.pool.submit(
            _solve_job,
            (topo, bounds, options, carried, tkey,
             "process", self.solver_overrides),
            timeout=timeout,
        )
        if outcome.ok:
            return outcome.value
        kind = (
            "timed out" if outcome.timed_out
            else "crashed" if outcome.crashed
            else "failed"
        )
        raise RuntimeError(f"pooled solve {kind}: {outcome.error}")

    def _record_report(self, report: SolveReport) -> None:
        self.recent_reports.append(report)
        del self.recent_reports[:-64]

    def _stats_reply(self, req_id: Any) -> dict[str, Any]:
        uptime = (
            time.monotonic() - self.started_at
            if self.started_at is not None
            else 0.0
        )
        breakers = dict(self._breaker_view)
        breakers.update(self.breakers.snapshot())
        return {
            "id": req_id,
            "ok": True,
            "event": "stats",
            "protocol": PROTOCOL_VERSION,
            "uptime_seconds": uptime,
            "requests": self.requests,
            "solves": self.solves,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "jobs": self.jobs,
            "admission": {
                "max_inflight": self.max_inflight,
                "queue_limit": self.queue_limit,
                "load": self._load,
                "retry_after_hint": self._retry_after_hint(),
            },
            "breakers": breakers,
            "cache": self.cache.stats(),
            "warm": self.warm.stats(),
            "pool": (
                None
                if self.pool is None
                else {
                    "tasks_run": self.pool.tasks_run,
                    "workers_replaced": self.pool.workers_replaced,
                }
            ),
            "stall": (
                self._stall.stats()
                if self._stall is not None
                else self.last_stall_stats
            ),
        }


class ServerThread:
    """Run a :class:`SolveServer` on a daemon thread (tests, benches,
    and embedding a server inside another process).

    The constructor blocks until the socket is bound, so ``.port`` is
    immediately connectable::

        with ServerThread(jobs=2) as handle:
            client = ServerClient(port=handle.port)
    """

    def __init__(self, timeout: float = 30.0, **server_kwargs: Any):
        self.server = SolveServer(**server_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._main, name="lubt-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")

    @property
    def port(self) -> int:
        return self.server.port

    def _main(self) -> None:
        async def amain():
            try:
                await self.server.start()
                self._loop = asyncio.get_running_loop()
            except BaseException as exc:  # noqa: BLE001 — startup report
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.serve_until_shutdown()

        asyncio.run(amain())

    def stop(self, timeout: float = 30.0) -> None:
        """Signal shutdown and join the server thread.

        Raises :class:`RuntimeError` if the thread is still alive after
        ``timeout`` seconds — a hung server must be a loud diagnostic
        (naming the port so the stuck process is findable), never a
        silent return that leaks a daemon thread holding the socket.
        """
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"server thread did not exit within {timeout:g}s "
                f"(port {self.server.port}, "
                f"{self.server._load} solve(s) in flight) — "
                f"likely a wedged solve or executor; the daemon thread "
                f"has been abandoned"
            )

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
