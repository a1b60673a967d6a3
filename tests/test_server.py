"""LUBT-as-a-service: instance keys, result cache, warm store, protocol,
and the resident solve server end to end.

The service contract under test:

* a repeated query is answered from the cache **bit-identically** (same
  float bits, not just close) with ``cache_hit`` marked;
* a client sweeping a topology another client already solved re-seeds
  its lazy loops from the cross-request warm store (``warm_rows > 0``);
* canonical instance keys collapse sub-tolerance float wiggle but keep
  genuinely different instances (bounds, options, topology) apart.
"""

import json
import math
import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.data import (
    instance_from_dict,
    instance_to_dict,
    load_benchmark,
    load_instance,
    save_instance,
)
from repro.ebf import DelayBounds, WarmStart, canonical_cost, solve_lubt
from repro.geometry import Point, manhattan_radius_from
from repro.server import (
    LruCache,
    ProtocolError,
    ServerClient,
    ServerError,
    ServerThread,
    SolveServer,
    WarmStore,
    decode_line,
    encode_line,
    error_reply,
    instance_key,
    jsonable,
    quantize_bounds,
)
from repro.server.client import BACKOFF_CAP_SECONDS, BACKOFF_SECONDS
from repro.topology import nearest_neighbor_topology, topology_hash


def instance(size=10, lo=0.8, hi=1.3):
    bench = load_benchmark("prim1").scaled(size)
    sinks = list(bench.sinks)
    topo = nearest_neighbor_topology(sinks, bench.source)
    radius = manhattan_radius_from(bench.source, sinks)
    return topo, DelayBounds.uniform(size, lo * radius, hi * radius), radius


class TestInstanceJson:
    def test_round_trip(self):
        topo, bounds, _ = instance()
        doc = instance_to_dict(topo, bounds, {"mode": "lazy"})
        topo2, bounds2, options = instance_from_dict(doc)
        assert topology_hash(topo2) == topology_hash(topo)
        assert list(bounds2.lower) == list(bounds.lower)
        assert list(bounds2.upper) == list(bounds.upper)
        assert options == {"mode": "lazy"}

    def test_round_trip_is_strict_json(self, tmp_path):
        topo, _, radius = instance(6)
        bounds = DelayBounds(
            [0.0] * 6, [math.inf, 2 * radius, 2 * radius, math.inf,
                        2 * radius, 2 * radius]
        )
        path = tmp_path / "inst.json"
        save_instance(path, topo, bounds)
        # the file must parse as *strict* JSON (no Infinity literals)
        raw = json.loads(
            path.read_text(), parse_constant=lambda s: pytest.fail(
                f"non-strict JSON literal {s} in instance file"
            )
        )
        assert raw["upper"][0] == "inf"
        topo2, bounds2, _ = load_instance(path)
        assert math.isinf(bounds2.upper[0])
        assert topology_hash(topo2) == topology_hash(topo)

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="lubt-instance-v1"):
            instance_from_dict({"format": "something-else"})

    def test_rejects_bound_length_mismatch(self):
        topo, bounds, _ = instance(6)
        doc = instance_to_dict(topo, bounds)
        doc["lower"] = doc["lower"][:-1]
        with pytest.raises(ValueError):
            instance_from_dict(doc)


class TestInstanceKey:
    def test_stable_across_processes_inputs(self):
        topo, bounds, _ = instance()
        assert instance_key(topo, bounds) == instance_key(topo, bounds)

    def test_sub_tolerance_wiggle_shares_a_key(self):
        topo, bounds, radius = instance()
        # the same window computed through a different float path
        wiggled = DelayBounds(
            [v * (1 + 1e-14) for v in bounds.lower],
            [v * (1 + 1e-14) for v in bounds.upper],
        )
        assert instance_key(topo, wiggled) == instance_key(topo, bounds)

    def test_resolvable_differences_split(self):
        topo, bounds, radius = instance()
        other = DelayBounds(
            [v * (1 + 1e-5) for v in bounds.lower], list(bounds.upper)
        )
        assert instance_key(topo, other) != instance_key(topo, bounds)

    def test_options_split(self):
        topo, bounds, _ = instance()
        assert instance_key(topo, bounds, {"mode": "full"}) != instance_key(
            topo, bounds, {"mode": "lazy"}
        )
        assert instance_key(topo, bounds, None) == instance_key(
            topo, bounds, {}
        )

    def test_topology_split(self):
        topo, bounds, _ = instance()
        pts = [Point(float(x), float(y))
               for x, y in [(0, 0), (5, 9), (9, 2), (3, 7), (8, 8),
                            (1, 4), (6, 1), (2, 8), (7, 5), (4, 3)]]
        other = nearest_neighbor_topology(pts)
        assert instance_key(other, bounds) != instance_key(topo, bounds)

    def test_quantize_bounds_keeps_non_finite(self):
        b = DelayBounds.unchecked([0.0, 1.0], [math.inf, 2.0])
        lo, hi = quantize_bounds(b)
        assert lo == (0.0, 1.0)
        assert math.isinf(hi[0])


class TestTopologyHash:
    """The digest lives on its topology: hashing pins nothing, and a
    pickled copy (a pool worker's task) carries it along."""

    def test_solved_topology_is_not_pinned(self):
        import gc
        import weakref

        from repro.server.dispatch import _solve_job

        topo, bounds, _ = instance(10)
        alive = weakref.ref(topo)
        payload, _, _ = _solve_job(
            topo, bounds, {}, ((), None), topology_hash(topo)
        )
        assert payload["cost"] > 0
        del topo
        gc.collect()
        assert alive() is None

    def test_unpickled_copy_is_not_rehashed(self, monkeypatch):
        import pickle

        import repro.topology.serialize as serialize

        topo, _, _ = instance(10)
        digest = topology_hash(topo)
        copy = pickle.loads(pickle.dumps(topo))

        def rehash(*args, **kwargs):
            raise AssertionError("topology_to_dict called on a hashed copy")

        monkeypatch.setattr(serialize, "topology_to_dict", rehash)
        assert topology_hash(copy) == digest


class TestLruCache:
    def test_hit_returns_stored_object(self):
        c = LruCache(4)
        payload = {"cost": 1.25}
        c.put("k", payload)
        assert c.get("k") is payload
        assert c.stats()["hits"] == 1

    def test_eviction_is_lru(self):
        c = LruCache(2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh a
        c.put("c", 3)  # evicts b
        assert c.get("b") is None
        assert c.get("a") == 1 and c.get("c") == 3
        assert c.stats()["evictions"] == 1

    def test_zero_capacity_disables(self):
        c = LruCache(0)
        c.put("a", 1)
        assert c.get("a") is None
        assert len(c) == 0

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            LruCache(-1)


class TestWarmStore:
    def test_absorb_dedups_by_orientation(self):
        s = WarmStore()
        assert s.absorb("h", [(1, 2, 0), (2, 1, 0), (1, 3, 0)]) == 2
        assert s.absorb("h", [(3, 1, 0)]) == 0
        assert s.carried("h") == ([(1, 2, 0), (1, 3, 0)], None)

    def test_carried_rows_seed_a_warmstart(self):
        s = WarmStore()
        s.absorb("h", [(1, 2, 0)])
        ws = WarmStart.seeded("h", *s.carried("h"))
        assert ws.key == "h"
        assert ws.pairs == [(1, 2, 0)]

    def test_capacity_evicts_least_recently_used(self):
        s = WarmStore()  # room for 512 topologies
        basis = (np.zeros(3, dtype=np.int8), np.ones(2, dtype=np.int8))
        for t in range(512):
            s.absorb(f"t{t}", [(1, 2, 0)], basis)
        s.carried("t0")  # a read makes t0 the most recently used
        s.absorb("t512", [(1, 2, 0)], basis)  # the 513th evicts t1
        assert s.stats()["topologies"] == 512
        assert s.stats()["bases"] == 512
        assert s.carried("t1") == ([], None)
        for key in ("t0", "t512"):
            rows, kept = s.carried(key)
            assert rows == [(1, 2, 0)] and kept is basis

    def test_carried_basis_seeds_a_warmstart(self):
        s = WarmStore()
        basis = (np.zeros(3, dtype=np.int8), np.ones(2, dtype=np.int8))
        s.absorb("h", [], basis)
        s.absorb("h", [(1, 2, 0)])  # a row deposit keeps the basis
        ws = WarmStart.seeded("h", *s.carried("h"))
        assert ws.pairs == [(1, 2, 0)] and ws.basis is basis


class TestProtocol:
    def test_round_trip(self):
        req = decode_line(encode_line({"op": "ping", "id": 7}))
        assert req == {"op": "ping", "id": 7}

    def test_non_finite_floats_travel_as_strings(self):
        line = encode_line({"op": "ping", "v": [math.inf, -math.inf,
                                                math.nan, 1.5]})
        assert b"Infinity" not in line and b"NaN" not in line
        assert json.loads(line)["v"] == ["inf", "-inf", "nan", 1.5]

    def test_jsonable_handles_nesting(self):
        assert jsonable({"a": (math.inf, {"b": math.nan})}) == {
            "a": ["inf", {"b": "nan"}]
        }

    def test_rejects_garbage(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_line(b"{nope")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1,2]")
        with pytest.raises(ProtocolError, match="unknown op"):
            decode_line(b'{"op": "explode"}')

    def test_error_reply_carries_type(self):
        r = error_reply(3, ValueError("boom"))
        assert r == {"id": 3, "ok": False, "event": "error",
                     "error": "boom", "error_type": "ValueError"}


@pytest.fixture(scope="class")
def server():
    with ServerThread(jobs=1) as handle:
        yield handle


class TestSolveServer:
    def test_ping_and_stats(self, server):
        with ServerClient(port=server.port) as c:
            pong = c.ping()
            assert pong["event"] == "pong" and pong["protocol"] == 1
            st = c.stats()
            assert st["jobs"] == 1 and st["pool"] is None

    def test_repeated_query_is_cached_bit_identically(self, server):
        topo, bounds, _ = instance(8)
        with ServerClient(port=server.port) as c:
            first = c.solve(topo, bounds)
            second = c.solve(topo, bounds)
        assert not first["cache_hit"]
        assert second["cache_hit"]
        assert second["instance_key"] == first["instance_key"]
        # bit-identical, not merely close: the cache returns the stored
        # payload verbatim, no re-solve and no re-rounding
        assert second["result"]["cost"] == first["result"]["cost"]
        assert second["result"]["edge_lengths"] == first["result"]["edge_lengths"]
        assert second["result"]["delays"] == first["result"]["delays"]

    def test_cached_answer_matches_in_process_solver(self, server):
        topo, bounds, _ = instance(8)
        with ServerClient(port=server.port) as c:
            served = c.solve(topo, bounds)
        sol = solve_lubt(topo, bounds)
        assert canonical_cost(served["result"]["cost"]) == canonical_cost(
            sol.cost
        )
        # Same path as in-process: no warm store keeps "auto" off tree.
        assert served["result"]["stats"]["backend"] == sol.stats.backend
        assert sol.stats.backend == "tree" and served["warm_rows"] == 0

    def test_cross_client_warm_reuse(self, server):
        topo, _, radius = instance(9, 0.8, 1.4)
        m = topo.num_sinks
        # Warm rows come from the lazy loop only, so pin its backend.
        with ServerClient(port=server.port) as first_client:
            first_client.solve(
                topo, DelayBounds.uniform(m, 0.8 * radius, 1.4 * radius),
                backend="scipy",
            )
        # a *different* connection sweeps *different* windows on the same
        # structure: its first solve must already be warm-seeded
        with ServerClient(port=server.port) as second_client:
            points, done = second_client.sweep(
                topo,
                [
                    DelayBounds.uniform(m, lo * radius, 1.5 * radius)
                    for lo in (0.55, 0.75)
                ],
                backend="scipy",
            )
        assert done["points"] == 2 and done["errors"] == 0
        assert points[0]["warm_rows"] > 0
        assert done["warm_rows_total"] > 0

    def test_sweep_point_cache_hits(self, server):
        topo, _, radius = instance(7, 0.7, 1.3)
        m = topo.num_sinks
        blist = [
            DelayBounds.uniform(m, lo * radius, 1.3 * radius)
            for lo in (0.6, 0.8)
        ]
        with ServerClient(port=server.port) as c:
            _, first = c.sweep(topo, blist)
            points, second = c.sweep(topo, blist)
        assert first["cache_hits"] == 0
        assert second["cache_hits"] == 2
        assert all(p["cache_hit"] for p in points)

    @pytest.mark.parametrize(
        "option",
        [{"explode": True}, {"race": "auto"}, {"lp_timeout": 5.0},
         {"max_rounds": 5}],
        ids=["explode", "race", "lp_timeout", "max_rounds"],
    )
    def test_bad_option_is_refused(self, server, option):
        topo, bounds, _ = instance(6)
        with ServerClient(port=server.port) as c:
            with pytest.raises(ServerError, match="unknown solve option"):
                c.solve(topo, bounds, **option)
            # the connection survives the error
            assert c.ping()["event"] == "pong"

    @pytest.mark.filterwarnings("ignore")  # BD002 warns on purpose here
    def test_infeasible_point_does_not_kill_sweep(self, server):
        topo, _, radius = instance(6, 0.8, 1.3)
        m = topo.num_sinks
        impossible = DelayBounds.unchecked([2 * radius] * m, [radius] * m)
        fine = DelayBounds.uniform(m, 0.8 * radius, 1.3 * radius)
        with ServerClient(port=server.port) as c:
            points, done = c.sweep(
                topo, [impossible, fine], check_bounds=False
            )
        assert done["errors"] == 1
        assert [p["ok"] for p in points] == [False, True]
        assert points[0]["index"] == 0 and points[1]["index"] == 1

    def test_malformed_request_line(self, server):
        with ServerClient(port=server.port) as c:
            c._sock.sendall(b'{"op": "explode"}\n')
            reply = c._recv()
            assert reply["ok"] is False
            assert reply["error_type"] == "ProtocolError"

    def test_shutdown(self):
        with ServerThread(jobs=1) as handle:
            with ServerClient(port=handle.port) as c:
                assert c.shutdown()["event"] == "bye"
            handle._thread.join(timeout=10)
            assert not handle._thread.is_alive()


class TestSolveServerPooled:
    def test_pooled_solves_match_inline(self):
        topo, bounds, _ = instance(8)
        sol = solve_lubt(topo, bounds)
        with ServerThread(jobs=2) as handle:
            with ServerClient(port=handle.port) as c:
                served = c.solve(topo, bounds)
                st = c.stats()
        assert st["pool"]["tasks_run"] == 1
        assert canonical_cost(served["result"]["cost"]) == canonical_cost(
            sol.cost
        )

    def test_warm_rows_survive_the_process_hop(self):
        topo, _, radius = instance(9, 0.8, 1.4)
        m = topo.num_sinks
        with ServerThread(jobs=2) as handle:
            with ServerClient(port=handle.port) as c:
                # Warm rows come from the lazy loop only: pin its backend.
                c.solve(topo, DelayBounds.uniform(m, 0.8 * radius,
                                                  1.4 * radius),
                        backend="scipy")
                reply = c.solve(topo, DelayBounds.uniform(m, 0.6 * radius,
                                                          1.5 * radius),
                                backend="scipy")
        assert reply["warm_rows"] > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_warm_basis_survives_the_process_hop(self, jobs):
        """A default request's new window on a solved topology re-solves
        the tree LP from the stored basis, on any worker."""
        topo, first, radius = instance(48, 0.8, 1.2)
        window = DelayBounds.uniform(48, 0.6 * radius, 1.1 * radius)
        with ServerThread(jobs=jobs) as handle:
            with ServerClient(port=handle.port) as a:
                cold = a.solve(topo, first)
            with ServerClient(port=handle.port) as b:
                warm = b.solve(topo, window)
                stats = b.stats()
        cold_iters = cold["result"]["stats"]["lp_iterations"]
        warm_iters = warm["result"]["stats"]["lp_iterations"]
        assert warm["result"]["stats"]["backend"] == "tree"
        assert warm_iters * 5 <= cold_iters, (warm_iters, cold_iters)
        assert stats["warm"]["bases"] == 1
        assert canonical_cost(warm["result"]["cost"]) == canonical_cost(
            solve_lubt(topo, window).cost
        )


class TestServeCli:
    def test_serve_and_request_round_trip(self, capsys):
        from repro.cli import main
        from repro.server import ServerThread

        with ServerThread(jobs=1) as handle:
            rc = main(
                [
                    "request", "--port", str(handle.port),
                    "--bench", "prim1", "--sinks", "6",
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "served from cache |                no" in out
            rc = main(
                [
                    "request", "--port", str(handle.port),
                    "--bench", "prim1", "--sinks", "6",
                ]
            )
            assert rc == 0
            out = capsys.readouterr().out
            assert "served from cache |               yes" in out


def slow_simplex(delay=0.8):
    """A backend that stalls before delegating — deterministic overload."""
    from repro.lp.simplex import solve_simplex
    from repro.resilience.faults import FaultyBackend, TimeoutFault

    return FaultyBackend(
        solve_simplex, [TimeoutFault(delay)] * 64, name="simplex"
    )


class TestOverloadSafety:
    """Admission control, deadlines, and typed protocol errors."""

    def test_oversized_line_gets_typed_error_then_close(self):
        with ServerThread(jobs=1, max_line_bytes=2048) as handle:
            with ServerClient(port=handle.port) as c:
                c._sock.sendall(
                    b'{"op":"ping","pad":"' + b"x" * 4096 + b'"}\n'
                )
                reply = c._recv()
                assert reply["ok"] is False
                assert reply["code"] == "oversized"
                assert "2048" in reply["error"]
                # The connection closes after the typed reply.
                with pytest.raises(ConnectionError):
                    c.ping()
            assert handle.server.errors >= 1

    def test_overload_sheds_typed_busy_and_admitted_work_completes(self):
        topo, bounds, radius = instance(6)
        other = DelayBounds.uniform(6, 0.7 * radius, 1.4 * radius)
        expected = canonical_cost(solve_lubt(topo, bounds).cost)
        with ServerThread(
            jobs=1,
            max_inflight=1,
            queue_limit=0,
            solver_overrides={"simplex": slow_simplex(1.2)},
        ) as handle:
            results: dict = {}

            def admitted():
                with ServerClient(port=handle.port, timeout=120.0) as c:
                    results["reply"] = c.solve(
                        topo, bounds, resilient=True
                    )

            t = threading.Thread(target=admitted)
            t.start()
            time.sleep(0.3)  # the admitted solve is now stalling inline
            with ServerClient(port=handle.port, busy_retries=0) as c:
                from repro.server import ServerBusyError

                with pytest.raises(ServerBusyError) as err:
                    c.solve(topo, other, resilient=True)
                assert err.value.code == "busy"
                assert err.value.retry_after >= 0.0
            t.join(timeout=120)
            assert not t.is_alive()
            # The admitted request finished correctly despite the storm.
            got = results["reply"]["result"]["canonical_cost"]
            assert got == expected
            assert handle.server.shed == 1

    def test_cache_hit_bypasses_admission(self):
        topo, bounds, radius = instance(6)
        other = DelayBounds.uniform(6, 0.7 * radius, 1.4 * radius)
        with ServerThread(
            jobs=1,
            max_inflight=1,
            queue_limit=0,
            solver_overrides={"simplex": slow_simplex(1.2)},
        ) as handle:
            with ServerClient(port=handle.port, timeout=120.0) as warmup:
                first = warmup.solve(topo, bounds)

            def occupant():
                with ServerClient(port=handle.port, timeout=120.0) as c:
                    c.solve(topo, other, resilient=True)

            t = threading.Thread(target=occupant)
            t.start()
            time.sleep(0.3)
            # The only slot is taken and the queue is zero — but a repeat
            # of the cached instance still answers, bit-identically.
            with ServerClient(port=handle.port, busy_retries=0) as c:
                reply = c.solve(topo, bounds)
                assert reply["cache_hit"] is True
                assert reply["result"] == first["result"]
            t.join(timeout=120)
            assert not t.is_alive()

    def test_expired_deadline_fails_fast_with_typed_code(self):
        topo, bounds, _ = instance(6)
        with ServerThread(jobs=1) as handle:
            with ServerClient(port=handle.port) as c:
                with pytest.raises(ServerError) as err:
                    c.solve(topo, bounds, deadline=1e-9)
                assert err.value.code == "deadline-expired"
            assert handle.server.deadline_expired == 1

    def test_bad_deadline_is_a_protocol_error(self):
        from repro.data import instance_to_dict

        topo, bounds, _ = instance(6)
        with ServerThread(jobs=1) as handle:
            with ServerClient(port=handle.port) as c:
                for bad in (-1.0, 0.0, "soon"):
                    # Raw request: the client's own float() coercion
                    # would reject the string before it hits the wire.
                    with pytest.raises(ServerError) as err:
                        c.request({
                            "op": "solve",
                            "instance": instance_to_dict(topo, bounds),
                            "deadline": bad,
                        })
                    assert err.value.code == "bad-request"

    def test_stats_expose_admission_and_shed_counters(self, server):
        with ServerClient(port=server.port) as c:
            stats = c.stats()
            assert stats["shed"] == server.server.shed
            assert stats["deadline_expired"] >= 0
            adm = stats["admission"]
            assert adm["max_inflight"] == server.server.max_inflight
            assert adm["queue_limit"] == server.server.queue_limit
            assert adm["load"] >= 0
            assert adm["retry_after_hint"] > 0.0


class TestBreakerVisibility:
    def test_forced_backend_failure_opens_breaker_in_stats(self):
        from repro.lp.simplex import solve_simplex
        from repro.resilience.faults import ExceptionFault, FaultyBackend

        topo, bounds, radius = instance(6)
        other = DelayBounds.uniform(6, 0.7 * radius, 1.4 * radius)
        overrides = {
            "simplex": FaultyBackend(
                solve_simplex, [ExceptionFault()] * 64, name="simplex"
            )
        }
        with ServerThread(jobs=1, solver_overrides=overrides) as handle:
            with ServerClient(port=handle.port, timeout=120.0) as c:
                r1 = c.solve(topo, bounds, resilient=True)
                r2 = c.solve(topo, other, resilient=True)
                stats = c.stats()
            # Answers stayed correct via the fallback backend...
            assert r1["result"]["cost"] > 0 and r2["result"]["cost"] > 0
            # ...and the dead backend's breaker opened, visibly.
            breaker = stats["breakers"]["simplex"]
            assert breaker["state"] == "open"
            assert breaker["opens"] >= 1
            # Once open, later solves skip simplex outright.
            attempts = r2["result"]["attempts"]
            assert any(a["outcome"] == "skipped" and a["backend"] == "simplex"
                       for a in attempts)


class FakeClock:
    def __init__(self):
        self.sleeps = []

    def sleep(self, dt):
        self.sleeps.append(dt)


class TestClientRetry:
    """Backoff-and-jitter retry loops, deterministic via fake clock."""

    def test_connect_retries_then_raises(self):
        clock = FakeClock()
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        dead_port = sock.getsockname()[1]
        sock.close()  # nothing listens here now
        with pytest.raises(OSError):
            ServerClient(
                port=dead_port,
                connect_retries=3,
                sleep=clock.sleep,
            )
        assert len(clock.sleeps) == 3
        # Exponential envelope: every delay is in [0.5, 1.0] x base*2^k.
        for k, delay in enumerate(clock.sleeps):
            base = BACKOFF_SECONDS * (2.0 ** k)
            assert 0.5 * base <= delay <= base

    def test_jitter_is_deterministic_per_seed(self):
        a = ServerClient.__new__(ServerClient)
        b = ServerClient.__new__(ServerClient)
        for obj in (a, b):
            obj._rng = random.Random(42)
        delays = [a._backoff_delay(k) for k in range(8)]
        assert delays == [b._backoff_delay(k) for k in range(8)]
        # The envelope doubles from BACKOFF_SECONDS up to the cap.
        for k, delay in enumerate(delays):
            base = min(BACKOFF_CAP_SECONDS, BACKOFF_SECONDS * (2.0 ** k))
            assert 0.5 * base <= delay <= base

    def test_busy_replies_are_retried_then_succeed(self):
        from repro.server import busy_reply, encode_line

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        served = {"requests": 0}

        def stub():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as f:
                while True:
                    line = f.readline()
                    if not line:
                        return
                    req = json.loads(line)
                    served["requests"] += 1
                    if served["requests"] <= 2:
                        reply = busy_reply(req.get("id"), 0.05)
                    else:
                        reply = {"id": req.get("id"), "ok": True,
                                 "event": "pong"}
                    conn.sendall(encode_line(reply))

        t = threading.Thread(target=stub, daemon=True)
        t.start()
        clock = FakeClock()
        try:
            client = ServerClient(
                port=port, busy_retries=4, sleep=clock.sleep
            )
            reply = client.ping()
            client.close()
            assert reply["event"] == "pong"
            assert served["requests"] == 3
            assert len(clock.sleeps) == 2
            assert all(d >= 0.05 for d in clock.sleeps)  # >= retry_after
        finally:
            listener.close()
            t.join(timeout=10)

    def test_busy_retries_exhausted_raises_typed_error(self):
        from repro.server import ServerBusyError, busy_reply, encode_line

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def stub():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as f:
                while True:
                    line = f.readline()
                    if not line:
                        return
                    req = json.loads(line)
                    conn.sendall(
                        encode_line(busy_reply(req.get("id"), 0.7))
                    )

        t = threading.Thread(target=stub, daemon=True)
        t.start()
        clock = FakeClock()
        try:
            client = ServerClient(
                port=port, busy_retries=2, sleep=clock.sleep
            )
            with pytest.raises(ServerBusyError) as err:
                client.ping()
            client.close()
            assert err.value.retry_after == 0.7
            assert len(clock.sleeps) == 2  # retried exactly busy_retries
        finally:
            listener.close()
            t.join(timeout=10)


class TestServerThreadStop:
    def test_clean_stop_does_not_raise(self):
        handle = ServerThread(jobs=1)
        handle.stop()
        assert not handle._thread.is_alive()
        handle.stop()  # idempotent

    def test_wedged_thread_raises_diagnostic(self):
        class WedgedThread:
            def join(self, timeout=None):
                pass

            def is_alive(self):
                return True

        handle = ServerThread.__new__(ServerThread)
        handle.server = SolveServer(port=9999)
        handle.server.port = 9999
        handle._loop = None
        handle._thread = WedgedThread()
        with pytest.raises(RuntimeError, match="did not exit"):
            handle.stop(timeout=0.05)
        # The diagnostic names the port so the stuck server is findable.
        with pytest.raises(RuntimeError, match="9999"):
            handle.stop(timeout=0.05)


class TestConcurrencySoak:
    """Multi-client soak: cache hits stay bit-identical under
    interleaved writers, and warm rows never cross topology hashes."""

    def test_cache_and_warm_store_under_concurrent_clients(self):
        topo_a, bounds_a, radius_a = instance(6)
        # A second, structurally different topology in the same mix.
        bench = load_benchmark("prim2").scaled(7)
        sinks_b = list(bench.sinks)
        topo_b = nearest_neighbor_topology(sinks_b, bench.source)
        radius_b = manhattan_radius_from(bench.source, sinks_b)
        family = [
            (topo_a, bounds_a),
            (topo_a, DelayBounds.uniform(6, 0.7 * radius_a, 1.4 * radius_a)),
            (topo_b, DelayBounds.uniform(7, 0.8 * radius_b, 1.3 * radius_b)),
        ]
        seen: dict = {}
        lock = threading.Lock()
        failures: list = []

        with ServerThread(jobs=1, max_inflight=2, queue_limit=64) as handle:
            def worker(wid):
                rng = np.random.default_rng(wid)
                try:
                    with ServerClient(port=handle.port, timeout=120.0) as c:
                        for _ in range(12):
                            t, b = family[rng.integers(len(family))]
                            reply = c.solve(t, b)
                            key = reply["instance_key"]
                            fingerprint = (
                                reply["result"]["cost"],
                                tuple(reply["result"]["edge_lengths"]),
                                tuple(reply["result"]["delays"]),
                            )
                            with lock:
                                if key in seen:
                                    if seen[key] != fingerprint:
                                        failures.append(
                                            f"key {key[:12]} answered "
                                            f"differently across clients"
                                        )
                                else:
                                    seen[key] = fingerprint
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    failures.append(f"client {wid}: {exc}")

            threads = [
                threading.Thread(target=worker, args=(wid,))
                for wid in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
                assert not t.is_alive()
            assert not failures, failures

            # Warm rows stayed within their own topology hash: every
            # stored pair must be a valid internal-node pair of exactly
            # the topology whose hash keys it.
            store = handle.server.warm
            hash_a, hash_b = topology_hash(topo_a), topology_hash(topo_b)
            assert set(store._warm) <= {hash_a, hash_b}
            for tkey, topo in ((hash_a, topo_a), (hash_b, topo_b)):
                n = topo.num_nodes
                for i, j, k in store.carried(tkey)[0]:
                    assert 0 <= i < n and 0 <= j < n
            # The cache never exceeded capacity and repeats hit.
            cache_stats = handle.server.cache.stats()
            assert cache_stats["size"] <= cache_stats["capacity"]
            assert cache_stats["hits"] > 0
