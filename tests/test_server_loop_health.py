"""Event-loop health of the solve server (regressions for the CC001
findings the analyzer surfaced).

The original ``start()``/``aclose()`` called ``WorkerPool(...)`` and
``pool.close()`` directly on the event loop, freezing accepts and
heartbeats for however long forking or joining workers takes.  Both now
run in the default executor; these tests pin that with a ticker task
that must keep advancing while the slow call is in flight.
"""

import asyncio
import time

from repro.resilience import ChaosConfig, ChaosReport
from repro.server import SolveServer

BLOCK_SECONDS = 0.4


class SlowClosePool:
    """Pool stand-in whose close() blocks like a real worker join."""

    def __init__(self):
        self.closed = False

    def close(self):
        time.sleep(BLOCK_SECONDS)
        self.closed = True


class SlowStartPool:
    """WorkerPool stand-in whose constructor blocks like real forks."""

    def __init__(self, jobs):
        time.sleep(BLOCK_SECONDS)
        self.jobs = jobs

    def close(self):
        pass


async def _count_ticks_during(awaitable):
    """Run ``awaitable`` while a 10ms ticker task spins; returns the
    number of loop iterations the ticker managed meanwhile.  A coroutine
    that blocks the loop yields ~0 ticks; one that stays async yields
    dozens."""
    ticks = 0

    async def ticker():
        nonlocal ticks
        while True:
            await asyncio.sleep(0.01)
            ticks += 1

    task = asyncio.get_running_loop().create_task(ticker())
    try:
        await awaitable
    finally:
        await asyncio.sleep(0)
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
    return ticks


class TestLoopStaysLive:
    def test_aclose_does_not_block_event_loop_on_pool_close(self):
        async def scenario():
            server = SolveServer(jobs=1)
            await server.start()
            pool = SlowClosePool()
            server.pool = pool
            ticks = await _count_ticks_during(server.aclose())
            return pool.closed, ticks

        closed, ticks = asyncio.run(scenario())
        assert closed
        # 0.4s of pool join at a 10ms tick: direct (blocking) close
        # would leave this at ~0.
        assert ticks >= 10

    def test_start_forks_pool_off_event_loop(self, monkeypatch):
        import repro.perf.pool as pool_mod

        monkeypatch.setattr(pool_mod, "WorkerPool", SlowStartPool)

        async def scenario():
            server = SolveServer(jobs=2)
            ticks = await _count_ticks_during(server.start())
            pool = server.pool
            await server.aclose()
            return pool, ticks

        pool, ticks = asyncio.run(scenario())
        assert isinstance(pool, SlowStartPool) and pool.jobs == 2
        assert ticks >= 10


class TestStallWiring:
    def test_stats_reply_carries_live_stall_block(self):
        async def scenario():
            server = SolveServer(jobs=1, stall_threshold=5.0)
            await server.start()
            live = server._stats_reply(1)["stall"]
            await server.aclose()
            post = server._stats_reply(2)["stall"]
            return live, post

        live, post = asyncio.run(scenario())
        assert live["threshold"] == 5.0 and live["stalls"] == 0
        # After shutdown the final counters stay visible.
        assert post["threshold"] == 5.0

    def test_stall_monitor_off_by_default(self):
        async def scenario():
            server = SolveServer(jobs=1)
            await server.start()
            stall = server._stats_reply(1)["stall"]
            await server.aclose()
            return stall

        assert asyncio.run(scenario()) is None


class TestChaosReportGating:
    def test_lock_order_violations_fail_the_soak(self):
        report = ChaosReport(config=ChaosConfig())
        assert report.ok
        report.lock_order_violations.append("lock-order cycle: a -> b -> a")
        assert not report.ok
        assert "LOCK ORDER VIOLATIONS" in report.summary()

    def test_sanitize_knobs_exist_with_defaults(self):
        cfg = ChaosConfig()
        assert cfg.sanitize is False
        assert cfg.stall_threshold == 0.5
