"""Blocking client for the LUBT solve server.

A thin socket wrapper speaking the JSON-lines protocol of
:mod:`repro.server.protocol` — used by the ``lubt request`` subcommand,
the server smoke tests, and any script that wants solves answered by a
shared resident server instead of an in-process solver::

    with ServerClient(port=9155) as c:
        reply = c.solve(topo, bounds)
        print(reply["result"]["cost"], reply["cache_hit"])

The client retries transient failures so callers don't have to: a
refused/odd connection is retried with exponential backoff and
deterministic jitter (``connect_retries``), and a typed ``busy`` shed
from admission control is retried after the server's ``retry_after``
hint (``busy_retries``).  ``sleep`` is injectable so the backoff
schedule is unit-testable with a fake clock.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.data.instance_json import instance_to_dict
from repro.ebf.bounds import DelayBounds
from repro.server.protocol import ProtocolError, encode_line, jsonable
from repro.topology.serialize import topology_to_dict
from repro.topology.tree import Topology

import json

#: First backoff delay (seconds); attempt ``k`` waits up to
#: ``BACKOFF_SECONDS * 2**k``, capped at :data:`BACKOFF_CAP_SECONDS`,
#: scaled by a deterministic jitter in ``[0.5, 1]``.
BACKOFF_SECONDS = 0.2
BACKOFF_CAP_SECONDS = 5.0


class ServerError(RuntimeError):
    """The server answered a request with an error event."""

    def __init__(self, reply: Mapping[str, Any]):
        self.reply = dict(reply)
        self.error_type = reply.get("error_type", "Error")
        self.code = reply.get("code")
        super().__init__(f"{self.error_type}: {reply.get('error', '?')}")


class ServerBusyError(ServerError):
    """Admission control shed the request and retries were exhausted."""

    def __init__(self, reply: Mapping[str, Any]):
        super().__init__(reply)
        self.retry_after = float(reply.get("retry_after", 0.0))


class ServerClient:
    """One connection to a :class:`repro.server.SolveServer`.

    ``connect_retries`` bounds reconnect attempts (with backoff +
    jitter) when the initial connection fails — a server still binding
    its socket, or a load balancer blip, shouldn't kill a batch script.
    ``busy_retries`` bounds re-sends after typed ``busy`` sheds, waiting
    at least the server's ``retry_after`` hint between attempts.
    ``jitter_seed`` makes the backoff schedule reproducible.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 9155,
        *,
        timeout: float | None = 300.0,
        connect_retries: int = 4,
        busy_retries: int = 4,
        jitter_seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if connect_retries < 0 or busy_retries < 0:
            raise ValueError("retry counts must be >= 0")
        self._busy_retries = busy_retries
        self._rng = random.Random(jitter_seed)
        self._sleep = sleep
        self._sock = self._connect(host, port, timeout, connect_retries)
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    # ------------------------------------------------------------------
    # retry plumbing
    # ------------------------------------------------------------------
    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with deterministic jitter in [0.5x, 1x]."""
        base = min(BACKOFF_CAP_SECONDS, BACKOFF_SECONDS * (2.0 ** attempt))
        return base * (0.5 + 0.5 * self._rng.random())

    def _connect(
        self, host: str, port: int, timeout: float | None, retries: int
    ) -> socket.socket:
        attempt = 0
        while True:
            try:
                return socket.create_connection(
                    (host, port), timeout=timeout
                )
            except OSError:
                delay = self._backoff_delay(attempt)
                if attempt >= retries:
                    raise
                self._sleep(delay)
                attempt += 1

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _send(self, request: dict[str, Any]) -> int:
        self._next_id += 1
        request["id"] = self._next_id
        self._sock.sendall(encode_line(request))
        return self._next_id

    def _recv(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        obj = json.loads(line)
        if not isinstance(obj, dict):
            raise ProtocolError("server reply is not a JSON object")
        return obj

    def request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Send one request, return its single reply.

        A typed ``busy`` shed is retried up to ``busy_retries`` times,
        sleeping the larger of the server's ``retry_after`` hint and the
        jittered backoff; exhausted retries raise
        :class:`ServerBusyError`.  Other error events raise
        :class:`ServerError` immediately.
        """
        attempt = 0
        while True:
            self._send(request)
            reply = self._recv()
            if reply.get("ok", False):
                return reply
            if reply.get("code") != "busy":
                raise ServerError(reply)
            delay = max(
                float(reply.get("retry_after", 0.0)),
                self._backoff_delay(attempt),
            )
            if attempt >= self._busy_retries:
                raise ServerBusyError(reply)
            self._sleep(delay)
            attempt += 1

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> dict[str, Any]:
        return self.request({"op": "stats"})

    def shutdown(self) -> dict[str, Any]:
        return self.request({"op": "shutdown"})

    def solve(
        self,
        topo: Topology,
        bounds: DelayBounds,
        *,
        deadline: float | None = None,
        **options: Any,
    ) -> dict[str, Any]:
        """Solve one instance; returns the ``result`` reply (with
        ``instance_key`` / ``cache_hit`` / ``warm_rows`` provenance).

        ``deadline`` (seconds) travels with the request: the server
        fails it fast with ``deadline-expired`` rather than letting it
        rot in the admission queue, and the remaining budget caps the
        pool's hard-kill solve timeout.
        """
        req: dict[str, Any] = {
            "op": "solve",
            "instance": instance_to_dict(topo, bounds, options or None),
        }
        if deadline is not None:
            req["deadline"] = float(deadline)
        return self.request(req)

    def sweep(
        self,
        topo: Topology,
        bounds_list: Iterable[DelayBounds],
        **options: Any,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Stream a sweep; returns ``(points, done)``.

        ``points`` holds every per-point event in reply order — error
        points included, distinguishable by ``p["ok"]`` — and ``done``
        is the final summary event.
        """
        blist: Sequence[DelayBounds] = list(bounds_list)
        self._send(
            {
                "op": "sweep",
                "tree": topology_to_dict(topo),
                "bounds_list": [
                    jsonable(
                        {
                            "lower": [float(v) for v in b.lower],
                            "upper": [float(v) for v in b.upper],
                        }
                    )
                    for b in blist
                ],
                "options": options,
            }
        )
        points: list[dict[str, Any]] = []
        while True:
            reply = self._recv()
            if reply.get("event") == "done":
                return points, reply
            if reply.get("event") == "error" and "index" not in reply:
                # request-level failure (bad tree/options): nothing more
                # is coming for this sweep.
                raise ServerError(reply)
            points.append(reply)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
