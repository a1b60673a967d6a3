"""Cross-request warm store, keyed by topology structural hash.

:class:`repro.ebf.WarmStart` makes a *sweep* fast by carrying what one
solve learned about a topology to the next solve on it.  The store lifts
that to the server's lifetime: every request that solves a topology
deposits what it learned under the topology's structural hash, and
every later request on the same structure — from any client, in any
connection — starts from it.  Two kinds of state are kept per topology:

* the lazy loop's discovered **rows** — sound because a Steiner row is
  a fact about the topology, never about the bounds;
* the direct tree path's last optimal **basis** of the collapsed tree
  LP — a new window only moves that LP's column bounds, so the basis
  stays dual feasible and dual simplex re-solves from it in a few
  pivots instead of hundreds.  It is only a starting point: the exact
  post-checks run on every answer.

The hash-rekeyed ``WarmStart`` refuses state whose key doesn't match
the topology it is handed.  The store holds at most ``max_topologies``
topologies and evicts the least recently used one first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable

from repro.ebf.sweep import WarmStart

Pair = tuple[int, int, int]


class WarmStore:
    """Accumulated Steiner rows and tree-LP bases per topology hash
    (thread-safe, least-recently-used eviction)."""

    def __init__(self, max_topologies: int = 512):
        if max_topologies < 1:
            raise ValueError("max_topologies must be >= 1")
        self._max = max_topologies
        #: Rows per topology, least recently used first.
        self._rows: OrderedDict[str, list[Pair]] = OrderedDict()
        self._seen: dict[str, set[tuple[int, int]]] = {}
        self._bases: dict[str, tuple] = {}
        self._lock = threading.Lock()
        self.absorbed = 0

    def carried(self, key: str) -> tuple[list[Pair], tuple | None]:
        """A snapshot ``(rows, basis)`` for ``key`` (no rows and no
        basis when unknown); marks ``key`` as recently used."""
        with self._lock:
            if key not in self._rows:
                return [], None
            self._rows.move_to_end(key)
            return list(self._rows[key]), self._bases.get(key)

    def pairs(self, key: str) -> list[Pair]:
        """A snapshot of the carried rows for ``key`` (possibly empty)."""
        return self.carried(key)[0]

    def warm_for(self, key: str) -> WarmStart:
        """A fresh :class:`WarmStart` pre-seeded with the stored state."""
        return WarmStart.seeded(key, *self.carried(key))

    def absorb(
        self, key: str, pairs: Iterable[Pair], basis: tuple | None = None
    ) -> int:
        """Merge rows a solve discovered and keep its basis (if any);
        returns the fresh-row count.

        Dedup is by orientation-normalized ``(i, j)`` — the same rule
        the lazy loop and ``WarmStart`` use — so replayed rows are free.
        """
        fresh = 0
        with self._lock:
            if key in self._rows:
                self._rows.move_to_end(key)
            else:
                if len(self._rows) >= self._max:
                    old, _ = self._rows.popitem(last=False)
                    del self._seen[old]
                    self._bases.pop(old, None)
                self._rows[key] = []
                self._seen[key] = set()
            rows, seen = self._rows[key], self._seen[key]
            for i, j, k in pairs:
                nk = (i, j) if i < j else (j, i)
                if nk not in seen:
                    seen.add(nk)
                    rows.append((int(i), int(j), int(k)))
                    fresh += 1
            if basis is not None:
                self._bases[key] = basis
            self.absorbed += fresh
        return fresh

    def rows(self, key: str) -> int:
        with self._lock:
            return len(self._rows.get(key, ()))

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "topologies": len(self._rows),
                "total_rows": sum(len(r) for r in self._rows.values()),
                "absorbed": self.absorbed,
                "bases": len(self._bases),
            }
