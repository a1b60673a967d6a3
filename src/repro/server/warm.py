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

The store keeps one :class:`WarmStart` per structural hash and merges
into it with that class's row dedup.  Requests get snapshots
(:meth:`WarmStore.carried`), never the stored objects, and the
hash-rekeyed ``WarmStart`` they seed refuses state whose key doesn't
match the topology it is handed.  The store holds at most
:data:`MAX_TOPOLOGIES` topologies and evicts the least recently used
one first.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable

from repro.ebf.sweep import WarmStart

Pair = tuple[int, int, int]

#: Topologies a :class:`WarmStore` keeps before evicting.
MAX_TOPOLOGIES = 512


class WarmStore:
    """Accumulated Steiner rows and tree-LP bases per topology hash
    (thread-safe, least-recently-used eviction)."""

    def __init__(self) -> None:
        #: One carry-over per topology, least recently used first.
        self._warm: OrderedDict[str, WarmStart] = OrderedDict()
        self._lock = threading.Lock()
        self.absorbed = 0

    def carried(self, key: str) -> tuple[list[Pair], tuple | None]:
        """A snapshot ``(rows, basis)`` for ``key`` (no rows and no
        basis when unknown); marks ``key`` as recently used."""
        with self._lock:
            ws = self._warm.get(key)
            if ws is None:
                return [], None
            self._warm.move_to_end(key)
            return list(ws.pairs), ws.basis

    def absorb(
        self, key: str, pairs: Iterable[Pair], basis: tuple | None = None
    ) -> int:
        """Merge rows a solve discovered and keep its basis (if any);
        returns the fresh-row count (:meth:`WarmStart.merge`, so
        replayed rows are free)."""
        with self._lock:
            ws = self._warm.get(key)
            if ws is None:
                if len(self._warm) >= MAX_TOPOLOGIES:
                    self._warm.popitem(last=False)
                ws = self._warm[key] = WarmStart(key=key)
            else:
                self._warm.move_to_end(key)
            fresh = ws.merge(pairs, basis)
            self.absorbed += fresh
        return fresh

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "topologies": len(self._warm),
                "total_rows": sum(len(w.pairs) for w in self._warm.values()),
                "absorbed": self.absorbed,
                "bases": sum(w.basis is not None for w in self._warm.values()),
            }
