"""Warm-started bound sweeps over a fixed topology.

The Figure 8 tradeoff curves and the Table 2/3 drivers solve the *same*
topology dozens of times under different delay bounds.  The lazy solver
(Section 4.6 row generation) re-discovers essentially the same active
Steiner rows at every sweep point: the binding pairs depend mostly on the
sink geometry, only weakly on the bounds.  :class:`WarmStart` carries the
accumulated active pair set from solve to solve, and
:func:`repro.ebf.solver.solve_lubt` seeds its lazy loop with it — after
the first point, most solves converge in a single round.

Soundness: a Steiner row ``pathlength(s_i, s_j) >= dist(s_i, s_j)`` is a
fact about the topology, never about the bounds, so carrying rows across
bound changes can only *tighten* the relaxation toward the true feasible
set — the converged optimum is unchanged.  What warm-starting *can*
change is which vertex of a degenerate optimal face the backend returns,
i.e. the raw cost float can wiggle at the last few ulps.
:func:`canonical_cost` quantizes that noise away (keeping ~1e-10 relative
precision, four orders finer than the solver's 1e-6 feasibility
tolerances); sweep-level consumers report canonical costs so warm and
cold sweeps are bit-identical.  See docs/PERFORMANCE.md.

The direct tree path (``backend="tree"``) has no rows to carry; there
:class:`WarmStart` holds the collapsed tree LP's last optimal basis
instead, from which HiGHS's dual simplex re-solves a new window in a
few pivots (see :mod:`repro.lp.treesolve`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.ebf.bounds import DelayBounds
from repro.ebf.solver import LubtSolution, solve_lubt
from repro.topology.serialize import topology_hash

#: Significant mantissa bits kept by :func:`canonical_cost` — 33 bits is
#: ~1e-10 relative resolution: far above the ~1e-16 degenerate-vertex
#: noise it exists to cancel, far below the 1e-6 LP tolerances that
#: bound any *real* cost difference.
CANONICAL_BITS = 33


def canonical_cost(cost: float, bits: int = CANONICAL_BITS) -> float:
    """Round ``cost`` to ``bits`` significant mantissa bits.

    Deterministic (round-half-even on an exact power-of-two grid, no
    float-decimal round-trip) and scale-free.  Used to report sweep costs
    invariantly to which vertex of a degenerate optimal face the LP
    backend happened to return — warm-started, cold, and differently
    sharded sweeps all quantize to the same float.
    """
    if not math.isfinite(cost) or not cost:
        return cost
    # cost = m * 2**exp with 0.5 <= |m| < 1; shift so the integer part
    # holds exactly `bits` bits, round, shift back.  All steps exact
    # except the round itself.
    _, exp = math.frexp(cost)
    scaled = math.ldexp(cost, bits - exp)
    return math.ldexp(float(round(scaled)), exp - bits)


@dataclass
class WarmStart:
    """Carry-over state for a bound sweep on one topology.

    Holds the orientation-normalized active Steiner pair set — every
    ``(i, j, lca)`` row the lazy loop discovered beyond its per-solve
    seeds — in discovery order, so re-seeding is deterministic; and,
    for the direct tree path, the collapsed tree LP's last optimal
    basis.  The state is keyed to the topology by **structural hash**
    (:func:`repro.topology.topology_hash`): handing the object a
    structurally different topology resets it (rows and bases are
    meaningless across topologies), which makes one ``WarmStart`` safe
    to thread through heterogeneous drivers like the Table 1 suite —
    while two *distinct but identical* topology objects (one per client
    request, one per worker process) share their state, the property
    the :mod:`repro.server` cross-request warm store is built on.  The
    digest is stored on the topology, so checking it costs one
    attribute read per solve.  It holds no solver object, so it
    pickles.
    """

    #: Structural hash the carried rows belong to.
    key: str | None = None
    #: Carried ``(i, j, lca)`` rows in first-discovery order.
    pairs: list[tuple[int, int, int]] = field(default_factory=list)
    _seen: set[tuple[int, int]] = field(default_factory=set, repr=False)
    #: Last optimal ``(col_status, row_status)`` basis of the collapsed
    #: tree LP (:mod:`repro.lp.treesolve`), or None.
    basis: tuple | None = field(default=None, repr=False)

    @classmethod
    def seeded(
        cls,
        key: str,
        pairs: Iterable[tuple[int, int, int]],
        basis: tuple | None = None,
    ) -> "WarmStart":
        """Build a carry-over pre-loaded with rows (and a basis) known
        valid for the topology whose structural hash is ``key`` (server
        warm store)."""
        ws = cls(key=key)
        ws.merge(pairs, basis)
        return ws

    def merge(
        self,
        pairs: Iterable[tuple[int, int, int]],
        basis: tuple | None = None,
    ) -> int:
        """Append the rows not carried yet (dedup by orientation-
        normalized ``(i, j)``, first discovery wins) and keep ``basis``
        if given; returns the fresh-row count.  The key is not checked:
        the caller vouches that the rows belong to this topology."""
        fresh = 0
        for i, j, k in pairs:
            nk = (i, j) if i < j else (j, i)
            if nk not in self._seen:
                self._seen.add(nk)
                self.pairs.append((int(i), int(j), int(k)))
                fresh += 1
        if basis is not None:
            self.basis = basis
        return fresh

    def _rekey(self, topo) -> None:
        h = topology_hash(topo)
        if h != self.key:
            self.key = h
            self.pairs = []
            self._seen = set()
            self.basis = None

    def pairs_for(self, topo) -> list[tuple[int, int, int]]:
        """The carried rows, valid for ``topo`` (empty after a reset)."""
        self._rekey(topo)
        return self.pairs

    def basis_for(self, topo) -> tuple | None:
        """The carried basis for ``topo`` (None after a reset)."""
        self._rekey(topo)
        return self.basis

    def absorb(
        self,
        topo,
        new_pairs: Iterable[tuple[int, int, int]],
        basis: tuple | None = None,
    ) -> None:
        """Merge rows a solve discovered (duplicates are dropped) and
        keep its final basis, if it has one."""
        self._rekey(topo)
        self.merge(new_pairs, basis)


def solve_sweep(
    topo,
    bounds_seq: Sequence[DelayBounds],
    *,
    warm: "WarmStart | bool | None" = True,
    **solve_kwargs,
) -> list[LubtSolution]:
    """Solve one topology under a sequence of delay bounds, warm-started.

    ``warm=True`` (default) threads a fresh :class:`WarmStart` through
    the sequence; pass an existing :class:`WarmStart` to continue
    accumulating across calls, or ``False``/``None`` to solve each point
    cold.  Any other :func:`~repro.ebf.solver.solve_lubt` keyword passes
    through unchanged.
    """
    if warm is True:
        warm = WarmStart()
    elif warm is False:
        warm = None
    return [
        solve_lubt(topo, bounds, warm=warm, **solve_kwargs)
        for bounds in bounds_seq
    ]
