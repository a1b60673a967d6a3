"""Delay-bound checks (``BD0xx``) against Definition 2.1's validity rules.

:class:`~repro.ebf.bounds.DelayBounds` already rejects the worst inputs
at construction time, but the checker cannot assume a well-behaved
constructor ran: fault injection, serialization, and hand-built objects
all reach the solver too.  Every rule is therefore re-verified here, and
the geometric floor (Eq. 3/4) — which the constructor *cannot* check
because it needs the topology — lives here as ``BD005``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.check.diagnostics import Diagnostic
from repro.ebf.bounds import DelayBounds, radius_of
from repro.topology.tree import Topology

#: Same tolerance ``DelayBounds.check`` uses for the Eq. 3/4 floor.
_FLOOR_TOL = 1e-9


def check_bounds(
    bounds: DelayBounds,
    topo: Topology | None = None,
    *,
    geometric_floor: bool = True,
) -> list[Diagnostic]:
    """Run every ``BD0xx`` check; ``topo`` enables the count and floor
    checks.  ``geometric_floor=False`` skips ``BD005`` (callers probing
    deliberately infeasible bounds pass ``check_bounds=False`` to the
    solver, and the pre-check honors that)."""
    out: list[Diagnostic] = []
    lo = np.asarray(bounds.lower, dtype=float)
    hi = np.asarray(bounds.upper, dtype=float)

    if topo is not None and len(lo) != topo.num_sinks:
        out.append(
            Diagnostic(
                "BD004",
                f"{len(lo)} bound pairs for {topo.num_sinks} sinks",
                locus=f"{len(lo)} pairs",
            )
        )
        topo = None  # per-sink loci below would be misaligned

    # A window is clean iff 0 <= lo < hi (which also rules out NaN and
    # an infinite lo); only the others can draw a diagnostic.  On
    # booleans ``a <= b`` is ``not a or b``: not lo < hi, or lo < 0.
    for idx in ((lo < hi) <= (lo < 0)).nonzero()[0].tolist():
        l_i, u_i = float(lo[idx]), float(hi[idx])
        locus = f"sink {idx + 1}"
        if math.isnan(l_i) or math.isnan(u_i) or math.isinf(l_i):
            out.append(
                Diagnostic(
                    "BD001",
                    f"bounds [{l_i!r}, {u_i!r}] are not usable",
                    locus=locus,
                )
            )
            continue
        if l_i > u_i:
            out.append(
                Diagnostic(
                    "BD002",
                    f"lower {l_i:g} exceeds upper {u_i:g}",
                    locus=locus,
                )
            )
        if l_i < 0:
            out.append(
                Diagnostic(
                    "BD003", f"lower bound {l_i:g} is negative", locus=locus
                )
            )
        if l_i == u_i and math.isfinite(u_i):
            out.append(
                Diagnostic(
                    "BD007",
                    f"exact zero-skew window at {u_i:g}",
                    locus=locus,
                )
            )

    if topo is not None and geometric_floor:
        out.extend(_check_floor(lo, hi, topo))
    return out


def _check_floor(
    lo: np.ndarray, hi: np.ndarray, topo: Topology
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    src = topo.source_location
    if src is not None:
        if not (math.isfinite(src.x) and math.isfinite(src.y)):
            return out  # TP008 territory; a floor is meaningless here
        need = topo.source_distances()
        for idx in (hi < need - _FLOOR_TOL).nonzero()[0].tolist():
            if not math.isfinite(need[idx]):
                continue  # a non-finite sink: TP008 territory too
            out.append(
                Diagnostic(
                    "BD005",
                    f"upper bound {float(hi[idx]):g} < dist(source, sink) = "
                    f"{float(need[idx]):g} (Eq. 3)",
                    locus=f"sink {idx + 1}",
                )
            )
    else:
        r = radius_of(topo)
        if math.isfinite(r):
            for idx in np.nonzero(hi < r - _FLOOR_TOL)[0]:
                u_i = float(hi[idx])
                if not math.isnan(u_i):
                    out.append(
                        Diagnostic(
                            "BD005",
                            f"upper bound {u_i:g} < radius {r:g} (Eq. 4)",
                            locus=f"sink {int(idx) + 1}",
                        )
                    )
    return out
