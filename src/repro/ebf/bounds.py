"""Per-sink delay bound sets (Definition 2.1) and the paper's conventions.

The paper's tables normalize all bounds to the tree *radius* (half the sink
diameter for a free source, source-to-farthest-sink distance otherwise).
:meth:`DelayBounds.normalized` applies that convention.  Section 6's
tolerable-skew requirement (common upper bound ``u``, skew ``<= d``) maps to
the uniform window ``[u - d, u]`` via :meth:`DelayBounds.tolerable_skew`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geometry import manhattan_diameter, manhattan_radius_from
from repro.topology import Topology


class BoundsError(ValueError):
    """Raised when bounds violate Definition 2.1's validity conditions."""


@dataclass(frozen=True)
class DelayBounds:
    """Lower and upper delay bounds, one pair per sink.

    ``lower[i - 1]``/``upper[i - 1]`` bound sink ``i``.  Infinite upper
    bounds are allowed (the unbounded / pure-Steiner special case).
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise BoundsError("lower/upper must be 1-D arrays of equal length")
        if np.any(lo < 0):
            raise BoundsError("lower bounds must be non-negative (Eq. 3/4)")
        if np.any(lo > hi):
            raise BoundsError("each lower bound must not exceed its upper bound")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def uniform(num_sinks: int, lower: float, upper: float) -> "DelayBounds":
        """The same ``[lower, upper]`` window for every sink."""
        return DelayBounds(
            np.full(num_sinks, float(lower)), np.full(num_sinks, float(upper))
        )

    @staticmethod
    def tolerable_skew(num_sinks: int, upper: float, skew: float) -> "DelayBounds":
        """Section 6: delays ``<= upper`` and pairwise skew ``<= skew``.

        Implemented as the uniform window ``[upper - skew, upper]`` (the
        paper's ``l = u - d`` substitution).
        """
        if skew < 0:
            raise BoundsError("skew bound must be non-negative")
        return DelayBounds.uniform(num_sinks, max(0.0, upper - skew), upper)

    @staticmethod
    def zero_skew(num_sinks: int, target: float) -> "DelayBounds":
        """``l_i = u_i = target`` — the zero-skew special case."""
        return DelayBounds.uniform(num_sinks, target, target)

    @staticmethod
    def unbounded(num_sinks: int) -> "DelayBounds":
        """``l = 0, u = inf`` — optimal Steiner tree under the topology."""
        return DelayBounds.uniform(num_sinks, 0.0, math.inf)

    @staticmethod
    def unchecked(lower, upper) -> "DelayBounds":
        """Construct *without* Definition 2.1 validation.

        Exists for the static verification layer and fault injection:
        deliberately broken windows (inverted, NaN) must be representable
        so :func:`repro.check.check_bounds` has something to report.
        Never feed an unchecked instance to a solver without running the
        checker first.
        """
        b = object.__new__(DelayBounds)
        object.__setattr__(b, "lower", np.asarray(lower, dtype=float))
        object.__setattr__(b, "upper", np.asarray(upper, dtype=float))
        return b

    @staticmethod
    def per_sink(pairs: list[tuple[float, float]]) -> "DelayBounds":
        """Distinct bounds per sink, e.g. per-pipeline-stage windows."""
        if not pairs:
            raise BoundsError("no bounds given")
        lo, hi = zip(*pairs)
        return DelayBounds(np.array(lo, dtype=float), np.array(hi, dtype=float))

    # ------------------------------------------------------------------
    # the paper's radius normalization
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "DelayBounds":
        if factor <= 0:
            raise BoundsError("scale factor must be positive")
        return DelayBounds(self.lower * factor, self.upper * factor)

    @staticmethod
    def normalized(
        topo: Topology, lower: float, upper: float
    ) -> "DelayBounds":
        """Uniform bounds given as multiples of the topology's radius.

        "All bounds are normalized to the radius" — Tables 1-3.
        """
        r = radius_of(topo)
        return DelayBounds.uniform(topo.num_sinks, lower * r, upper * r)

    # ------------------------------------------------------------------
    # validity (Definition 2.1, Eq. 3/4)
    # ------------------------------------------------------------------
    def check(self, topo: Topology) -> None:
        """Raise :class:`BoundsError` unless the bounds satisfy Eq. 3/4.

        With a given source: ``u_i >= dist(s_0, s_i)`` per sink; with a
        free source: ``u_i >= radius``.
        """
        if len(self.lower) != topo.num_sinks:
            raise BoundsError(
                f"{len(self.lower)} bound pairs for {topo.num_sinks} sinks"
            )
        src = topo.source_location
        if src is not None:
            need = topo.source_distances()
            short = (self.upper < need - 1e-9).nonzero()[0]
            if short.size:
                i = int(short[0]) + 1
                raise BoundsError(
                    f"u_{i} = {self.upper[i - 1]:g} < dist(source, sink) = "
                    f"{need[i - 1]:g} (Eq. 3)"
                )
        else:
            r = radius_of(topo)
            if np.any(self.upper < r - 1e-9):
                raise BoundsError(f"every upper bound must be >= radius = {r:g} (Eq. 4)")

    @property
    def num_sinks(self) -> int:
        return len(self.lower)

    def window(self, sink_id: int) -> tuple[float, float]:
        return float(self.lower[sink_id - 1]), float(self.upper[sink_id - 1])

    def satisfied_by(self, delays: np.ndarray, tol: float = 1e-6) -> bool:
        d = np.asarray(delays, dtype=float)
        return bool(
            np.all(d >= self.lower - tol) and np.all(d <= self.upper + tol)
        )


def radius_of(topo: Topology) -> float:
    """The paper's *radius* (Section 2): farthest-sink distance for a fixed
    source, half the sink diameter for a free one."""
    sinks = list(topo.sink_locations)
    if topo.source_location is not None:
        return manhattan_radius_from(topo.source_location, sinks)
    return manhattan_diameter(sinks) / 2.0
