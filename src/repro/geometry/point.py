"""Points and metrics in the routing plane.

The paper's distance is always the Manhattan (L1) distance (Section 2).  A
key identity used throughout this reproduction: under the 45-degree rotation

    u = x + y,   v = y - x

the Manhattan distance between two points equals the *Chebyshev* (L-infinity)
distance between their rotated images:

    |dx| + |dy| == max(|du|, |dv|)

so every L1 ball becomes an axis-aligned square and every tilted rectangular
region (TRR) becomes an axis-aligned box.  :class:`Point` exposes both frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, slots=True)
class Point:
    """An immutable point in the routing plane (original x/y frame)."""

    x: float
    y: float

    @property
    def u(self) -> float:
        """Rotated coordinate ``x + y``."""
        return self.x + self.y

    @property
    def v(self) -> float:
        """Rotated coordinate ``y - x``."""
        return self.y - self.x

    @staticmethod
    def from_uv(u: float, v: float) -> "Point":
        """Inverse of the 45-degree rotation used for TRR arithmetic."""
        return Point((u - v) / 2.0, (u + v) / 2.0)

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def __iter__(self) -> "Iterator[float]":
        yield self.x
        yield self.y

    def __repr__(self) -> str:  # compact, used heavily in test output
        return f"({self.x:g}, {self.y:g})"


def manhattan(a: Point, b: Point) -> float:
    """Manhattan (L1) distance — the paper's ``dist``."""
    return abs(a.x - b.x) + abs(a.y - b.y)


def points_xy(points: Sequence[Point]) -> np.ndarray:
    """``points`` as an ``(n, 2)`` float array of ``(x, y)`` rows."""
    xy = np.empty((len(points), 2))
    xy[:, 0] = [p.x for p in points]
    xy[:, 1] = [p.y for p in points]
    return xy


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance (used only by the Section 4.7 counterexample)."""
    return math.hypot(a.x - b.x, a.y - b.y)


def chebyshev(a: Point, b: Point) -> float:
    """Chebyshev (L-infinity) distance."""
    return max(abs(a.x - b.x), abs(a.y - b.y))


def bounding_box(points: Iterable[Point]) -> tuple[float, float, float, float]:
    """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)``.

    Raises ``ValueError`` on an empty iterable.
    """
    pts = list(points)
    if not pts:
        raise ValueError("bounding_box of no points")
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def manhattan_diameter(points: Sequence[Point]) -> float:
    """Largest Manhattan distance between any two of ``points``.

    The paper's *diameter* (Section 2).  Computed exactly in O(n) using the
    rotated frame: the L1 diameter is ``max(range(u), range(v))``.
    """
    if len(points) < 2:
        return 0.0
    us = [p.u for p in points]
    vs = [p.v for p in points]
    return max(max(us) - min(us), max(vs) - min(vs))


def manhattan_radius_from(source: Point, sinks: Sequence[Point]) -> float:
    """Distance from ``source`` to the farthest sink.

    The paper's *radius* when the source location is given (Section 2).
    """
    if not sinks:
        return 0.0
    return max(manhattan(source, s) for s in sinks)
