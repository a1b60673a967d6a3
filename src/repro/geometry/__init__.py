"""Manhattan-plane geometry substrate.

The LUBT paper works entirely in the rectilinear (L1) plane.  Its embedding
machinery is built on *tilted rectangular regions* (TRRs): rectangles whose
sides have slope +-1.  This package provides:

* :class:`Point` and the Manhattan metric,
* :class:`TRR` — exact TRR algebra (intersection, expansion, distance) in
  rotated coordinates where every TRR is an axis-aligned box,
* Euclidean-metric helpers used only to demonstrate the paper's Section 4.7
  counterexample (EBF is *not* valid in Euclidean space).
"""

from repro.geometry.point import (
    Point,
    manhattan,
    points_xy,
    euclidean,
    chebyshev,
    bounding_box,
    manhattan_diameter,
    manhattan_radius_from,
)
from repro.geometry.trr import TRR, helly_intersection
from repro.geometry.octilinear import Octilinear
from repro.geometry.euclid import (
    Disk,
    disks_have_common_point,
    pairwise_disks_intersect,
)

__all__ = [
    "Point",
    "manhattan",
    "points_xy",
    "euclidean",
    "chebyshev",
    "bounding_box",
    "manhattan_diameter",
    "manhattan_radius_from",
    "TRR",
    "helly_intersection",
    "Octilinear",
    "Disk",
    "disks_have_common_point",
    "pairwise_disks_intersect",
]
