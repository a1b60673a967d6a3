"""Typed diagnostics for the pre-solve static verification layer.

Every finding the sanitizer can produce has a *stable code* (``LP001``,
``TP003``, ``BD005``, ...) registered in :data:`CODES`, a severity, a
human message, and a *locus* naming the offending row / edge / sink.
Codes never change meaning once shipped — tools and CI greps key on
them — so retired codes are tombstoned rather than reused.

This module is deliberately dependency-free (no imports from the rest of
:mod:`repro`) so low-level modules like :mod:`repro.lp.model` can emit
diagnostics without creating an import cycle.

Emission has two modes:

* inside a :func:`collect` block, diagnostics append to the collector
  (the :func:`repro.check.check_instance` machinery and the producers it
  calls use this);
* outside any collector, :func:`emit` falls back to ``warnings.warn``
  with a :class:`DiagnosticWarning`, so ad-hoc model building still
  surfaces problems instead of swallowing them.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class Severity(Enum):
    """How bad a diagnostic is.

    ``ERROR`` means the instance cannot solve correctly (NaN data, a
    cyclic topology, inverted bounds); ``WARNING`` means it will solve
    but something is structurally suspicious (duplicate rows, dangling
    Steiner points); ``INFO`` is purely advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


#: Stable code registry: code -> (default severity, slug, one-line fix hint).
#: docs/STATIC_ANALYSIS.md is generated from / kept in sync with this table.
CODES: dict[str, tuple[Severity, str, str]] = {
    # --- LP: LinearProgram well-formedness -------------------------------
    "LP001": (
        Severity.ERROR,
        "nan-coefficient",
        "a row coefficient is NaN; check the sink coordinates and any "
        "weight vectors feeding the row builder",
    ),
    "LP002": (
        Severity.ERROR,
        "nonfinite-cost",
        "an objective coefficient is NaN/inf; check the edge weights",
    ),
    "LP003": (
        Severity.ERROR,
        "nonfinite-rhs",
        "a right-hand side is NaN or infinite; check distances/bounds "
        "used to build the row",
    ),
    "LP004": (
        Severity.ERROR,
        "inverted-variable-bounds",
        "a variable has lb > ub; fix the bound assignment (or the "
        "fix_variable call) for that column",
    ),
    "LP005": (
        Severity.ERROR,
        "infeasible-empty-row",
        "a row with no coefficients demands a nonzero rhs and can never "
        "be satisfied; drop the row or fix its coefficients",
    ),
    "LP010": (
        Severity.WARNING,
        "duplicate-row",
        "two rows have identical coefficients, sense and rhs; deduplicate "
        "the row producer (wasted solver work, degenerate bases)",
    ),
    "LP011": (
        Severity.INFO,
        "trivial-empty-row",
        "a row with no coefficients is trivially satisfied; drop it",
    ),
    "LP012": (
        Severity.WARNING,
        "dominated-steiner-row",
        "a >= row is implied by another row with the same coefficients "
        "and a larger rhs; keep only the binding row",
    ),
    "LP013": (
        Severity.INFO,
        "tree-structured-model",
        "the model carries tree metadata covering every row, so the "
        "structure-aware backend=\"tree\" collapsed solve applies; "
        "purely advisory",
    ),
    "LP014": (
        Severity.WARNING,
        "tree-metadata-stale",
        "rows were appended past the tree metadata's coverage watermark "
        "by a path other than add_steiner_rows; backend=\"tree\" will "
        "decline this model — re-stamp or rebuild via build_ebf_lp",
    ),
    "LP015": (
        Severity.WARNING,
        "ill-conditioned-coefficients",
        "coefficient magnitudes span >= 1e10; solver pivot tolerances "
        "degrade — equilibrate the model (rescale_lp) or rebuild with "
        "consistent units; solve_lp_resilient retries a numerical "
        "failure once on a rescaled copy",
    ),
    "LP016": (
        Severity.WARNING,
        "row-norm-spread",
        "row infinity norms span >= 1e6 (mixed-unit rows); equilibrate "
        "the model (rescale_lp) or normalize the row producers; "
        "solve_lp_resilient retries a numerical failure once on a "
        "rescaled copy",
    ),
    # --- TP: Topology structure ------------------------------------------
    "TP001": (
        Severity.ERROR,
        "parent-cycle",
        "the parents array contains a cycle; rebuild the topology so "
        "every node reaches the root",
    ),
    "TP002": (
        Severity.ERROR,
        "orphan-node",
        "a non-sink node is unreachable from the root; reparent it or "
        "drop it from the parents array",
    ),
    "TP003": (
        Severity.ERROR,
        "unreachable-sink",
        "a sink is not connected to the root; the instance cannot route "
        "that sink — fix the parents array",
    ),
    "TP004": (
        Severity.ERROR,
        "self-parent",
        "a node lists itself as parent; fix the parents array",
    ),
    "TP005": (
        Severity.WARNING,
        "dangling-steiner",
        "a Steiner point is a leaf; it contributes nothing — run the "
        "topology through a cleanup pass or rebuild it",
    ),
    "TP006": (
        Severity.INFO,
        "pass-through-steiner",
        "a Steiner point has exactly one child; it can be contracted "
        "into its parent edge",
    ),
    "TP007": (
        Severity.WARNING,
        "duplicate-sink-location",
        "two sinks share exact coordinates; their Steiner constraint "
        "degenerates to a zero-length requirement",
    ),
    "TP008": (
        Severity.ERROR,
        "nonfinite-sink-location",
        "a sink (or the source) has a NaN/inf coordinate; fix the input "
        "placement data",
    ),
    # --- BD: DelayBounds validity ----------------------------------------
    "BD001": (
        Severity.ERROR,
        "nonfinite-bound",
        "a delay bound is NaN (or a lower bound is infinite); fix the "
        "bound vector",
    ),
    "BD002": (
        Severity.ERROR,
        "inverted-bounds",
        "a sink has l_i > u_i; swap or widen the window",
    ),
    "BD003": (
        Severity.ERROR,
        "negative-lower-bound",
        "a lower delay bound is negative; delays are path lengths and "
        "cannot be negative (Eq. 3/4)",
    ),
    "BD004": (
        Severity.ERROR,
        "bound-count-mismatch",
        "the number of bound pairs differs from the sink count; rebuild "
        "the DelayBounds for this topology",
    ),
    "BD005": (
        Severity.ERROR,
        "bounds-below-manhattan-floor",
        "an upper bound is below the Manhattan distance from the source "
        "(or below the radius for a free source); no embedding can meet "
        "it (Eq. 3/4) — raise u_i",
    ),
    "BD006": (
        Severity.WARNING,
        "float-noise-collapsed-range",
        "a range constraint arrived with lo > hi by float noise and was "
        "collapsed to an equality at the midpoint; check the upstream "
        "bound arithmetic if this is unexpected",
    ),
    "BD007": (
        Severity.INFO,
        "zero-width-window",
        "a sink has l_i == u_i (exact zero-skew pin); intentional for "
        "zero-skew runs, listed for visibility",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static verification layer."""

    code: str
    message: str
    locus: str = ""
    severity: Severity | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        if self.severity is None:
            object.__setattr__(self, "severity", CODES[self.code][0])

    @property
    def slug(self) -> str:
        return CODES[self.code][1]

    @property
    def fix_hint(self) -> str:
        return CODES[self.code][2]

    @property
    def is_error(self) -> bool:
        assert self.severity is not None
        return self.severity is Severity.ERROR

    def render(self) -> str:
        assert self.severity is not None
        where = f" [{self.locus}]" if self.locus else ""
        return (
            f"{self.code} {self.severity.value} ({self.slug}){where}: "
            f"{self.message}"
        )

    def to_dict(self) -> dict[str, str]:
        assert self.severity is not None
        return {
            "code": self.code,
            "slug": self.slug,
            "severity": self.severity.value,
            "locus": self.locus,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }

    def __str__(self) -> str:
        return self.render()


class DiagnosticWarning(UserWarning):
    """Python-warning wrapper used when no collector is active."""

    def __init__(self, diagnostic: Diagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


#: Active collector stack; ``emit`` appends to the innermost collector.
_collectors: list[list[Diagnostic]] = []


def emit(diagnostic: Diagnostic) -> None:
    """Route ``diagnostic`` to the active collector, else ``warnings``."""
    if _collectors:
        _collectors[-1].append(diagnostic)
    else:
        warnings.warn(DiagnosticWarning(diagnostic), stacklevel=3)


@contextmanager
def collect() -> Iterator[list[Diagnostic]]:
    """Collect every :func:`emit` inside the block into the yielded list."""
    sink: list[Diagnostic] = []
    _collectors.append(sink)
    try:
        yield sink
    finally:
        _collectors.pop()
