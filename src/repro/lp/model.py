"""A small sparse LP model builder.

Models are of the form

    min  c' x
    s.t. row_i : sum_j a_ij x_j  (<= | >= | ==)  b_i
         lb_j <= x_j <= ub_j          (lb defaults to 0, ub to +inf)

which covers everything EBF needs: non-negative edge lengths, >= Steiner
constraints, range delay constraints (expressed as a >= and a <= row), and
pinned zero-length tie edges (lb = ub = 0).

Rows are stored columnarly (growing CSR-style buffers) rather than as
per-row tuples, and :meth:`LinearProgram.to_arrays` keeps an incremental
export cache: after the first export, appending rows only converts and
splits the *new* rows, so lazy row generation pays O(new nnz) per round
instead of re-walking the whole model.  Bulk row blocks produced by
vectorized builders go in through :meth:`LinearProgram.add_rows` without
any per-row Python object construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

if TYPE_CHECKING:
    from repro.lp.treesolve import TreeLpMeta


class Sense(Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


#: Relative inversion (``lo - hi``) up to which :meth:`add_range_constraint`
#: treats an inverted range as float noise and collapses it to an equality
#: (emitting a ``BD006`` diagnostic) instead of raising.  Pinned by a
#: regression test — widening it silently would mask real bound inversions.
_RANGE_COLLAPSE_RTOL = 1e-9


def _empty_split_cache() -> dict:
    return {
        "rows_done": 0,
        "ub_data": np.empty(0, dtype=np.float64),
        "ub_cols": np.empty(0, dtype=np.int32),
        "ub_ptr": np.zeros(1, dtype=np.int64),
        "ub_rhs": np.empty(0, dtype=np.float64),
        "eq_data": np.empty(0, dtype=np.float64),
        "eq_cols": np.empty(0, dtype=np.int32),
        "eq_ptr": np.zeros(1, dtype=np.int64),
        "eq_rhs": np.empty(0, dtype=np.float64),
        "mats": None,  # (a_ub, a_eq) built at mats_n columns
        "mats_n": -1,
    }


@dataclass
class LinearProgram:
    """Sparse LP model; rows/columns are appended and never removed."""

    minimize: bool = True
    _costs: list[float] = field(default_factory=list)
    _lb: list[float] = field(default_factory=list)
    _ub: list[float] = field(default_factory=list)
    _names: list[str] = field(default_factory=list)
    # Columnar row storage: row i occupies slots _row_ptr[i]:_row_ptr[i+1]
    # of _row_data/_row_cols.
    _row_data: list[float] = field(default_factory=list, repr=False)
    _row_cols: list[int] = field(default_factory=list, repr=False)
    _row_ptr: list[int] = field(default_factory=lambda: [0], repr=False)
    _row_sense: list[Sense] = field(default_factory=list, repr=False)
    _row_rhs: list[float] = field(default_factory=list, repr=False)
    _row_names: list[str] = field(default_factory=list, repr=False)
    # Incremental export cache (derived state, excluded from comparison).
    _split_cache: dict | None = field(
        default=None, repr=False, compare=False
    )
    _residual_cache: tuple | None = field(
        default=None, repr=False, compare=False
    )
    #: Tree facts stamped by ``repro.ebf.build_ebf_lp`` so the structure
    #: aware ``"tree"`` backend can re-derive the model; ``None`` for
    #: generic LPs.  Derived/advisory state: excluded from comparison.
    tree_meta: "TreeLpMeta | None" = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def add_variable(
        self,
        name: str = "",
        cost: float = 0.0,
        lb: float = 0.0,
        ub: float = math.inf,
    ) -> int:
        """Add a variable; returns its column index."""
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        self._costs.append(float(cost))
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._names.append(name or f"x{len(self._costs) - 1}")
        return len(self._costs) - 1

    def add_variables(
        self,
        count: int,
        prefix: str = "x",
        cost: float | np.ndarray = 0.0,
        first: int | None = None,
    ) -> range:
        """Add ``count`` variables on ``[0, inf)``; returns their column
        range.  ``cost`` is one cost for all or an array of ``count``;
        names are ``prefix`` and a number counting up from ``first``
        (default: the first new column)."""
        start = len(self._costs)
        costs = np.broadcast_to(np.asarray(cost, dtype=float), (count,))
        self._costs.extend(costs.tolist())
        self._lb.extend([0.0] * count)
        self._ub.extend([math.inf] * count)
        base = start if first is None else first
        self._names.extend([prefix + str(k) for k in range(base, base + count)])
        return range(start, start + count)

    def set_cost(self, var: int, cost: float) -> None:
        self._costs[var] = float(cost)

    def fix_variable(self, var: int, value: float) -> None:
        self._lb[var] = float(value)
        self._ub[var] = float(value)

    def add_constraint(
        self,
        coeffs: Mapping[int, float] | Iterable[tuple[int, float]],
        sense: Sense,
        rhs: float,
        name: str = "",
    ) -> int:
        """Add a row; duplicate variable entries are summed."""
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, float] = {}
        for j, a in items:
            if not (0 <= j < len(self._costs)):
                raise ValueError(f"constraint references unknown variable {j}")
            acc[j] = acc.get(j, 0.0) + float(a)
        for j in sorted(acc):
            self._row_cols.append(j)
            self._row_data.append(acc[j])
        self._row_ptr.append(len(self._row_cols))
        self._row_sense.append(sense)
        self._row_rhs.append(float(rhs))
        self._row_names.append(name)
        self._residual_cache = None
        return len(self._row_rhs) - 1

    def add_rows(
        self,
        data: np.ndarray,
        cols: np.ndarray,
        indptr: np.ndarray,
        sense: Sense | Sequence[Sense],
        rhs: np.ndarray,
        names: Sequence[str] | None = None,
    ) -> range:
        """Bulk-append a CSR block of rows; returns the new row indices.

        ``data``/``cols``/``indptr`` describe the block exactly as
        ``scipy.sparse.csr_matrix`` would (``indptr[0] == 0``); each row
        must already be canonical (no duplicate columns).  ``sense`` is
        one :class:`Sense` for the whole block or one per row.  This is
        the fast path for vectorized row builders — no per-row Python
        tuples are created.
        """
        data = np.asarray(data, dtype=np.float64)
        cols = np.asarray(cols, dtype=np.int64)
        indptr = np.asarray(indptr, dtype=np.int64)
        rhs = np.asarray(rhs, dtype=np.float64)
        k = len(rhs)
        if indptr.shape != (k + 1,) or (k and indptr[0] != 0):
            raise ValueError("indptr must have len(rhs) + 1 entries, starting at 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if int(indptr[-1]) != len(data) or len(data) != len(cols):
            raise ValueError("data/cols length must match indptr[-1]")
        if len(cols) and (cols.min() < 0 or cols.max() >= len(self._costs)):
            raise ValueError("row block references unknown variables")
        senses = (
            [sense] * k if isinstance(sense, Sense) else list(sense)
        )
        if len(senses) != k:
            raise ValueError("one sense per row required")
        if names is not None and len(names) != k:
            raise ValueError("one name per row required")

        start = len(self._row_rhs)
        base = self._row_ptr[-1]
        self._row_data.extend(data.tolist())
        self._row_cols.extend(cols.tolist())
        self._row_ptr.extend((base + indptr[1:]).tolist())
        self._row_sense.extend(senses)
        self._row_rhs.extend(rhs.tolist())
        self._row_names.extend(names if names is not None else [""] * k)
        self._residual_cache = None
        return range(start, start + k)

    def add_range_constraint(
        self,
        coeffs: Mapping[int, float] | Iterable[tuple[int, float]],
        lo: float,
        hi: float,
        name: str = "",
    ) -> tuple[int, ...]:
        """``lo <= a'x <= hi`` expressed as up to two rows.

        An infinite bound on either side drops the corresponding row;
        ``lo == hi`` emits a single equality.
        """
        if lo > hi:
            if lo - hi <= _RANGE_COLLAPSE_RTOL * max(1.0, abs(lo), abs(hi)):
                # Inverted only by floating-point noise (e.g. an
                # interpolated upper bound landing 1 ulp below an exact
                # lower floor): collapse to equality at the midpoint, and
                # say so — a silent collapse hides upstream bound bugs.
                from repro.check.diagnostics import Diagnostic, emit

                emit(
                    Diagnostic(
                        "BD006",
                        f"range [{lo!r}, {hi!r}] inverted by float noise; "
                        f"collapsed to equality at {0.5 * (lo + hi)!r}",
                        locus=f"row {name!r}" if name else "row",
                    )
                )
                lo = hi = 0.5 * (lo + hi)
            else:
                raise ValueError(
                    f"range constraint {name!r}: lo {lo} > hi {hi}"
                )
        items = list(coeffs.items() if isinstance(coeffs, Mapping) else coeffs)
        if lo == hi and math.isfinite(lo):
            return (self.add_constraint(items, Sense.EQ, lo, name),)
        rows = []
        if math.isfinite(lo) and lo > -math.inf:
            rows.append(self.add_constraint(items, Sense.GE, lo, f"{name}.lo"))
        if math.isfinite(hi):
            rows.append(self.add_constraint(items, Sense.LE, hi, f"{name}.hi"))
        return tuple(rows)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_variables(self) -> int:
        return len(self._costs)

    @property
    def num_constraints(self) -> int:
        return len(self._row_rhs)

    @property
    def costs(self) -> np.ndarray:
        return np.asarray(self._costs, dtype=float)

    @property
    def lower_bounds(self) -> np.ndarray:
        return np.asarray(self._lb, dtype=float)

    @property
    def upper_bounds(self) -> np.ndarray:
        return np.asarray(self._ub, dtype=float)

    @property
    def rhs(self) -> np.ndarray:
        return np.asarray(self._row_rhs, dtype=float)

    def scaled(self, s: float) -> "LinearProgram":
        """A copy with every rhs and variable bound divided by ``s``: the
        same columns, costs, rows, senses and names, and no tree stamp."""
        out = LinearProgram(minimize=self.minimize)
        for name in ("_costs", "_names", "_row_data", "_row_cols",
                     "_row_ptr", "_row_sense", "_row_names"):
            setattr(out, name, list(getattr(self, name)))
        out._lb = (self.lower_bounds / s).tolist()
        out._ub = (self.upper_bounds / s).tolist()
        out._row_rhs = (self.rhs / s).tolist()
        return out

    def variable_name(self, j: int) -> str:
        return self._names[j]

    def row_name(self, i: int) -> str:
        return self._row_names[i]

    def row_sense(self, i: int) -> Sense:
        return self._row_sense[i]

    def row(self, i: int) -> tuple[tuple[tuple[int, float], ...], Sense, float]:
        if not (0 <= i < len(self._row_rhs)):
            raise IndexError(f"row {i} out of range")
        a, b = self._row_ptr[i], self._row_ptr[i + 1]
        coeffs = tuple(
            (self._row_cols[k], self._row_data[k]) for k in range(a, b)
        )
        return coeffs, self._row_sense[i], self._row_rhs[i]

    def evaluate_row(self, i: int, x: np.ndarray) -> float:
        coeffs, _, _ = self.row(i)
        return float(sum(a * x[j] for j, a in coeffs))

    def _row_matrix(self) -> tuple["sparse.csr_matrix", np.ndarray, np.ndarray]:
        """Full row matrix (as written, no sense negation) + senses + rhs,
        cached until the row set changes."""
        m = len(self._row_rhs)
        nnz = len(self._row_data)
        n = len(self._costs)
        cached = self._residual_cache
        if cached is not None and cached[0] == (m, nnz, n):
            return cached[1], cached[2], cached[3]
        mat = sparse.csr_matrix(
            (
                np.asarray(self._row_data, dtype=np.float64),
                np.asarray(self._row_cols, dtype=np.int32),
                np.asarray(self._row_ptr, dtype=np.int64),
            ),
            shape=(m, n),
        )
        ge = np.fromiter(
            (s is Sense.GE for s in self._row_sense), dtype=bool, count=m
        )
        eq = np.fromiter(
            (s is Sense.EQ for s in self._row_sense), dtype=bool, count=m
        )
        rhs = np.asarray(self._row_rhs, dtype=np.float64)
        self._residual_cache = ((m, nnz, n), mat, (ge, eq), rhs)
        return mat, (ge, eq), rhs

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Signed feasibility slack per row (>= 0 means satisfied)."""
        mat, (ge, eq), rhs = self._row_matrix()
        lhs = mat @ np.asarray(x, dtype=float)
        out = rhs - lhs  # LE orientation
        out[ge] = lhs[ge] - rhs[ge]
        out[eq] = -np.abs(lhs[eq] - rhs[eq])
        return out

    def is_feasible(self, x: np.ndarray, tol: float = 1e-6) -> bool:
        lb, ub = self.lower_bounds, self.upper_bounds
        if np.any(x < lb - tol) or np.any(x > ub + tol):
            return False
        if not self._row_rhs:
            return True
        return bool(np.all(self.residuals(x) >= -tol))

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.costs @ x)

    # ------------------------------------------------------------------
    # matrix export (for the scipy backend)
    # ------------------------------------------------------------------
    def _advance_split_cache(self, st: dict) -> None:
        """Fold rows [st['rows_done'], num_constraints) into the cached
        <=/== split, vectorized over the whole appended slice."""
        r0, r1 = st["rows_done"], len(self._row_rhs)
        if r1 == r0:
            return
        ptr = np.asarray(self._row_ptr[r0 : r1 + 1], dtype=np.int64)
        lens = np.diff(ptr)
        k0, k1 = int(ptr[0]), int(ptr[-1])
        data = np.asarray(self._row_data[k0:k1], dtype=np.float64)
        cols = np.asarray(self._row_cols[k0:k1], dtype=np.int32)
        rhs = np.asarray(self._row_rhs[r0:r1], dtype=np.float64)
        senses = self._row_sense[r0:r1]
        is_eq = np.fromiter(
            (s is Sense.EQ for s in senses), dtype=bool, count=r1 - r0
        )
        is_ge = np.fromiter(
            (s is Sense.GE for s in senses), dtype=bool, count=r1 - r0
        )
        # GE rows are negated into <= form.
        flip_row = np.where(is_ge, -1.0, 1.0)
        elem_eq = np.repeat(is_eq, lens)
        elem_flip = np.repeat(flip_row, lens)

        ub_lens = lens[~is_eq]
        st["ub_data"] = np.concatenate(
            [st["ub_data"], (data * elem_flip)[~elem_eq]]
        )
        st["ub_cols"] = np.concatenate([st["ub_cols"], cols[~elem_eq]])
        st["ub_ptr"] = np.concatenate(
            [st["ub_ptr"], st["ub_ptr"][-1] + np.cumsum(ub_lens)]
        )
        st["ub_rhs"] = np.concatenate(
            [st["ub_rhs"], (rhs * flip_row)[~is_eq]]
        )

        eq_lens = lens[is_eq]
        st["eq_data"] = np.concatenate([st["eq_data"], data[elem_eq]])
        st["eq_cols"] = np.concatenate([st["eq_cols"], cols[elem_eq]])
        st["eq_ptr"] = np.concatenate(
            [st["eq_ptr"], st["eq_ptr"][-1] + np.cumsum(eq_lens)]
        )
        st["eq_rhs"] = np.concatenate([st["eq_rhs"], rhs[is_eq]])

        st["rows_done"] = r1
        st["mats"] = None

    def to_arrays(self, cache: bool = True) -> tuple[
        np.ndarray,
        "sparse.csr_matrix | None",
        np.ndarray | None,
        "sparse.csr_matrix | None",
        np.ndarray | None,
        list[tuple[float, float | None]],
    ]:
        """Export as ``(c, A_ub, b_ub, A_eq, b_eq, bounds)``.

        GE rows are negated into <= form.  Matrices are CSR; either may be
        ``None`` when there are no rows of that kind.

        The export is cached incrementally: appending rows between calls
        only processes the new rows (dirty tracking by row count), which
        is what makes lazy row generation cheap.  ``cache=False`` discards
        the cache and rebuilds from scratch (used by tests to validate
        the incremental path).
        """
        if not cache:
            self._split_cache = None
        st = self._split_cache
        if st is None:
            st = _empty_split_cache()
            if cache:
                self._split_cache = st
        self._advance_split_cache(st)

        n = self.num_variables
        if st["mats"] is None or st["mats_n"] != n:
            a_ub = a_eq = None
            if len(st["ub_rhs"]):
                a_ub = sparse.csr_matrix(
                    (st["ub_data"], st["ub_cols"], st["ub_ptr"]),
                    shape=(len(st["ub_rhs"]), n),
                )
            if len(st["eq_rhs"]):
                a_eq = sparse.csr_matrix(
                    (st["eq_data"], st["eq_cols"], st["eq_ptr"]),
                    shape=(len(st["eq_rhs"]), n),
                )
            st["mats"] = (a_ub, a_eq)
            st["mats_n"] = n
        a_ub, a_eq = st["mats"]
        b_ub = st["ub_rhs"] if a_ub is not None else None
        b_eq = st["eq_rhs"] if a_eq is not None else None
        bounds = [
            (lo, None if math.isinf(hi) else hi)
            for lo, hi in zip(self._lb, self._ub)
        ]
        return self.costs, a_ub, b_ub, a_eq, b_eq, bounds
