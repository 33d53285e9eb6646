"""Dense two-phase simplex solver for payment_design.LinearProgram.

No library path calls it (``design_payments`` has a closed form): only the
benchmark, which times it, and its tests import it.

Solves  minimize c @ v  subject to  G @ v >= h,  A @ v == b,  v >= lb,
where lower bounds may be -inf (free variables).  Free variables are split
into positive and negative parts, surplus variables turn the inequality
rows into equalities, and phase one drives a full artificial basis to zero
before phase two optimizes the real objective.  The tableau is one array
of the real columns and the rhs, its last row the reduced costs, which one
helper, _set_cost_row, fills in both phases and each pivot updates.  The
artificial columns are never stored, as no artificial can re-enter the
basis; phase two copies the array only to drop redundant rows.

Bland's rule is used in both phases, so degenerate problems terminate:
the entering column is the first True of the improving mask, the leaving
row the tied one whose basic variable has the least index (_iterate skips
the ratios for a lone candidate, the argmin for a lone tie).  A pivot
updates only the block of rows with a nonzero entry in the entering column
and columns with one in the pivot row, in one broadcast statement on the
block's flat indices into the C-contiguous tableau: any other cell would
compute t - f*0 or t - 0*r and keep its value (a full rank-1 update could
turn its -0.0 into 0.0).  Double precision throughout, with a hard budget
of one unit per pivot; exhausting it raises instead of a possibly wrong
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import _count
from .payment_design import LinearProgram

_PIVOT_TOL = 1e-9  # tableau entries below this magnitude are treated as zero
_COST_TOL = 1e-9  # reduced costs above -this are non-improving
_FEAS_TOL = 1e-9  # phase-one objective above this means infeasible
_COST_CHUNK = 64  # row products per subtract.reduce in _set_cost_row


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class PivotLimitError(RuntimeError):
    """Pivot budget exhausted before the solver reached a conclusion."""


@dataclass(frozen=True)
class Solution:
    status: SolveStatus
    values: np.ndarray | None
    objective_value: float


class _Budget:
    def __init__(self, pivots: int) -> None:
        self.left = pivots

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise PivotLimitError("simplex pivot budget exhausted")


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    rows, cols = factor.nonzero()[0], pivot_row.nonzero()[0]
    cells = (rows * tableau.shape[1])[:, None] + cols  # flat, as reshape(-1) is a view
    tableau.reshape(-1)[cells] -= factor[rows][:, None] * pivot_row[cols]
    basis[row] = col


def _iterate(
    tableau: np.ndarray, basis: np.ndarray, num_cols: int, budget: _Budget
) -> SolveStatus:
    """Pivot until no reduced cost improves (OPTIMAL for the current
    objective) or an improving ray is found (UNBOUNDED); a lone candidate row
    leaves without a ratio, a lone tied row without the basis argmin."""
    costs, rhs, body = tableau[-1, :num_cols], tableau[:-1, -1], tableau[:-1]
    while True:
        improving = costs < -_COST_TOL
        entering = int(improving.argmax())  # Bland: smallest improving index
        if not improving[entering]:
            return SolveStatus.OPTIMAL
        column = body[:, entering]
        candidates = (column > _PIVOT_TOL).nonzero()[0]
        if candidates.size == 0:
            return SolveStatus.UNBOUNDED
        leaving = candidates[0]
        if candidates.size > 1:
            # Bland tie-break: of the least ratios, the least basic index leaves
            ratios = rhs[candidates] / column[candidates]
            tied = candidates[ratios <= np.minimum.reduce(ratios) + 1e-15]
            leaving = tied[0] if tied.size == 1 else tied[basis[tied].argmin()]
        budget.spend()
        _pivot(tableau, basis, int(leaving), entering)


def _set_cost_row(tableau: np.ndarray, start, weights: np.ndarray) -> None:
    """Set tableau[-1] = start - weights[0] * tableau[0] - weights[1] * tableau[1]
    - ... bit for bit as a row-by-row loop would: subtract.reduce runs in row
    order over a stack of the running row and up to _COST_CHUNK row products."""
    stack = np.empty((_COST_CHUNK + 1, tableau.shape[1]))
    tableau[-1] = start
    for first in range(0, weights.shape[0], _COST_CHUNK):
        chunk = weights[first : first + _COST_CHUNK]
        block = stack[: len(chunk) + 1]
        block[0] = tableau[-1]
        np.multiply(chunk[:, None], tableau[first : first + len(chunk)], out=block[1:])
        np.subtract.reduce(block, axis=0, out=tableau[-1])


def solve(lp: LinearProgram, max_pivots: int = 1_000_000) -> Solution:
    """Solve the LP; statuses other than OPTIMAL carry no point."""
    budget = _Budget(_count("max_pivots", max_pivots, 0))
    n = lp.objective.shape[0]
    free = ~np.isfinite(lp.lower_bounds)
    shift = np.where(free, 0.0, lp.lower_bounds)

    num_ge = lp.ge_matrix.shape[0]
    m = num_ge + lp.eq_matrix.shape[0]
    num_free = int(free.sum())
    # Columns: shifted originals, negative parts of free vars, surplus vars,
    # then the rhs; rows: the m constraints, then the reduced costs.
    num_real = n + num_free + num_ge
    tableau = np.zeros((m + 1, num_real + 1))
    tableau[:num_ge, :n] = lp.ge_matrix
    tableau[num_ge:m, :n] = lp.eq_matrix
    rhs = np.concatenate([lp.ge_rhs, lp.eq_rhs]) - tableau[:m, :n] @ shift
    np.negative(tableau[:m, :n][:, free], out=tableau[:m, n : n + num_free])
    np.fill_diagonal(tableau[:num_ge, n + num_free : num_real], -1.0)
    costs = np.concatenate([lp.objective, -lp.objective[free], np.zeros(num_ge + 1)])
    tableau[:m][rhs < 0.0, :num_real] *= -1.0
    tableau[:m, -1] = np.abs(rhs)

    # Phase one: artificial basis (labels num_real.., no columns), minimize its sum.
    basis = np.arange(num_real, num_real + m)
    _set_cost_row(tableau, 0.0, np.ones(m))
    status = _iterate(tableau, basis, num_real, budget)
    if status is not SolveStatus.OPTIMAL or -tableau[-1, -1] > _FEAS_TOL:
        return Solution(SolveStatus.INFEASIBLE, None, float("nan"))

    # Drive leftover artificials out of the (degenerate) basis.
    keep_rows = np.ones(m + 1, dtype=bool)
    for r in np.flatnonzero(basis >= num_real):
        pivots = np.nonzero(np.abs(tableau[r, :num_real]) > _PIVOT_TOL)[0]
        if pivots.size:
            budget.spend()
            _pivot(tableau, basis, r, int(pivots[0]))
        else:
            keep_rows[r] = False  # redundant constraint
    if not keep_rows.all():
        tableau = tableau[keep_rows]
        basis = basis[keep_rows[:-1]]

    # Phase two: the real objective over the feasible basis found above.
    _set_cost_row(tableau, costs, costs[basis])
    if _iterate(tableau, basis, num_real, budget) is SolveStatus.UNBOUNDED:
        return Solution(SolveStatus.UNBOUNDED, None, float("nan"))

    extended = np.zeros(num_real)
    extended[basis] = np.maximum(tableau[:-1, -1], 0.0)
    values = shift + extended[:n]
    values[free] -= extended[n : n + num_free]

    _check_feasible(lp, values)
    return Solution(SolveStatus.OPTIMAL, values, float(lp.objective @ values))


def _check_feasible(lp: LinearProgram, values: np.ndarray) -> None:
    # Guard against silent numerical collapse; tests pin the tight 1e-9.
    guard = 1e-7
    if lp.ge_matrix.size and np.min(lp.ge_matrix @ values - lp.ge_rhs) < -guard:
        raise RuntimeError("simplex returned a point violating an inequality")
    if lp.eq_matrix.size and np.max(np.abs(lp.eq_matrix @ values - lp.eq_rhs)) > guard:
        raise RuntimeError("simplex returned a point violating an equality")
    finite = np.isfinite(lp.lower_bounds)
    if np.any(values[finite] < lp.lower_bounds[finite] - guard):
        raise RuntimeError("simplex returned a point violating a bound")
