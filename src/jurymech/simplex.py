"""Dense two-phase simplex solver for payment_design.LinearProgram.

No library path calls it (``design_payments`` has a closed form).  Only
the benchmark, which times it, and its own tests import it, as
``jurymech.simplex``.

Solves  minimize c @ v  subject to  G @ v >= h,  A @ v == b,  v >= lb,
where individual lower bounds may be -inf (free variables).  Free variables
are split into positive and negative parts, surplus variables turn the
inequality rows into equalities, and phase one drives a full artificial
basis to zero before phase two optimizes the real objective.  The tableau
is written straight into one preallocated array of the real columns and
the rhs, with the reduced costs as its last row, which each pivot updates
with the other rows.  The artificial columns are never stored, because no
artificial can re-enter the basis and phase two has no use for them.
Phase two works on the same array, copied only to drop redundant rows.

Bland's smallest-index pivot rule is used in both phases, so the method
terminates on degenerate problems: the entering column is the first True
of the improving mask (its argmax), and the leaving row is the tied one
whose basic variable has the least index.  A pivot updates only the block
of rows with a nonzero entry in the entering column and columns with a
nonzero entry in the pivot row, in one broadcast statement,
``tableau[rows[:, None], cols] -= factor[rows, None] * tableau[row, cols]``;
every other cell would compute t - f*0 or t - 0*r and keep its value (a
full rank-1 update could turn its -0.0 into 0.0).
Everything is double precision with a hard pivot budget; exhausting the
budget raises instead of returning a possibly wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .payment_design import LinearProgram

_PIVOT_TOL = 1e-9  # tableau entries below this magnitude are treated as zero
_COST_TOL = 1e-9  # reduced costs above -this are non-improving
_FEAS_TOL = 1e-9  # phase-one objective above this means infeasible


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
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    # A cell outside these rows and columns would compute t - f*0 or
    # t - 0*r, which leaves it as it is, so only the block is updated.
    rows = factor.nonzero()[0]
    cols = tableau[row].nonzero()[0]
    tableau[rows[:, None], cols] -= factor[rows, None] * tableau[row, cols]
    basis[row] = col


def _iterate(
    tableau: np.ndarray,
    basis: np.ndarray,
    num_cols: int,
    budget: _Budget,
) -> SolveStatus:
    """Run simplex iterations until no reduced cost improves (OPTIMAL for the
    current objective) or an improving ray is found (UNBOUNDED)."""
    while True:
        improving = tableau[-1, :num_cols] < -_COST_TOL
        entering = int(improving.argmax())  # Bland: smallest improving index
        if not improving[entering]:
            return SolveStatus.OPTIMAL
        column = tableau[:-1, entering]
        candidates = np.nonzero(column > _PIVOT_TOL)[0]
        if candidates.size == 0:
            return SolveStatus.UNBOUNDED
        ratios = tableau[candidates, -1] / column[candidates]
        best = ratios.min()
        # Bland tie-break: among minimum ratios, leave the basic variable
        # with the smallest index.
        tied = candidates[ratios <= best + 1e-15]
        leaving = tied[basis[tied].argmin()]
        budget.spend()
        _pivot(tableau, basis, int(leaving), entering)


def solve(lp: LinearProgram, max_pivots: int = 1_000_000) -> Solution:
    """Solve the LP; statuses other than OPTIMAL carry no point."""
    n = lp.objective.shape[0]
    free = ~np.isfinite(lp.lower_bounds)
    shift = np.where(free, 0.0, lp.lower_bounds)

    num_ge = lp.ge_matrix.shape[0]
    m = num_ge + lp.eq_matrix.shape[0]
    num_free = int(free.sum())
    # Columns: shifted originals, negative parts of free vars, surplus vars,
    # then the rhs, all written into one array; rows: the m constraints,
    # then the reduced costs.  The artificial columns are never stored:
    # _iterate scans only the real ones, so no artificial re-enters the basis.
    num_real = n + num_free + num_ge
    tableau = np.zeros((m + 1, num_real + 1))
    tableau[:num_ge, :n] = lp.ge_matrix
    tableau[num_ge:m, :n] = lp.eq_matrix
    rhs = np.concatenate([lp.ge_rhs, lp.eq_rhs]) - tableau[:m, :n] @ shift
    np.negative(tableau[:m, :n][:, free], out=tableau[:m, n : n + num_free])
    np.fill_diagonal(tableau[:num_ge, n + num_free : num_real], -1.0)
    costs = np.concatenate([lp.objective, -lp.objective[free], np.zeros(num_ge + 1)])

    flip = rhs < 0.0
    tableau[:m][flip, :num_real] *= -1.0
    tableau[:m, -1] = np.abs(rhs)

    budget = _Budget(max_pivots)

    # Phase one: artificial basis (labels num_real.., no columns), minimize
    # its total size.
    basis = np.arange(num_real, num_real + m)
    for r in range(m):
        tableau[-1] -= tableau[r]
    status = _iterate(tableau, basis, num_real, budget)
    if status is not SolveStatus.OPTIMAL or -tableau[-1, -1] > _FEAS_TOL:
        return Solution(SolveStatus.INFEASIBLE, None, float("nan"))

    # Drive leftover artificials out of the (degenerate) basis.
    keep_rows = np.ones(m + 1, dtype=bool)
    for r in range(m):
        if basis[r] < num_real:
            continue
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
    tableau[-1] = costs
    for r, bv in enumerate(basis):
        tableau[-1] -= costs[bv] * tableau[r]
    status = _iterate(tableau, basis, num_real, budget)
    if status is SolveStatus.UNBOUNDED:
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
