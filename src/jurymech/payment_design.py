"""Cheapest payment design for homogeneous well-informed juries.

The design problem is a linear program over the payment table entries
p_1, ..., p_n, where p_k is paid when k jurors voted the payee's way:
minimize the expected per-juror payment at the target equilibrium, subject
to the simple-equilibrium row differences being non-negative and the
marginal condition pinning the vote advantage at the target value.
Payments are anchored from below (default 0) because the constraints are
invariant under adding a constant to the whole table, which would otherwise
let the objective fall without limit.  ``build_lp`` states that program, a
``LinearProgram`` over Binomial(n-1, x) weights.

``design_payments`` solves it in closed form.  A table that steps up by R
once at least s+1 jurors voted a juror's way costs R * C(s) above its base
and has advantage R * W(s), where C and W are tail sums of the objective
and equality rows; the cheapest step is the s minimising C(s) / W(s), and
it pays only on the most informative outcomes (Innes, J. Econ. Theory 52,
1990).  The step table is nondecreasing, so the monotone rows hold too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import binomial_weights, check_work_budget
from .model import AgentKind, EffortProfile, TabulatedPayment, _count, _real


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective @ v  s.t.  ge_matrix @ v >= ge_rhs,  eq_matrix @ v
    == eq_rhs,  v >= lower_bounds (-inf allowed; all else must be finite)."""

    objective: np.ndarray
    ge_matrix: np.ndarray
    ge_rhs: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower_bounds: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        n = c.shape[0]
        g = np.asarray(self.ge_matrix, dtype=float).reshape(-1, n)
        h = np.asarray(self.ge_rhs, dtype=float).reshape(-1)
        a = np.asarray(self.eq_matrix, dtype=float).reshape(-1, n)
        b = np.asarray(self.eq_rhs, dtype=float).reshape(-1)
        lb = np.asarray(self.lower_bounds, dtype=float).reshape(-1)
        if g.shape[0] != h.shape[0] or a.shape[0] != b.shape[0] or lb.shape[0] != n:
            raise ValueError("inconsistent LP dimensions")
        if np.any(np.isposinf(lb)) or np.any(np.isnan(lb)):
            raise ValueError("lower bounds must be finite or -inf")
        for name, arr in (("objective", c), ("ge", g), ("rhs", h), ("eq", a), ("eq rhs", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "ge_matrix", g)
        object.__setattr__(self, "ge_rhs", h)
        object.__setattr__(self, "eq_matrix", a)
        object.__setattr__(self, "eq_rhs", b)
        object.__setattr__(self, "lower_bounds", lb)


@dataclass(frozen=True)
class DesignOptions:
    lower_bound: float = 0.0  # -inf removes the anchor (and unbounds the LP)
    require_monotone: bool = False
    individual_rationality: bool = False

    def __post_init__(self) -> None:
        if self.lower_bound != -math.inf:
            object.__setattr__(self, "lower_bound", _real("lower_bound", self.lower_bound))


class DesignError(RuntimeError):
    """The design LP has no optimum; ``status`` says why ("unbounded")."""

    def __init__(self, status: str) -> None:
        super().__init__(f"payment design LP ended with status {status}")
        self.status = status


# Steps whose cost per unit of advantage lies within this relative distance
# of the least one count as tied; among them the one with the most advantage
# per unit of payout wins, which gives the smallest payout.
_TIE_TOL = 1e-9


def _design_problem(
    n: int, x: float, profile: EffortProfile
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Check the target; return the equilibrium effort, the target advantage
    and the LP's objective and equality rows over the n table entries.

    A count of t ground-truth votes among the others, with weight z[t],
    puts a same-side juror on entry t and an opposite-side juror on entry
    n-1-t.  So entry t costs x z[t] + (1-x) z[n-1-t] in expectation and adds
    z[t] - z[n-1-t] to the vote advantage.  Past check_work_budget's budget
    for its n log-factorials and n weights it raises before either.
    """
    check_work_budget("payment design", n, 2 * _count("n", n, 2))
    if not 0.5 < x < 1.0:
        raise ValueError(f"target vote fraction must lie in (1/2, 1), got {x}")
    if profile.kind is not AgentKind.WELL_INFORMED:
        raise ValueError("payment design assumes well-informed jurors")
    effort = profile.inverse(x)
    z = binomial_weights(n, x)
    objective, equality = x * z + (1.0 - x) * z[::-1], z - z[::-1]
    return effort, 1.0 / profile.derivative(effort), objective, equality


def build_lp(
    n: int,
    x: float,
    profile: EffortProfile = EffortProfile(AgentKind.WELL_INFORMED),
    options: DesignOptions = DesignOptions(),
) -> LinearProgram:
    """Assemble the design LP over the n payment-table variables.

    Variable k (0-based) is the payment when k+1 jurors voted the payee's
    way.  Row m of the simple condition asks
    p[m+1] - p[m] + p[n-1-m] - p[n-2-m] >= 0.  Past check_work_budget's
    budget for its constraint cells it raises before any matrix is built.
    """
    effort, target_advantage, objective, equality = _design_problem(n, x, profile)
    # n cells in each of the n - 1 simple rows, as many monotone ones, the
    # individual-rationality row and the equality row
    rows = (n - 1) * (1 + options.require_monotone) + options.individual_rationality + 1
    check_work_budget("design LP", n, rows * n, "constraint cells")

    # diff[m] @ p is p[m+1] - p[m]
    diff = np.eye(n - 1, n, k=1) - np.eye(n - 1, n)
    ge_rows = [diff - diff[:, ::-1]]
    if options.require_monotone:
        ge_rows.append(diff)
    if options.individual_rationality:
        # Expected payment must cover the effort spent at the equilibrium.
        ge_rows.append(objective.reshape(1, -1))
    ge_matrix = np.vstack(ge_rows)
    ge_rhs = np.zeros(ge_matrix.shape[0])
    if options.individual_rationality:
        ge_rhs[-1] = effort

    return LinearProgram(
        objective=objective,
        ge_matrix=ge_matrix,
        ge_rhs=ge_rhs,
        eq_matrix=equality.reshape(1, -1),
        eq_rhs=np.array([target_advantage]),
        lower_bounds=np.full(n, options.lower_bound),
    )


@dataclass(frozen=True)
class PaymentDesign:
    """A designed payment table plus the quantities it was built to hit."""

    payment: TabulatedPayment
    target_advantage: float
    equilibrium_effort: float
    expected_cost: float


def design_payments(
    n: int,
    x: float,
    profile: EffortProfile = EffortProfile(AgentKind.WELL_INFORMED),
    options: DesignOptions = DesignOptions(),
) -> PaymentDesign:
    """Design the cheapest payment table inducing the target equilibrium.

    The returned table makes everyone playing (inverse(x), fidelity 1) an
    equilibrium with an expected x-fraction of ground-truth votes.  It is
    ``build_lp``'s optimum: the step of least C(s) / W(s), paying
    A / W(s) for the target advantage A, on a base of the lower bound,
    raised under individual rationality until the expected payment covers
    the effort.

    Raises DesignError (unbounded) for an unanchored table without
    individual rationality, and ValueError past check_work_budget's budget
    or when no step's advantage or payout is representable in double
    precision.
    """
    effort, target_advantage, objective, equality = _design_problem(n, x, profile)
    if options.lower_bound == -math.inf and not options.individual_rationality:
        raise DesignError("unbounded")

    cost = np.cumsum(objective[::-1])[::-1]  # C(s), the step's expected cost
    advantage = np.cumsum(equality[::-1])[::-1]  # W(s), the step's advantage
    # Step 0 is the constant table.  At or below this floor W has lost
    # precision to underflow, and A / W is at the edge of overflow.
    steps = 1 + np.flatnonzero(advantage[1:] > n * np.finfo(float).tiny)
    if steps.size == 0:
        raise ValueError(f"no payment step at n={n}, x={x} has a representable advantage")
    ratio = cost[steps] / advantage[steps]
    tied = steps[ratio <= ratio.min() * (1.0 + _TIE_TOL)]
    step = int(tied[np.argmax(advantage[tied])])
    payout = target_advantage / float(advantage[step])
    if not math.isfinite(payout):
        raise ValueError(f"the payout of the cheapest step at n={n}, x={x} is not finite")

    step_cost = payout * float(cost[step])
    base = options.lower_bound
    if options.individual_rationality:
        base = max(base, effort - step_cost)
    table = np.full(n, base)
    table[step:] += payout
    return PaymentDesign(
        payment=TabulatedPayment(n, tuple(table.tolist())),
        target_advantage=target_advantage,
        equilibrium_effort=effort,
        expected_cost=base + step_cost,
    )
