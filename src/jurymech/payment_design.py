"""LP-based payment design for homogeneous well-informed juries.

Builds the linear program whose variables are the payment table entries
p(1/n), ..., p(1): minimize the expected per-juror payment at the target
equilibrium, subject to the simple-equilibrium row differences being
non-negative and the marginal condition pinning the vote advantage at the
target value.  Payments are anchored from below (default 0) because the
constraints are invariant under adding a constant to the whole table, which
would otherwise let the objective fall without limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import AgentKind, EffortProfile, TabulatedPayment
from .simplex import LinearProgram, SolveStatus, solve


def binomial_weights(n: int, x: float) -> np.ndarray:
    """PMF of the other jurors' ground-truth votes, Binomial(n-1, x).

    Computed in log space and exponentiated, so large juries and extreme x
    do not overflow the binomial coefficients.
    """
    if n < 2:
        raise ValueError(f"need a jury of at least 2, got n={n}")
    if not 0.0 < x < 1.0:
        raise ValueError(f"vote probability must lie in (0, 1), got {x}")
    t = np.arange(n)
    return np.exp(_log_choose(n) + t * math.log(x) + (n - 1 - t) * math.log1p(-x))


def _log_choose(n: int) -> np.ndarray:
    """log C(n-1, t) for t = 0..n-1, from lgamma."""
    return math.lgamma(n) - np.array(
        [math.lgamma(k + 1) + math.lgamma(n - k) for k in range(n)]
    )


@dataclass(frozen=True)
class DesignOptions:
    lower_bound: float = 0.0  # -inf removes the anchor (and unbounds the LP)
    require_monotone: bool = False
    individual_rationality: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.lower_bound) or self.lower_bound == math.inf:
            raise ValueError("lower_bound must be a real number or -inf")


class DesignError(RuntimeError):
    """Payment design did not reach an optimal LP solution."""

    def __init__(self, status: SolveStatus) -> None:
        super().__init__(f"payment design LP ended with status {status.value}")
        self.status = status


def _check_target(n: int, x: float, profile: EffortProfile) -> None:
    if n < 2:
        raise ValueError(f"need a jury of at least 2, got n={n}")
    if not 0.5 < x < 1.0:
        raise ValueError(f"target vote fraction must lie in (1/2, 1), got {x}")
    if profile.kind is not AgentKind.WELL_INFORMED:
        raise ValueError("payment design assumes well-informed jurors")


def build_lp(
    n: int,
    x: float,
    profile: EffortProfile = EffortProfile(AgentKind.WELL_INFORMED),
    options: DesignOptions = DesignOptions(),
) -> LinearProgram:
    """Assemble the design LP over the n payment-table variables.

    Variable k (0-based) is the payment at fraction (k+1)/n.  A count of t
    ground-truth votes among the others puts a same-side juror at fraction
    (1+t)/n and an opposite-side juror at (n-t)/n.
    """
    _check_target(n, x, profile)
    z = binomial_weights(n, x)

    objective = np.zeros(n)
    equality = np.zeros(n)
    for t in range(n):
        objective[t] += x * z[t]  # voted with the t ground-truth voters
        objective[n - 1 - t] += (1.0 - x) * z[t]  # voted against them
        equality[t] += z[t]
        equality[n - 1 - t] -= z[t]

    target_advantage = 1.0 / profile.derivative(profile.inverse(x))

    ge_rows = []
    for m in range(n - 1):
        row = np.zeros(n)
        row[m + 1] += 1.0
        row[m] -= 1.0
        row[n - m - 1] += 1.0
        row[n - m - 2] -= 1.0
        ge_rows.append(row)
    if options.require_monotone:
        for k in range(n - 1):
            row = np.zeros(n)
            row[k + 1] += 1.0
            row[k] -= 1.0
            ge_rows.append(row)
    ge_rhs = [0.0] * len(ge_rows)
    if options.individual_rationality:
        # Expected payment must cover the effort spent at the equilibrium.
        ge_rows.append(objective.copy())
        ge_rhs.append(profile.inverse(x))

    return LinearProgram(
        objective=objective,
        ge_matrix=np.array(ge_rows),
        ge_rhs=np.array(ge_rhs),
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
    equilibrium with an expected x-fraction of ground-truth votes.
    """
    _check_target(n, x, profile)
    solution = solve(build_lp(n, x, profile, options))
    if solution.status is not SolveStatus.OPTIMAL:
        raise DesignError(solution.status)
    assert solution.values is not None
    return PaymentDesign(
        payment=TabulatedPayment(n, tuple(solution.values)),
        target_advantage=1.0 / profile.derivative(profile.inverse(x)),
        equilibrium_effort=profile.inverse(x),
        expected_cost=solution.objective_value,
    )
