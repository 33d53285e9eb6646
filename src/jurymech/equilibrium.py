"""Equilibrium machinery for the jury game.

Covers the exact distribution of the other jurors' vote counts (the
Poisson-binomial of a mixed jury; the Binomial(n-1, q) of a symmetric one,
from one row kernel that ``binomial_weights`` and the symmetric scan share),
closed-form best responses, equilibrium verification, the fidelity-flip
mirror map, the simple-equilibrium payment condition, and the root finder
for symmetric equilibria of homogeneous well-informed juries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    EffortProfile,
    PaymentFunction,
    Strategy,
    StrategyProfile,
    _count,
    _real,
    expected_vote_advantage,
    vote_advantage,
    vote_probability,
)

# Cells per chunk of the array passes (the symmetric-equilibrium scan and the
# verifier's leave-one-out rows): 2**15 doubles (256 KiB) per temporary,
# whatever the grid or jury size.
_SCAN_CELLS = 2**15

# The symmetric-equilibrium search runs in unit-rate effort u = rate * e, on
# whose curve the quality is 1 - exp(-u)/2 at any rate, so that no bound
# overflows however small the rate.  It scans u in [0, _SCAN_RANGE]
# (qualities 1/2 to 1 - exp(-20)/2, none of which rounds to 1) at
# _SCAN_POINTS points and bisects every sign change until the bracket's ends
# are adjacent floats.  Its midpoint, divided by the rate, is a root only if
# verify_equilibrium accepts it (near quality 1/2 the computed g steps by
# ulps of 0.5, so a sign change can be a jump that no effort solves).
_SCAN_RANGE = 20.0
_SCAN_POINTS = 10_000


def _check_probabilities(probabilities: Sequence[float]) -> None:
    # NaN fails both comparisons; a bool passes them but is no probability
    if not all(0.0 <= p <= 1.0 and not isinstance(p, bool) for p in probabilities):
        raise ValueError("probabilities must lie in [0, 1]")


def poisson_binomial_pmf(probabilities: Sequence[float]) -> np.ndarray:
    """Exact PMF of a sum of independent Bernoulli trials, by convolution.

    O(k^2) in the number of trials; plenty for juries up to a few thousand.
    Every probability must lie in [0, 1].
    """
    _check_probabilities(probabilities)
    pmf = np.zeros(len(probabilities) + 1)
    pmf[0] = 1.0
    for p in probabilities:
        pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        pmf[0] *= 1.0 - p
    return pmf


def _log_choose(n: int) -> np.ndarray:
    """log C(n-1, t) for t = 0..n-1, from the log-factorials lf[k] = log k!."""
    lf = np.fromiter(map(math.lgamma, range(1, n + 1)), float, count=n)
    return lf[-1] - (lf + lf[::-1])


def _binomial_rows(
    qualities: Sequence[float], log_choose: np.ndarray, buffers: np.ndarray
) -> np.ndarray:
    """Binomial(n-1, x) PMFs exp(log C(n-1, t) + t log x + (n-1-t) log(1-x)),
    one row per quality x in (0, 1), written into buffers[0] and returned;
    buffers[1] takes the (n-1-t) term, and ``log_choose`` is _log_choose(n).
    Filled, then scaled in place: a broadcasting multiply buffers its inputs."""
    weights, tail = buffers
    t = np.arange(log_choose.shape[0], dtype=float)
    weights[:] = t
    weights *= np.array([[math.log(x)] for x in qualities])
    weights += log_choose
    tail[:] = t[::-1]
    tail *= np.array([[math.log1p(-x)] for x in qualities])
    weights += tail
    return np.exp(weights, out=weights)


def binomial_weights(n: int, x: float) -> np.ndarray:
    """PMF of the other jurors' ground-truth votes, Binomial(n-1, x).

    Computed in log space and exponentiated, so large juries and extreme x
    do not overflow the binomial coefficients.
    """
    n = _count("n", n, 2)
    if not 0.0 < x < 1.0:
        raise ValueError(f"vote probability must lie in (0, 1), got {x}")
    return _binomial_rows([x], _log_choose(n), np.empty((2, 1, n)))[0]


def others_vote_pmf(profile: StrategyProfile, i: int) -> np.ndarray:
    """PMF of the number of ground-truth votes among all jurors except ``i``.

    Heterogeneous jurors make this a Poisson-binomial, not a plain binomial.
    """
    if not 0 <= i < profile.size:
        raise ValueError(f"agent index {i} out of range for jury of {profile.size}")
    probs = [
        vote_probability(e, s) for j, (e, s) in enumerate(profile.agents) if j != i
    ]
    return poisson_binomial_pmf(probs)


def _leave_one_out_advantages(
    probs: list[float], advantage_table: np.ndarray
) -> list[float]:
    """Expected vote advantage of every juror against all the others, equal
    bit for bit to ``expected_vote_advantage(payment, others_vote_pmf(profile,
    i), n)`` when ``probs`` are the jurors' vote probabilities.

    Each PMF of the batch convolves all n jurors in poisson_binomial_pmf's
    order, with the left-out juror's step at probability 0: x*1.0 + y*0.0 = x
    for finite x, y >= 0, so that step changes nothing and the result is the
    leave-one-out PMF, plus one spare count that stays 0.  Leaving out any
    juror of one contiguous run of equal probability leaves the same ordered
    sequence, so the run shares one PMF, which leaves out the run's first
    juror; a symmetric profile needs one.  A step works only on the counts
    the PMFs can reach so far (zeros elsewhere stay zeros), and the PMFs go
    in chunks of about _SCAN_CELLS cells.
    """
    n = len(probs)
    run_of = [0] * n
    for j in range(1, n):
        run_of[j] = run_of[j - 1] + (probs[j] != probs[j - 1])
    # the juror each PMF leaves out: the first of its run
    firsts = np.flatnonzero(np.diff(run_of, prepend=-1))
    step = max(1, _SCAN_CELLS // (n + 1))
    advantages = []
    for first in range(0, len(firsts), step):
        left_out = firsts[first : first + step]
        # one PMF per column, so that a step's slices stay contiguous
        pmfs = np.zeros((n + 1, len(left_out)))
        pmfs[0] = 1.0
        shifted = np.empty_like(pmfs)
        for j, p in enumerate(probs):
            take = np.where(left_out == j, 0.0, p)
            # after j steps the PMFs live on counts 0..j
            np.multiply(pmfs[: j + 1], take, out=shifted[: j + 1])
            pmfs[: j + 2] *= 1.0 - take
            pmfs[1 : j + 2] += shifted[: j + 1]
        advantages += [
            math.fsum((pmf[:n] * advantage_table).tolist()) for pmf in pmfs.T
        ]
    return [advantages[r] for r in run_of]


@dataclass(frozen=True)
class BestResponse:
    """Utility-maximizing play against a fixed vote advantage.

    ``fidelity`` is None when any value in [0, 1] is optimal, which can only
    happen at zero effort (the vote is then a coin flip regardless).
    """

    effort: float
    fidelity: float | None

    def __post_init__(self) -> None:
        if self.fidelity is None and self.effort != 0.0:
            raise ValueError("fidelity can be unconstrained only at zero effort")


def best_response(profile: EffortProfile, advantage: float) -> BestResponse:
    """Closed-form best response to a known vote advantage.

    Below the activation threshold (|slope at zero| * |advantage| <= 1) no
    effort is worthwhile.  Above it, effort rises to the point where the
    marginal signal gain exactly offsets the marginal cost, and the juror
    either trusts her signal fully or inverts it fully.
    """
    drive = profile.derivative(0.0) * _real("advantage", advantage)
    if abs(drive) <= 1.0:
        return BestResponse(0.0, None)
    # two logs, because rate * |advantage| can overflow where neither does
    effort = (math.log(profile.rate) + math.log(abs(advantage) / 2.0)) / profile.rate
    return BestResponse(effort, 1.0 if drive > 0.0 else 0.0)


def best_response_to_pmf(
    profile: EffortProfile,
    payment: PaymentFunction,
    pmf: Sequence[float],
    n: int,
) -> BestResponse:
    """Best response when only the distribution of other votes is known."""
    return best_response(profile, expected_vote_advantage(payment, pmf, n))


@dataclass(frozen=True)
class AgentVerdict:
    case: str  # "a" (no effort), "b" (trust signal), "c" (invert), "invalid"
    residual: float
    ok: bool


@dataclass(frozen=True)
class EquilibriumReport:
    is_equilibrium: bool
    per_agent: tuple[AgentVerdict, ...]


def verify_equilibrium(
    profile: StrategyProfile,
    payment: PaymentFunction,
    tol: float = 1e-8,
) -> EquilibriumReport:
    """Check the first-order equilibrium conditions agent by agent.

    The case an agent must satisfy is read off her strategy: zero effort
    needs the advantage to be below the activation threshold; positive
    effort with fidelity 1 (resp. 0) needs the marginal condition
    slope * advantage = 1 (resp. -1).  Positive effort with fractional
    fidelity can never be optimal.

    Each agent's expected advantage is taken against the exact distribution
    of the other votes, the PMF ``others_vote_pmf`` gives.  All of them come
    from one batched convolution (see _leave_one_out_advantages) with one PMF
    per contiguous run of equal vote probability, so a symmetric profile
    costs O(n^2) and the worst case O(n^3); the results are bit for bit those
    of the per-agent computation.
    """
    if not _real("tol", tol) > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = profile.size
    probs = [vote_probability(e, s) for e, s in profile.agents]
    _check_probabilities(probs)
    advantages = _leave_one_out_advantages(probs, vote_advantage(payment, n))
    verdicts = []
    for (curve, strategy), adv in zip(profile.agents, advantages):
        if strategy.effort == 0.0:
            residual = max(0.0, abs(curve.derivative(0.0) * adv) - 1.0)
            verdicts.append(AgentVerdict("a", residual, residual <= tol))
        elif strategy.fidelity == 1.0:
            residual = abs(curve.derivative(strategy.effort) * adv - 1.0)
            verdicts.append(AgentVerdict("b", residual, residual <= tol))
        elif strategy.fidelity == 0.0:
            residual = abs(curve.derivative(strategy.effort) * adv + 1.0)
            verdicts.append(AgentVerdict("c", residual, residual <= tol))
        else:
            verdicts.append(AgentVerdict("invalid", math.inf, False))
    return EquilibriumReport(all(v.ok for v in verdicts), tuple(verdicts))


def mirror(profile: StrategyProfile) -> StrategyProfile:
    """Flip every fidelity to 1 - fidelity, keeping efforts.

    Maps each equilibrium to the equilibrium that is biased toward the
    opposite alternative; an involution.
    """
    return StrategyProfile(
        tuple(
            (curve, Strategy(s.effort, 1.0 - s.fidelity))
            for curve, s in profile.agents
        )
    )


def satisfies_simple_condition(payment: PaymentFunction, n: int) -> bool:
    """Sufficient payment condition for all equilibria to be simple: the vote
    advantage must be non-decreasing in the others' count.  Exact, with no
    tolerance to depend on the unit of payment: rounding is monotone, so a
    nondecreasing table p gives fl(p[m+1] - p[n-2-m]) >= fl(p[m] - p[n-1-m]),
    and fl(y - x) == -fl(x - y) keeps the advantage antisymmetric bit for bit."""
    return bool(np.all(np.diff(vote_advantage(payment, _count("n", n, 2))) >= 0.0))


def is_monotone_nondecreasing(payment: PaymentFunction, n: int) -> bool:
    """Whether payments never drop as the same-vote count grows.  Exact, with
    no tolerance: a rounded difference has the sign of the true one."""
    return bool(np.all(np.diff(payment.value(_count("n", n, 2))) >= 0.0))


def is_simple_profile(profile: StrategyProfile) -> bool:
    """True when every juror's ground-truth-vote probability sits on the
    same side of 1/2 (probabilities of exactly 1/2 count as both sides)."""
    probs = [vote_probability(e, s) for e, s in profile.agents]
    return all(p >= 0.5 for p in probs) or all(p <= 0.5 for p in probs)


def _scan_values(
    rate: float,
    advantage_table: np.ndarray,
    log_choose: np.ndarray,
    grid: np.ndarray,
) -> np.ndarray:
    """g = slope * E[advantage] - 1 at every unit-rate effort u of ``grid``,
    for well-informed jurors of the given rate at effort u / rate: the
    quality is the unit-rate curve's at u, the slope is rate times its slope
    there, and the other n-1 jurors' ground-truth votes ~ Binomial(n-1,
    quality).

    The weights are binomial_weights' bit for bit (one kernel), and
    ``log_choose`` is _log_choose(n), computed once per search.  Grid points
    go in chunks of about _SCAN_CELLS weights, so no temporary grows with the
    grid.  Every quality must lie below 1.
    """
    n = advantage_table.shape[0]
    values = np.empty(grid.shape[0])
    step = max(1, _SCAN_CELLS // n)
    # two buffers, reused by every chunk: the weights and the (n-1-t) term
    buffers = np.empty((2, min(step, grid.shape[0]), n))
    for start in range(0, grid.shape[0], step):
        # h = exp(-u)/2: the quality is 1 - h and the unit-rate slope h
        halves = [math.exp(-u) / 2.0 for u in grid[start : start + step].tolist()]
        quality = [1.0 - h for h in halves]
        weights = _binomial_rows(quality, log_choose, buffers[:, : len(halves)])
        slope = rate * np.array(halves)
        values[start : start + len(halves)] = slope * (weights @ advantage_table) - 1.0
    return values


def find_symmetric_equilibria(
    profile: EffortProfile, payment: PaymentFunction, n: int
) -> list[float]:
    """Positive efforts at which everyone playing (effort, fidelity 1) is an
    equilibrium of a homogeneous well-informed jury.

    Scans g = slope * advantage - 1 over unit-rate efforts u in [0, 20] for
    brackets and bisects them all at once; the scan and each bisection step
    are one _scan_values pass.  A bracket is a grid cell whose end values
    have strictly opposite signs, or a positive grid point where g is
    exactly 0, kept as a bracket of width 0.  Each is bisected until its
    midpoint rounds to one of its ends, so g changes sign between adjacent
    floats there; the effort midpoint / rate is a root only if
    verify_equilibrium accepts everyone playing it.  The brackets are
    disjoint, so the roots are distinct; they are returned largest first,
    and empty when g stays negative (no payment large enough to activate
    effort).
    """
    if not profile.well_informed:
        raise ValueError("symmetric-equilibrium search assumes well-informed jurors")
    n = _count("n", n, 2)
    rate = profile.rate
    table = vote_advantage(payment, n)
    log_choose = _log_choose(n)
    grid = np.linspace(0.0, _SCAN_RANGE, _SCAN_POINTS)
    values = _scan_values(rate, table, log_choose, grid)
    neg, pos = values < 0.0, values > 0.0
    k = np.flatnonzero(
        ((values[:-1] == 0.0) & (grid[:-1] > 0.0))
        | (neg[:-1] & pos[1:])
        | (pos[:-1] & neg[1:])
    )
    # a grid zero is a bracket of width 0, which never enters the loop
    j = k + (values[k] != 0.0)
    # lo only moves to midpoints of its own sign, so that sign is all it keeps
    lo, hi, lo_neg = grid[k], grid[j], neg[k]
    mid = 0.5 * (lo + hi)
    while (active := np.flatnonzero((lo < mid) & (mid < hi))).size:
        g_mid = _scan_values(rate, table, log_choose, mid[active])
        # a midpoint with g exactly 0 closes its bracket there
        zero = g_mid == 0.0
        left = zero | (lo_neg[active] == (g_mid < 0.0))
        right = zero | ~left
        lo[active[left]] = mid[active[left]]
        hi[active[right]] = mid[active[right]]
        mid = 0.5 * (lo + hi)
    # disjoint brackets in ascending order give distinct ascending roots
    efforts = (mid[::-1] / rate).tolist()
    plays = (StrategyProfile(((profile, Strategy(e, 1.0)),) * n) for e in efforts)
    return [e for e, p in zip(efforts, plays) if verify_equilibrium(p, payment).is_equilibrium]
