"""Brute-force oracles and random inputs shared by the test modules.

Each oracle computes its quantity the slow, obvious way: a grid search
over strategies, an enumeration of every vote vector, a scan of random
feasible tables.
"""

import itertools
import math

import numpy as np

from jurymech.equilibrium import best_response_to_pmf
from jurymech.model import (
    AgentKind,
    AwardLossSharingPayment,
    EffortProfile,
    KlerosPayment,
    TabulatedPayment,
    ThresholdPayment,
    expected_vote_advantage,
)
from jurymech.payment_design import DesignOptions, binomial_weights

WELL = EffortProfile(AgentKind.WELL_INFORMED)
MIS = EffortProfile(AgentKind.MISINFORMED)

# The option sets the design tests run, by name.
DESIGN_OPTIONS = {
    "plain": DesignOptions(),
    "monotone": DesignOptions(require_monotone=True),
    "ir": DesignOptions(individual_rationality=True),
    "ir-below-zero": DesignOptions(lower_bound=-5.0, individual_rationality=True),
}


def random_curve(rng, rates=(0.3, 3.0)) -> EffortProfile:
    kind = AgentKind.WELL_INFORMED if rng.random() < 0.5 else AgentKind.MISINFORMED
    return EffortProfile(kind, rate=float(rng.uniform(*rates)))


def random_payment(rng, n: int, table_spread: float = 5.0):
    pick = int(rng.integers(4))
    if pick == 0:
        return ThresholdPayment(float(rng.uniform(0.0, 6.0)))
    if pick == 1:
        return AwardLossSharingPayment(float(rng.uniform(0.0, 3.0 * n)))
    if pick == 2:
        return KlerosPayment(float(rng.uniform(0.0, 2.0 * n)), float(rng.uniform(0.0, 2.0 * n)))
    return TabulatedPayment(n, tuple(rng.uniform(-table_spread, table_spread, size=n)))


def _utility(quality, effort, fidelity, pay_true, advantage):
    return -effort + pay_true + (fidelity * (2 * quality - 1) - quality) * advantage


def best_response_shortfall(curve, payment, pmf, n: int) -> float:
    """How far the best expected utility on a strategy grid (efforts 0,
    0.001, ..., 5 and fidelities 0 and 1) lies above the utility of
    ``best_response_to_pmf``'s answer.  A right closed form falls short of
    the grid by at most the grid's resolution."""
    table = payment.value(n)
    pay_true = math.fsum(p * table[t] for t, p in enumerate(pmf))
    advantage = expected_vote_advantage(payment, pmf, n)
    efforts = np.arange(0.0, 5.0 + 1e-12, 1e-3)
    half = np.exp(-curve.rate * efforts) / 2.0
    quality = 1.0 - half if curve.kind is AgentKind.WELL_INFORMED else half
    grid_best = max(
        float(_utility(quality, efforts, fidelity, pay_true, advantage).max())
        for fidelity in (0.0, 1.0)
    )
    br = best_response_to_pmf(curve, payment, pmf, n)
    fidelity = 0.5 if br.fidelity is None else br.fidelity
    attained = _utility(curve.value(br.effort), br.effort, fidelity, pay_true, advantage)
    return grid_best - attained


def enumerated_pmf(probs: list[float]) -> np.ndarray:
    """Law of the number of 1s among independent votes, one per entry of
    ``probs`` (the probability of a 1), by summing over all 2^len vectors."""
    pmf = np.zeros(len(probs) + 1)
    for votes in itertools.product((0, 1), repeat=len(probs)):
        weight = 1.0
        for vote, p in zip(votes, probs):
            weight *= p if vote else 1.0 - p
        pmf[sum(votes)] += weight
    return pmf


def scaled_candidates(rng, n: int, x: float, target: float, count: int = 100):
    """``count`` random increasing tables, each scaled to the vote advantage
    ``target`` at Binomial(n-1, x) votes of the others: feasible points of
    the plain design LP build_lp(n, x)."""
    weights = binomial_weights(n, x)
    for candidate in np.cumsum(rng.uniform(0.05, 1.0, size=(count, n)), axis=1):
        advantage = expected_vote_advantage(TabulatedPayment(n, tuple(candidate)), weights, n)
        assert advantage > 0.0
        yield candidate * (target / advantage)
