"""Core primitives of the jury game.

A binary adjudication task is put to ``n`` jurors.  Each juror exerts an
effort ``effort >= 0`` and receives a signal that equals the ground truth
with probability given by her effort curve; with probability ``fidelity``
she casts the signal as her vote, otherwise the opposite.  The mechanism
pays a juror according to how many jurors voted the same way she did, so a
payment for a jury of ``n`` is a table whose entry k is the payment when k
jurors (k = 1..n, the payee included) voted the payee's way;
``PaymentFunction.value(n)`` returns that table.

Everything here is an immutable value type plus pure functions, so objects
can be shared freely across threads and processes.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


def _count(name: str, value: object, least: int) -> int:
    """The count rule, for jury sizes, rounds, samples, seeds and grid steps:
    any integer type that ``operator.index`` takes (numpy's too), but not bool,
    of at least ``least``, returned as a plain int."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if isinstance(value, bool) or count is None or count < least:
        raise ValueError(
            f"{name} must be a count of at least {least} (an integer >= {least}),"
            f" got {value!r}"
        )
    return count


def _real(name: str, value: object) -> float:
    """The real rule, for payments, efforts, fractions and tolerances: a
    finite ``numbers.Real`` but not bool, returned as a float."""
    if (
        not isinstance(value, numbers.Real)
        or isinstance(value, bool)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


class AgentKind(Enum):
    """Whether extra effort improves or degrades a juror's signal."""

    WELL_INFORMED = "well-informed"
    MISINFORMED = "misinformed"


@dataclass(frozen=True)
class EffortProfile:
    """Exponential signal-quality curve with a decay ``rate``.

    Well-informed: ``f(e) = 1 - exp(-rate*e)/2`` (increasing, concave).
    Misinformed:   ``f(e) = exp(-rate*e)/2``     (decreasing, convex).
    Both start at exactly 1/2 with zero effort.
    """

    kind: AgentKind
    rate: float = 1.0

    def __post_init__(self) -> None:
        # a string kind ("well-informed") becomes the enum, or raises ValueError
        object.__setattr__(self, "kind", AgentKind(self.kind))
        if not _real("rate", self.rate) > 0.0:
            raise ValueError(f"rate must be positive, got {self.rate}")

    @property
    def well_informed(self) -> bool:
        return self.kind is AgentKind.WELL_INFORMED

    def value(self, effort: float) -> float:
        """Probability of receiving the ground truth at the given effort."""
        if _real("effort", effort) < 0.0:
            raise ValueError(f"effort must be non-negative, got {effort}")
        half = math.exp(-self.rate * effort) / 2.0
        return 1.0 - half if self.well_informed else half

    def derivative(self, effort: float) -> float:
        """Slope of the signal-quality curve (negative for misinformed)."""
        if _real("effort", effort) < 0.0:
            raise ValueError(f"effort must be non-negative, got {effort}")
        slope = self.rate * math.exp(-self.rate * effort) / 2.0
        return slope if self.well_informed else -slope

    def inverse(self, quality: float) -> float:
        """Effort level that produces the given signal quality.

        Accepts the closed end 1/2 (zero effort) so that
        ``inverse(value(e)) == e`` holds on the whole domain.
        """
        if self.well_informed:
            if not 0.5 <= quality < 1.0:
                raise ValueError(
                    f"well-informed quality must lie in [1/2, 1), got {quality}"
                )
            return -math.log(2.0 * (1.0 - quality)) / self.rate
        if not 0.0 < quality <= 0.5:
            raise ValueError(
                f"misinformed quality must lie in (0, 1/2], got {quality}"
            )
        return -math.log(2.0 * quality) / self.rate


class PaymentFunction:
    """Payment table of a jury, indexed by vote count.

    ``value(n)`` returns a length-n float array whose entry k-1 is the
    payment to a juror when k of the n jurors, herself included, voted her
    way.  Counts with 2k >= n (a same-vote fraction of at least 1/2) take
    the majority branch.
    """

    def value(self, n: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ThresholdPayment(PaymentFunction):
    """Fixed reward to every majority voter, nothing to the minority."""

    reward: float

    def __post_init__(self) -> None:
        _real("reward", self.reward)

    def value(self, n: int) -> np.ndarray:
        k = np.arange(1, n + 1)
        return np.where(2 * k >= n, self.reward, 0.0)


@dataclass(frozen=True)
class AwardLossSharingPayment(PaymentFunction):
    """Majority voters share a total award; minority voters share the same
    amount as a loss."""

    total_award: float

    def __post_init__(self) -> None:
        _real("total_award", self.total_award)

    def value(self, n: int) -> np.ndarray:
        return KlerosPayment(self.total_award, self.total_award).value(n)


@dataclass(frozen=True)
class KlerosPayment(PaymentFunction):
    """Majority voters share an award, minority voters share a (possibly
    different) loss.  ``award <= loss`` is required for simple equilibria but
    is checked by the equilibrium module, not assumed here."""

    award: float
    loss: float

    def __post_init__(self) -> None:
        _real("award", self.award)
        _real("loss", self.loss)

    def value(self, n: int) -> np.ndarray:
        k = np.arange(1, n + 1)
        return np.where(2 * k >= n, self.award, -self.loss) / k


@dataclass(frozen=True)
class TabulatedPayment(PaymentFunction):
    """Payment table for one jury size (e.g. a designed payment); querying
    any other size is an error."""

    jury_size: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "jury_size", _count("jury_size", self.jury_size, 1))
        if len(self.values) != self.jury_size:
            raise ValueError(
                f"need exactly {self.jury_size} table values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(_real("values", v) for v in self.values))

    def value(self, n: int) -> np.ndarray:
        if n != self.jury_size:
            raise ValueError(
                f"table is for jury size {self.jury_size}, queried with n={n}"
            )
        return np.array(self.values)


@dataclass(frozen=True)
class Strategy:
    """A juror's play: effort spent plus the probability of casting the
    received signal as the vote (``fidelity``)."""

    effort: float
    fidelity: float

    def __post_init__(self) -> None:
        if _real("effort", self.effort) < 0.0:
            raise ValueError(f"effort must be non-negative, got {self.effort}")
        if not 0.0 <= _real("fidelity", self.fidelity) <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.fidelity}")


@dataclass(frozen=True)
class StrategyProfile:
    """Strategies for a whole jury, paired with each juror's effort curve."""

    agents: tuple[tuple[EffortProfile, Strategy], ...]

    def __post_init__(self) -> None:
        if len(self.agents) < 1:
            raise ValueError("a profile needs at least one agent")
        object.__setattr__(self, "agents", tuple(self.agents))

    @property
    def size(self) -> int:
        return len(self.agents)


def vote_probability(profile: EffortProfile, strategy: Strategy) -> float:
    """Probability this juror casts a vote for the ground truth."""
    f = profile.value(strategy.effort)
    b = strategy.fidelity
    return b * f + (1.0 - b) * (1.0 - f)


def validate_pmf(pmf: Sequence[float], n: int) -> None:
    """Check a vote-count PMF over {0, ..., n-1}: length n, entries finite
    and >= 0, total mass 1 within 1e-9."""
    if len(pmf) != n:
        raise ValueError(f"PMF must have {n} entries (counts 0..{n - 1}), got {len(pmf)}")
    if not all(_real("PMF entries", p) >= 0.0 for p in pmf):
        raise ValueError("PMF entries must be non-negative")
    total = math.fsum(pmf)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"PMF must sum to 1 within 1e-9, got {total}")


def vote_advantage(payment: PaymentFunction, n: int) -> np.ndarray:
    """Payment gain of a ground-truth vote over the opposite vote; entry m is
    the gain when exactly m of the other n-1 jurors vote for the ground
    truth."""
    table = payment.value(_count("n", n, 1))
    with np.errstate(over="ignore"):
        advantage = table - table[::-1]
    if not np.isfinite(advantage).all():
        raise ValueError(
            "vote advantage overflows: two payments differ by more than the"
            " largest float"
        )
    return advantage


def expected_vote_advantage(
    payment: PaymentFunction, pmf: Sequence[float], n: int
) -> float:
    """Expectation of :func:`vote_advantage` under a vote-count PMF."""
    validate_pmf(pmf, n)
    return math.fsum(np.asarray(pmf, dtype=float) * vote_advantage(payment, n))


def expected_utility(
    profile: EffortProfile,
    strategy: Strategy,
    payment: PaymentFunction,
    pmf: Sequence[float],
    n: int,
) -> float:
    """Expected quasilinear utility of one juror against the others' votes.

    Equals minus the effort cost, plus the expected ground-truth-vote
    payment, plus a correction proportional to the expected vote advantage
    that accounts for the juror's actual signal quality and fidelity.
    """
    adv = expected_vote_advantage(payment, pmf, n)
    pay_true = math.fsum(np.asarray(pmf, dtype=float) * payment.value(n))
    f = profile.value(strategy.effort)
    b = strategy.fidelity
    return -strategy.effort + pay_true + (b * (2.0 * f - 1.0) - f) * adv
