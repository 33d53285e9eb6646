import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from jurymech.equilibrium import satisfies_simple_condition, verify_equilibrium
from jurymech.model import (
    AgentKind,
    EffortProfile,
    Strategy,
    StrategyProfile,
    TabulatedPayment,
    expected_vote_advantage,
)
from jurymech.payment_design import (
    DesignOptions,
    binomial_weights,
    build_lp,
    design_payments,
)
from oracles import DESIGN_OPTIONS, WELL


class TestBinomialWeights:
    def test_small_cases(self):
        assert binomial_weights(3, 0.75) == pytest.approx(
            [0.0625, 0.375, 0.5625], abs=1e-15
        )
        assert binomial_weights(2, 0.5) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_large_case_mass_and_mode(self):
        weights = binomial_weights(101, 0.9)
        assert abs(weights.sum() - 1.0) <= 1e-12
        assert int(np.argmax(weights)) == 90

    def test_against_ratio_recurrence(self):
        n, x = 101, 0.9
        weights = binomial_weights(n, x)
        for t in range(n - 1):
            ratio = ((n - 1 - t) / (t + 1)) * (x / (1.0 - x))
            assert weights[t + 1] == pytest.approx(weights[t] * ratio, rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_weights(3, 0.0)
        with pytest.raises(ValueError):
            binomial_weights(3, 1.0)
        with pytest.raises(ValueError):
            binomial_weights(1, 0.5)


class TestBuildLp:
    def test_equality_rhs_is_inverse_slope(self):
        lp = build_lp(3, 0.75)
        assert lp.eq_rhs[0] == pytest.approx(4.0, abs=1e-10)
        # independent route: slope of the curve at the inverse point
        assert lp.eq_rhs[0] == pytest.approx(
            1.0 / WELL.derivative(WELL.inverse(0.75)), abs=1e-12
        )

    def test_row_counts(self):
        lp = build_lp(3, 0.75)
        assert lp.ge_matrix.shape == (2, 3)
        assert lp.eq_matrix.shape == (1, 3)
        lp = build_lp(11, 0.6, options=DesignOptions(require_monotone=True))
        assert lp.ge_matrix.shape == (10 + 10, 11)
        lp = build_lp(11, 0.6, options=DesignOptions(individual_rationality=True))
        assert lp.ge_matrix.shape == (11, 11)

    def test_middle_variable_cancels_in_equality(self):
        # odd jury: the count (n-1)/2 puts both vote sides on the middle
        # variable, so its equality coefficient cancels to zero
        for n in (3, 11, 51):
            lp = build_lp(n, 0.75)
            middle = (n - 1) // 2
            assert lp.eq_matrix[0][middle] == pytest.approx(0.0, abs=1e-15)

    def test_objective_is_total_expected_payment(self):
        n, x = 11, 0.75
        lp = build_lp(n, x)
        z = binomial_weights(n, x)
        rng = np.random.default_rng(2)
        values = rng.uniform(0.0, 5.0, size=n)
        table = TabulatedPayment(n, tuple(values))
        p = table.value(n)
        direct = x * sum(z[t] * p[t] for t in range(n)) + (1 - x) * sum(
            z[t] * p[n - 1 - t] for t in range(n)
        )
        assert lp.objective @ values == pytest.approx(direct, abs=1e-12)

    def test_target_domain(self):
        with pytest.raises(ValueError):
            build_lp(11, 0.5)
        with pytest.raises(ValueError):
            build_lp(11, 1.0)
        with pytest.raises(ValueError):
            build_lp(11, 0.75, EffortProfile(AgentKind.MISINFORMED))
        for design in (build_lp, design_payments):
            with pytest.raises(ValueError, match="at least 2"):
                design(1, 0.75)

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_lower_bound_must_be_real_or_minus_inf(self, bound):
        with pytest.raises(ValueError, match="lower_bound"):
            DesignOptions(lower_bound=bound)
        with pytest.raises(ValueError, match="lower_bound"):
            DesignOptions(lower_bound=True)
        # an int bound is stored as a float, so the table can take the step
        assert design_payments(11, 0.75, options=DesignOptions(lower_bound=1)) == (
            design_payments(11, 0.75, options=DesignOptions(lower_bound=1.0))
        )
        lp = build_lp(3, 0.75)
        with pytest.raises(ValueError, match="lower bounds"):
            dataclasses.replace(lp, lower_bounds=np.array([0.0, bound, 0.0]))


class TestDesignPayments:
    def test_advantage_matches_independent_route(self):
        design = design_payments(11, 0.75)
        weights = binomial_weights(11, 0.75)
        advantage = expected_vote_advantage(design.payment, weights, 11)
        assert advantage == pytest.approx(4.0, abs=1e-8)
        assert design.target_advantage == pytest.approx(4.0, abs=1e-12)
        assert design.equilibrium_effort == pytest.approx(math.log(2), abs=1e-12)

    def test_design_satisfies_simple_condition(self):
        for n, x in ((5, 0.6), (11, 0.75), (21, 0.9)):
            design = design_payments(n, x)
            assert satisfies_simple_condition(design.payment, n)

    def test_monotone_option_cannot_be_cheaper(self):
        # the cheapest table is a nondecreasing step, so the monotone rows
        # of the LP cut nothing off: the same table at the same cost
        for n in (11, 51, 201):
            for x in (0.51, 0.75, 0.99):
                base = design_payments(n, x)
                constrained = design_payments(n, x, options=DESIGN_OPTIONS["monotone"])
                assert constrained.payment == base.payment
                assert constrained.expected_cost == base.expected_cost

    def test_individual_rationality_floor(self):
        design = design_payments(
            9, 0.7, options=DesignOptions(individual_rationality=True)
        )
        assert design.expected_cost >= WELL.inverse(0.7) - 1e-9

    def test_closed_form_target_for_unit_rate(self):
        for x in (0.51, 0.6, 0.75, 0.9, 0.99):
            target = 1.0 / WELL.derivative(WELL.inverse(x))
            assert target == pytest.approx(1.0 / (1.0 - x), abs=1e-10 / (1 - x))

    def test_shift_invariance_of_constraints(self):
        n, x = 11, 0.75
        lp = build_lp(n, x)
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 3.0, size=n)
        shifted = values + 17.5
        assert lp.ge_matrix @ values == pytest.approx(lp.ge_matrix @ shifted, abs=1e-12)
        assert (lp.eq_matrix @ values)[0] == pytest.approx(
            (lp.eq_matrix @ shifted)[0], abs=1e-12
        )


DESIGN_GRID = [
    (n, kind, x)
    for n in (11, 51, 61, 75, 101, 201)
    for kind in ("plain", "monotone", "ir")
    for x in (0.51, 0.75, 0.99)
] + [(11, "ir-below-zero", x) for x in (0.51, 0.75, 0.99)]


def exact_step_ratios(n, x):
    """C(s) / W(s) for s = 1..n-1 and W itself, in exact rational arithmetic."""
    x = Fraction(x)
    z = [math.comb(n - 1, t) * x**t * (1 - x) ** (n - 1 - t) for t in range(n)]
    cost = [x * z[t] + (1 - x) * z[n - 1 - t] for t in range(n)]
    advantage = [z[t] - z[n - 1 - t] for t in range(n)]
    tails = [(sum(cost[s:]), sum(advantage[s:])) for s in range(1, n)]
    return [c / w for c, w in tails], [w for _, w in tails]


@pytest.mark.parametrize("n,kind,x", DESIGN_GRID)
def test_step_design_is_feasible_and_certified(n, kind, x):
    options = DESIGN_OPTIONS[kind]
    design = design_payments(n, x, options=options)
    lp = build_lp(n, x, options=options)
    values = np.array(design.payment.values)
    target = lp.eq_rhs[0]

    # the table is one step, read back: base below entry s, base + payout on
    step = int(np.argmax(values > values[0]))
    payout = values[step] - values[0]
    assert step >= 1 and payout > 0.0
    assert np.all(values[:step] == values[0]) and np.all(values[step:] == values[step])

    slack = lp.ge_matrix @ values - lp.ge_rhs
    assert slack.min() >= -1e-9 * max(1.0, payout)
    assert abs((lp.eq_matrix @ values)[0] - target) <= 1e-12 * target
    assert design.target_advantage == target
    assert design.expected_cost == pytest.approx(lp.objective @ values, rel=1e-12)

    effort = WELL.inverse(x)
    profile = StrategyProfile(tuple((WELL, Strategy(effort, 1.0)) for _ in range(n)))
    assert verify_equilibrium(profile, design.payment, tol=1e-6).is_equilibrium

    # Dual certificate: with y* = A * C(step) / W(step) the dual value,
    # C(s) - (y*/A) W(s) >= 0 for every step s, so no step (and no
    # nonnegative mix of steps) reaches the advantage A for less.
    cost = np.cumsum(lp.objective[::-1])[::-1]
    advantage = np.cumsum(lp.eq_matrix[0][::-1])[::-1]
    dual_over_target = payout * cost[step] / target
    gaps = cost[1:] - dual_over_target * advantage[1:]
    assert np.all(gaps >= -1e-9 * cost[1:])

    if n <= 11:
        # Steps within the tie tolerance of the least C/W count as tied, and
        # the tie goes to the largest W (the smallest payout).
        ratios, tails = exact_step_ratios(n, x)
        least = min(ratios)
        assert ratios[step - 1] <= least * (1 + Fraction(1, 10**9))
        assert all(tails[step - 1] >= w for r, w in zip(ratios, tails) if r == least)


def test_unanchored_design():
    # without individual rationality it is unbounded: acceptance criterion 5
    for x in (0.51, 0.75, 0.99):
        options = DesignOptions(lower_bound=-math.inf, individual_rationality=True)
        design = design_payments(11, x, options=options)
        assert design.expected_cost == pytest.approx(WELL.inverse(x), rel=1e-12, abs=1e-12)


def test_overflowing_payout_is_rejected():
    # at rate 1e-308 the target advantage 1 / (rate (1-x)) overflows
    slow = EffortProfile(AgentKind.WELL_INFORMED, rate=1e-308)
    with pytest.raises(ValueError, match="not finite"):
        design_payments(11, 0.75, slow)


@pytest.mark.parametrize("n", [1001, 2001])
@pytest.mark.parametrize("x", [0.501, 0.51, 0.6])
def test_large_jury_design_is_finite(n, x):
    # Near x = 1/2 the cheapest step sits near unanimity, where W(s) is
    # tiny and the payout A / W(s) can overflow; the design either returns
    # a finite table or says it cannot.
    try:
        design = design_payments(n, x)
    except ValueError:
        return
    values = np.array(design.payment.values)
    assert np.all(np.isfinite(values)) and math.isfinite(design.expected_cost)
    assert np.all(np.diff(values) >= 0.0)
    z = binomial_weights(n, x)
    advantage = float((z - z[::-1]) @ values)
    assert advantage == pytest.approx(design.target_advantage, rel=1e-12)
