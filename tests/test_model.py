import math

import numpy as np
import pytest

from jurymech.equilibrium import best_response, best_response_to_pmf
from jurymech.model import (
    AgentKind,
    AwardLossSharingPayment,
    EffortProfile,
    KlerosPayment,
    Strategy,
    StrategyProfile,
    TabulatedPayment,
    ThresholdPayment,
    expected_utility,
    expected_vote_advantage,
    validate_pmf,
    vote_advantage,
    vote_probability,
)
from oracles import MIS, WELL, random_curve


def point_mass(t: int, n: int) -> np.ndarray:
    pmf = np.zeros(n)
    pmf[t] = 1.0
    return pmf


class TestEffortProfile:
    def test_zero_effort_is_a_coin(self):
        for curve in (WELL, MIS, EffortProfile(AgentKind.WELL_INFORMED, 2.5)):
            assert curve.value(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_reference_values(self):
        assert WELL.value(1.0) == pytest.approx(0.8161, abs=5e-5)
        assert MIS.value(1.0) == pytest.approx(1.0 - WELL.value(1.0), abs=1e-12)

    def test_derivative_values(self):
        assert WELL.derivative(0.0) == 0.5
        assert MIS.derivative(0.0) == -0.5
        assert WELL.derivative(math.log(2)) == pytest.approx(0.25, abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        step = 1e-5
        for curve in (WELL, MIS, EffortProfile(AgentKind.MISINFORMED, 0.7)):
            for effort in (step, 0.3, 1.0, 4.0, 19.0):
                central = (curve.value(effort + step) - curve.value(effort - step)) / (
                    2 * step
                )
                assert curve.derivative(effort) == pytest.approx(central, abs=1e-6)

    def test_string_kind(self):
        profile = EffortProfile("well-informed")
        assert profile == EffortProfile(AgentKind.WELL_INFORMED)
        assert profile.value(1.0) == 1.0 - math.exp(-1.0) / 2.0
        with pytest.raises(ValueError):
            EffortProfile("bogus")

    def test_inverse_reference_values(self):
        assert WELL.inverse(0.75) == pytest.approx(math.log(2), abs=1e-10)
        assert MIS.inverse(0.25) == pytest.approx(math.log(2), abs=1e-10)
        near_half = WELL.inverse(0.5 + 1e-9)
        assert near_half == pytest.approx(2e-9, rel=1e-3)
        assert WELL.value(near_half) == pytest.approx(0.5 + 1e-9, abs=1e-12)

    def test_inverse_round_trip(self):
        # Near-saturated well-informed quality loses bits to cancellation in
        # 1 - y: the best any double can do is ~1.1e-16 * exp(effort), so the
        # 1e-9 identity holds up to effort 15 and degrades gracefully after.
        for effort in np.linspace(0.0, 20.0, 41):
            tol = 1e-9 if effort <= 15.0 else 1e-7
            assert WELL.inverse(WELL.value(effort)) == pytest.approx(effort, abs=tol)
            assert MIS.inverse(MIS.value(effort)) == pytest.approx(effort, abs=1e-9)

    def test_inverse_forward_post(self):
        # applying the curve to the recovered effort reproduces the quality
        for effort in np.linspace(0.0, 20.0, 41):
            y = WELL.value(effort)
            assert WELL.value(WELL.inverse(y)) == pytest.approx(y, abs=1e-10)
            y = MIS.value(effort)
            assert MIS.value(MIS.inverse(y)) == pytest.approx(y, abs=1e-10)

    def test_range_and_monotonicity(self):
        grid = np.linspace(0.0, 30.0, 301)
        well_vals = [WELL.value(e) for e in grid]
        mis_vals = [MIS.value(e) for e in grid]
        assert all(0.0 <= v <= 1.0 for v in well_vals + mis_vals)
        assert all(a < b for a, b in zip(well_vals, well_vals[1:]))
        assert all(a > b for a, b in zip(mis_vals, mis_vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            WELL.value(-0.1)
        with pytest.raises(ValueError):
            WELL.derivative(-1e-9)
        with pytest.raises(ValueError):
            WELL.inverse(0.4)
        with pytest.raises(ValueError):
            WELL.inverse(1.0)
        with pytest.raises(ValueError):
            MIS.inverse(0.6)
        # -log(0.002) / 1e-308 overflows: no finite effort reaches this quality
        with pytest.raises(ValueError, match="rate 1e-308 leaves quality 0.999"):
            EffortProfile(AgentKind.WELL_INFORMED, 1e-308).inverse(0.999)
        with pytest.raises(ValueError):
            EffortProfile(AgentKind.WELL_INFORMED, rate=0.0)
        # NaN passes an effort < 0 test, and a best response would carry it on
        for effort in (math.nan, -math.inf, True):
            with pytest.raises(ValueError, match="effort"):
                WELL.value(effort)
            with pytest.raises(ValueError, match="effort"):
                MIS.derivative(effort)
        for advantage in (math.nan, math.inf, -math.inf, True):
            with pytest.raises(ValueError, match="advantage"):
                best_response(WELL, advantage)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            EffortProfile(AgentKind.WELL_INFORMED, rate=rate)


JURY_SIZES = (1, 2, 11, 100, 101)


def fraction_reference(payment, n: int) -> np.ndarray:
    """Payment table by the fraction definition p(x) at x = k/n: the
    majority branch at x >= 1/2, shares of award / (x*n)."""
    out = []
    for k in range(1, n + 1):
        x = k / n
        if isinstance(payment, ThresholdPayment):
            out.append(payment.reward if x >= 0.5 else 0.0)
        elif isinstance(payment, AwardLossSharingPayment):
            share = payment.total_award / (x * n)
            out.append(share if x >= 0.5 else -share)
        elif isinstance(payment, KlerosPayment):
            out.append(payment.award / (x * n) if x >= 0.5 else -payment.loss / (x * n))
        else:
            out.append(payment.values[k - 1])
    return np.array(out)


def payment_cases(n: int) -> list:
    """One payment of every kind for a jury of n, Kleros both ways round."""
    rng = np.random.default_rng(n)
    return [
        ThresholdPayment(2.5),
        AwardLossSharingPayment(2500.0),
        KlerosPayment(1.0, 2.0),  # award < loss
        KlerosPayment(7.0, 0.5),  # award > loss
        TabulatedPayment(n, tuple(rng.normal(size=n))),
    ]


def assert_matches_reference(payment, n: int) -> None:
    table = payment.value(n)
    assert table.shape == (n,) and table.dtype == np.float64
    np.testing.assert_allclose(table, fraction_reference(payment, n), rtol=0, atol=1e-12)


class TestPayments:
    def test_threshold_branches(self):
        thr = ThresholdPayment(3.0)
        table = thr.value(100)
        assert table[60] == 3.0  # 61 of 100
        assert table[39] == 0.0  # 40 of 100
        assert table[49] == 3.0  # boundary joins the majority branch
        for n in JURY_SIZES:
            assert_matches_reference(ThresholdPayment(2.5), n)

    def test_award_loss_sharing(self):
        als = AwardLossSharingPayment(2500.0)
        assert als.value(100)[39] == pytest.approx(-62.5, abs=1e-12)
        assert als.value(100)[49] == pytest.approx(50.0, abs=1e-12)
        for n in JURY_SIZES:
            assert_matches_reference(als, n)
            assert np.array_equal(als.value(n), KlerosPayment(2500.0, 2500.0).value(n))

    def test_kleros(self):
        pay = KlerosPayment(1.0, 2.0)
        assert pay.value(10)[5] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert pay.value(10)[3] == pytest.approx(-0.5, abs=1e-12)
        for n in JURY_SIZES:
            assert_matches_reference(KlerosPayment(1.0, 2.0), n)
            assert_matches_reference(KlerosPayment(7.0, 0.5), n)

    def test_tabulated_lookup_and_off_grid(self):
        table = TabulatedPayment(4, (1.0, 2.0, 3.0, 4.0))
        assert table.value(4)[0] == 1.0
        assert table.value(4)[3] == 4.0
        with pytest.raises(ValueError):
            table.value(8)  # the grid k/8 is not the table's
        with pytest.raises(ValueError):
            TabulatedPayment(3, (1.0, 2.0))
        with pytest.raises(ValueError, match="jury_size"):
            TabulatedPayment(0, ())
        for n in JURY_SIZES:
            assert_matches_reference(payment_cases(n)[-1], n)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ThresholdPayment(math.inf),
            lambda: ThresholdPayment(math.nan),
            lambda: AwardLossSharingPayment(-math.inf),
            lambda: AwardLossSharingPayment(math.nan),
            lambda: KlerosPayment(math.nan, 1.0),
            lambda: KlerosPayment(1.0, math.inf),
            lambda: TabulatedPayment(2, (math.nan, 1.0)),
            lambda: TabulatedPayment(2, (1.0, -math.inf)),
            lambda: ThresholdPayment(True),
            lambda: AwardLossSharingPayment(False),
            lambda: KlerosPayment(1.0, True),
            lambda: TabulatedPayment(2, (True, 1.0)),
        ],
        ids=[
            "threshold_inf",
            "threshold_nan",
            "award_loss_neg_inf",
            "award_loss_nan",
            "kleros_award_nan",
            "kleros_loss_inf",
            "table_nan",
            "table_neg_inf",
            "threshold_bool",
            "award_loss_bool",
            "kleros_loss_bool",
            "table_bool",
        ],
    )
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestVoteAdvantage:
    def test_threshold_bands(self):
        adv = vote_advantage(ThresholdPayment(3.0), 100)
        assert adv.shape == (100,)
        assert adv[60] == 3.0
        assert adv[50] == 0.0
        assert adv[49] == 0.0
        assert adv[48] == -3.0

    def test_award_loss_from_two_payment_calls(self):
        als = AwardLossSharingPayment(2500.0)
        table = als.value(100)
        expected = table[60] - table[39]
        assert vote_advantage(als, 100)[60] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2500 / 61 + 2500 / 40, abs=1e-9)

    def test_antisymmetry_all_variants(self):
        rng = np.random.default_rng(7)
        for n in range(2, 21):
            payments = [
                ThresholdPayment(2.5),
                AwardLossSharingPayment(40.0),
                KlerosPayment(3.0, 5.0),
                TabulatedPayment(n, tuple(rng.normal(size=n))),
            ]
            for payment in payments:
                adv = vote_advantage(payment, n)
                for m in range(n):
                    assert adv[m] == pytest.approx(-adv[n - 1 - m], abs=1e-12)
        for n in JURY_SIZES:
            for payment in payment_cases(n):
                table = payment.value(n)
                adv = vote_advantage(payment, n)
                assert adv.shape == (n,)
                for m in range(n):
                    assert adv[m] == table[m] - table[n - 1 - m]

    @pytest.mark.parametrize(
        "payment, n",
        [
            (KlerosPayment(1.7e308, 1.7e308), 3),
            (TabulatedPayment(2, (-1e308, 1e308)), 2),
        ],
        ids=["kleros", "table"],
    )
    def test_overflowing_advantage_rejected(self, payment, n):
        with pytest.raises(ValueError, match="overflows"):
            vote_advantage(payment, n)


class TestExpectedAdvantage:
    def test_point_mass_reduces_to_single_count(self):
        als = AwardLossSharingPayment(100.0)
        pmf = point_mass(60, 100)
        assert expected_vote_advantage(als, pmf, 100) == pytest.approx(
            vote_advantage(als, 100)[60], abs=1e-12
        )

    def test_fair_coin_votes_cancel(self):
        from jurymech.payment_design import binomial_weights

        pmf = binomial_weights(100, 0.5)
        assert expected_vote_advantage(ThresholdPayment(3.0), pmf, 100) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_binomial_tail_oracle(self):
        from jurymech.payment_design import binomial_weights

        pmf = binomial_weights(100, 0.75)
        got = expected_vote_advantage(ThresholdPayment(3.0), pmf, 100)
        tails = 3.0 * (pmf[51:].sum() - pmf[:49].sum())
        assert got == pytest.approx(tails, abs=1e-12)

    def test_rejects_bad_pmf(self):
        bad = np.full(100, 0.02)  # sums to 2
        with pytest.raises(ValueError):
            expected_vote_advantage(ThresholdPayment(1.0), bad, 100)
        with pytest.raises(ValueError):
            validate_pmf([0.5, -0.1, 0.6], 3)
        with pytest.raises(ValueError):
            validate_pmf([1.0], 2)

    @pytest.mark.parametrize(
        "pmf", [[math.nan, 0.5, 0.5], [0.5, 0.5, math.nan]], ids=["first", "last"]
    )
    def test_rejects_nan_pmf(self, pmf):
        # abs(nan - 1) > 1e-9 is false, so a NaN entry slips past a mass check
        payment = ThresholdPayment(3.0)
        with pytest.raises(ValueError, match="finite"):
            expected_vote_advantage(payment, pmf, 3)
        with pytest.raises(ValueError, match="finite"):
            expected_utility(WELL, Strategy(1.0, 1.0), payment, pmf, 3)
        with pytest.raises(ValueError, match="finite"):
            best_response_to_pmf(WELL, payment, pmf, 3)


def four_branch_utility(curve, strategy, payment, pmf, n):
    # Direct expansion over (signal right/wrong) x (cast/flip).
    f = curve.value(strategy.effort)
    b = strategy.fidelity
    table = payment.value(n)
    pay_t = math.fsum(p * table[t] for t, p in enumerate(pmf))
    pay_f = math.fsum(p * table[n - 1 - t] for t, p in enumerate(pmf))
    return (
        -strategy.effort
        + f * b * pay_t
        + f * (1 - b) * pay_f
        + (1 - f) * b * pay_f
        + (1 - f) * (1 - b) * pay_t
    )


class TestExpectedUtility:
    def test_zero_effort_is_fidelity_independent(self):
        pmf = point_mass(60, 100)
        thr = ThresholdPayment(3.0)
        base = expected_utility(WELL, Strategy(0.0, 0.0), thr, pmf, 100)
        for fidelity in (0.25, 0.5, 0.75, 1.0):
            got = expected_utility(WELL, Strategy(0.0, fidelity), thr, pmf, 100)
            assert got == pytest.approx(base, abs=1e-12)
        # expected payment of a truth vote, minus half the advantage
        assert base == pytest.approx(3.0 - 0.5 * 3.0, abs=1e-12)

    def test_zero_advantage_leaves_cost_plus_payment(self):
        pmf = point_mass(50, 100)  # middle band: advantage 0
        thr = ThresholdPayment(3.0)
        got = expected_utility(WELL, Strategy(0.5, 1.0), thr, pmf, 100)
        assert got == pytest.approx(3.0 - 0.5, abs=1e-12)

    def test_matches_four_branch_expansion(self):
        rng = np.random.default_rng(11)
        thr = ThresholdPayment(3.0)
        pmf = point_mass(60, 100)
        s = Strategy(math.log(1.5), 1.0)
        assert expected_utility(WELL, s, thr, pmf, 100) == pytest.approx(
            four_branch_utility(WELL, s, thr, pmf, 100), abs=1e-12
        )
        for _ in range(25):
            n = int(rng.integers(2, 30))
            raw = rng.random(n)
            pmf = raw / raw.sum()
            pay = AwardLossSharingPayment(float(rng.uniform(0.0, 50.0)))
            curve = WELL if rng.random() < 0.5 else MIS
            s = Strategy(float(rng.uniform(0.0, 3.0)), float(rng.random()))
            assert expected_utility(curve, s, pay, pmf, n) == pytest.approx(
                four_branch_utility(curve, s, pay, pmf, n), abs=1e-10
            )

    def test_overflowing_advantage_rejected(self):
        # the advantage comes from vote_advantage, with its overflow check
        with pytest.raises(ValueError, match="vote advantage overflows"):
            expected_utility(
                WELL, Strategy(0.5, 1.0), KlerosPayment(1.7e308, 1.7e308), point_mass(1, 3), 3
            )


class TestVoteProbability:
    def test_zero_effort(self):
        for curve in (WELL, MIS):
            for fidelity in (0.0, 0.3, 1.0):
                assert vote_probability(curve, Strategy(0.0, fidelity)) == pytest.approx(
                    0.5, abs=1e-12
                )

    def test_full_fidelity_follows_signal(self):
        assert vote_probability(WELL, Strategy(1.0, 1.0)) == pytest.approx(
            0.8161, abs=5e-5
        )
        assert vote_probability(WELL, Strategy(1.0, 0.0)) == pytest.approx(
            1.0 - 0.8161, abs=5e-5
        )

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            curve = random_curve(rng, rates=(0.1, 4.0))
            s = Strategy(float(rng.uniform(0.0, 20.0)), float(rng.random()))
            assert 0.0 <= vote_probability(curve, s) <= 1.0


class TestStrategyTypes:
    def test_strategy_invariants(self):
        with pytest.raises(ValueError):
            Strategy(-0.1, 0.5)
        with pytest.raises(ValueError):
            Strategy(0.1, 1.5)

    @pytest.mark.parametrize("effort", [math.nan, math.inf, -math.inf, True, False, "1.0", None])
    def test_effort_must_be_finite_real(self, effort):
        # NaN used to surface as a misleading PMF error in verify_equilibrium
        # and inf as residual 1.0; bool is an int subclass, rejected by name.
        with pytest.raises(ValueError, match="effort"):
            Strategy(effort, 1.0)

    def test_integer_and_numpy_efforts_accepted(self):
        assert Strategy(2, 1.0).effort == 2
        assert Strategy(np.float64(0.5), 0.0).effort == 0.5

    @pytest.mark.parametrize("fidelity", [math.nan, True, False, "1", None])
    def test_fidelity_must_be_real(self, fidelity):
        # True used to be stored as is and read as fidelity 1.0 by the
        # verifier; "1" raised TypeError from the range comparison.
        with pytest.raises(ValueError, match="fidelity"):
            Strategy(0.5, fidelity)

    def test_integer_and_numpy_fidelities_accepted(self):
        assert Strategy(0.5, 1).fidelity == 1
        assert Strategy(0.5, np.float64(0.25)).fidelity == 0.25

    def test_profile_needs_agents(self):
        with pytest.raises(ValueError):
            StrategyProfile(())
        profile = StrategyProfile(((WELL, Strategy(0.0, 0.5)),))
        assert profile.size == 1
