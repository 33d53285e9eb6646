import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import jurymech.equilibrium
from jurymech.equilibrium import (
    AgentVerdict,
    BestResponse,
    EquilibriumReport,
    _log_choose,
    _scan_values,
    best_response,
    best_response_to_pmf,
    find_symmetric_equilibria,
    is_monotone_nondecreasing,
    is_simple_profile,
    mirror,
    others_vote_pmf,
    poisson_binomial_pmf,
    satisfies_simple_condition,
    simple_condition_falls,
    verify_equilibrium,
)
from jurymech.model import (
    AgentKind,
    AwardLossSharingPayment,
    EffortProfile,
    KlerosPayment,
    Strategy,
    StrategyProfile,
    TabulatedPayment,
    ThresholdPayment,
    expected_vote_advantage,
    vote_advantage,
    vote_probability,
)
from jurymech.payment_design import DesignOptions, binomial_weights, build_lp, design_payments
from oracles import (
    MIS,
    WELL,
    best_response_shortfall,
    enumerated_pmf,
    random_curve,
    random_payment,
)


def uniform_profile(n: int, effort: float = 0.0, fidelity: float = 0.5) -> StrategyProfile:
    return StrategyProfile(tuple((WELL, Strategy(effort, fidelity)) for _ in range(n)))


class TestOthersVotePmf:
    def test_deterministic_votes(self):
        profile = StrategyProfile(
            tuple((WELL, Strategy(50.0, 1.0)) for _ in range(5))
        )  # effort 50 makes the signal essentially certain
        pmf = others_vote_pmf(profile, 0)
        assert pmf[-1] == pytest.approx(1.0, abs=1e-10)

    def test_homogeneous_binomial(self):
        profile = StrategyProfile(
            tuple((WELL, Strategy(math.log(2), 1.0)) for _ in range(4))
        )
        pmf = others_vote_pmf(profile, 1)
        assert pmf == pytest.approx([0.015625, 0.140625, 0.421875, 0.421875], abs=1e-12)

    def test_mixed_probabilities_match_enumeration(self):
        # vote probabilities 1.0, 0.0, 0.5 for the three others
        agents = (
            (WELL, Strategy(0.0, 0.5)),  # the agent whose view we take
            (WELL, Strategy(50.0, 1.0)),
            (WELL, Strategy(50.0, 0.0)),
            (WELL, Strategy(0.0, 1.0)),
        )
        pmf = others_vote_pmf(StrategyProfile(agents), 0)
        assert pmf == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-12)

    def test_random_profiles_match_enumeration(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 9, 12):
            agents = [
                (
                    random_curve(rng, rates=(0.2, 3.0)),
                    Strategy(float(rng.uniform(0.0, 2.0)), float(rng.random())),
                )
                for _ in range(n)
            ]
            profile = StrategyProfile(tuple(agents))
            i = int(rng.integers(n))
            probs = [
                vote_probability(e, s)
                for j, (e, s) in enumerate(profile.agents)
                if j != i
            ]
            assert others_vote_pmf(profile, i) == pytest.approx(
                enumerated_pmf(probs), abs=1e-10
            )

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(17)
        pmf = poisson_binomial_pmf(list(rng.random(100)))
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-9)
        assert np.all(pmf >= 0.0)

    @pytest.mark.parametrize(
        "probs",
        [[0.5, 1.5], [0.5, -0.25], [0.5, math.nan], [math.inf], [-math.inf, 0.5], [True, 0.5]],
    )
    def test_rejects_probabilities_outside_unit_interval(self, probs):
        # [0.5, 1.5] used to return [-0.25, 0.5, 0.75], and NaN all NaN
        with pytest.raises(ValueError, match="probabilit"):
            poisson_binomial_pmf(probs)

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            others_vote_pmf(uniform_profile(3), 3)


class TestBestResponse:
    def test_below_threshold_no_effort(self):
        br = best_response(WELL, 2.0)
        assert br.effort == 0.0 and br.fidelity is None
        assert best_response(WELL, -2.0).effort == 0.0
        assert best_response(MIS, 2.0).effort == 0.0

    def test_above_threshold_well_informed(self):
        br = best_response(WELL, 3.0)
        assert br.effort == pytest.approx(math.log(1.5), abs=1e-12)
        assert br.fidelity == 1.0
        # stationarity: slope * advantage = 1
        assert WELL.derivative(br.effort) * 3.0 == pytest.approx(1.0, abs=1e-12)

    def test_above_threshold_misinformed(self):
        br = best_response(MIS, 3.0)
        assert br.effort == pytest.approx(math.log(1.5), abs=1e-12)
        assert br.fidelity == 0.0
        assert MIS.derivative(br.effort) * 3.0 == pytest.approx(-1.0, abs=1e-12)

    def test_negative_advantage_flips_fidelity(self):
        assert best_response(WELL, -3.0).fidelity == 0.0
        assert best_response(MIS, -3.0).fidelity == 1.0

    def test_rate_scales_activation(self):
        fast = EffortProfile(AgentKind.WELL_INFORMED, rate=2.0)
        assert best_response(fast, 1.01).effort > 0.0  # threshold is 2/rate = 1
        assert best_response(fast, 0.99).effort == 0.0
        br = best_response(fast, 3.0)
        assert fast.derivative(br.effort) * 3.0 == pytest.approx(1.0, abs=1e-12)

    def test_huge_rate_does_not_overflow(self):
        # rate * |advantage| / 2 is 1.5e308, past the largest float
        steep = EffortProfile(AgentKind.WELL_INFORMED, rate=1e308)
        br = best_response(steep, 3.0)
        assert math.isfinite(br.effort) and br.fidelity == 1.0
        assert steep.derivative(br.effort) * 3.0 == pytest.approx(1.0)

    def test_invalid_free_fidelity(self):
        with pytest.raises(ValueError):
            BestResponse(0.5, None)


class TestBestResponseToPmf:
    def test_uniform_others_mean_no_effort(self):
        pmf = binomial_weights(100, 0.5)
        br = best_response_to_pmf(WELL, ThresholdPayment(3.0), pmf, 100)
        assert br.effort == 0.0

    def test_point_mass_equals_count_response(self):
        pmf = np.zeros(100)
        pmf[60] = 1.0
        thr = ThresholdPayment(3.0)
        br = best_response_to_pmf(WELL, thr, pmf, 100)
        assert br == best_response(WELL, vote_advantage(thr, 100)[60])

    def test_concentrated_vote_activates_effort(self):
        pmf = binomial_weights(100, 0.9)
        br = best_response_to_pmf(WELL, ThresholdPayment(3.0), pmf, 100)
        assert br.effort == pytest.approx(math.log(1.5), abs=1e-6)
        assert br.fidelity == 1.0


class TestBestResponseAgainstGridSearch:
    def test_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 25))
            curve = random_curve(rng, rates=(0.4, 2.5))
            payment = random_payment(rng, n, table_spread=4.0)
            raw = rng.random(n) ** 2
            assert best_response_shortfall(curve, payment, raw / raw.sum(), n) <= 1e-4


class TestVerifyEquilibrium:
    def test_no_effort_profile_is_equilibrium(self):
        for payment in (
            ThresholdPayment(7.0),
            AwardLossSharingPayment(1000.0),
            KlerosPayment(5.0, 9.0),
            TabulatedPayment(6, (0.0, 1.0, 2.0, 5.0, 5.0, 9.0)),
        ):
            report = verify_equilibrium(uniform_profile(6), payment)
            assert report.is_equilibrium
            assert all(v.case == "a" for v in report.per_agent)

    def test_no_effort_equilibrium_every_jury_size(self):
        # holds for any payment at any size: zero effort makes every vote a
        # coin flip, the count distribution symmetric, and the advantage zero
        for n in range(2, 101):
            profile = uniform_profile(n)
            for payment in (
                ThresholdPayment(3.0),
                AwardLossSharingPayment(2.0 * n),
                KlerosPayment(1.0, 2.0),
                TabulatedPayment(n, tuple(float(k * k % 7) for k in range(n))),
            ):
                assert verify_equilibrium(profile, payment).is_equilibrium

    def test_designed_symmetric_profile_verifies(self):
        design = design_payments(11, 0.75)
        effort = WELL.inverse(0.75)
        profile = StrategyProfile(
            tuple((WELL, Strategy(effort, 1.0)) for _ in range(11))
        )
        assert verify_equilibrium(profile, design.payment, tol=1e-6).is_equilibrium

    def test_perturbed_agent_fails(self):
        design = design_payments(11, 0.75)
        effort = WELL.inverse(0.75)
        agents = [(WELL, Strategy(effort, 1.0)) for _ in range(11)]
        agents[3] = (WELL, Strategy(effort + 0.1, 1.0))
        report = verify_equilibrium(StrategyProfile(tuple(agents)), design.payment, tol=1e-6)
        assert not report.is_equilibrium
        assert not report.per_agent[3].ok

    def test_fractional_fidelity_with_effort_is_invalid(self):
        profile = StrategyProfile(((WELL, Strategy(0.5, 0.5)), (WELL, Strategy(0.0, 0.5))))
        report = verify_equilibrium(profile, ThresholdPayment(3.0))
        assert report.per_agent[0].case == "invalid"
        assert not report.is_equilibrium

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_equilibrium(uniform_profile(2), ThresholdPayment(1.0), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, True])
    def test_tolerance_must_be_finite(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_equilibrium(uniform_profile(2), ThresholdPayment(1.0), tol=tol)


def per_agent_report(profile, payments, tol=1e-8):
    """verify_equilibrium as a loop over agents, one leave-one-out PMF each:
    the reference the batched verifier must equal bit for bit."""
    n = profile.size
    pmfs = [others_vote_pmf(profile, i) for i in range(n)]
    reports = []
    for payment in payments:
        verdicts = []
        for pmf, (curve, strategy) in zip(pmfs, profile.agents):
            adv = expected_vote_advantage(payment, pmf, n)
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
        reports.append(EquilibriumReport(all(v.ok for v in verdicts), tuple(verdicts)))
    return reports


def random_profile(rng, n: int, shape: str) -> StrategyProfile:
    """Heterogeneous agents drawn from few values, so equal vote
    probabilities recur: zero effort (probability 1/2 whatever the
    fidelity), fidelity 0, 1 and fractional, two kinds and two rates.
    "sorted" orders them by vote probability, so equal ones form runs;
    "symmetric" repeats one agent."""
    curves = [WELL, MIS, EffortProfile(AgentKind.WELL_INFORMED, rate=2.5)]

    def agent():
        curve = curves[rng.integers(len(curves))]
        effort = float(rng.choice([0.0, 0.3, 1.2, rng.uniform(0.0, 3.0)]))
        fidelity = float(rng.choice([0.0, 1.0, 0.5, rng.random()]))
        return curve, Strategy(effort, fidelity)

    if shape == "symmetric":
        return StrategyProfile((agent(),) * n)
    agents = [agent() for _ in range(n)]
    if shape == "sorted":
        agents.sort(key=lambda a: vote_probability(*a))
    return StrategyProfile(tuple(agents))


def batch_payments(n: int, rng) -> list:
    return [
        ThresholdPayment(3.0),
        KlerosPayment(1.0, 2.0),
        TabulatedPayment(n, tuple(rng.uniform(-5.0, 5.0, size=n).tolist())),
    ]


class TestBatchedVerifier:
    @pytest.mark.parametrize("shape", ["random", "sorted", "symmetric"])
    @pytest.mark.parametrize("n", [1, 2, 3, 11, 100, 400])
    def test_matches_per_agent_loop(self, n, shape):
        rng = np.random.default_rng(1000 * n + len(shape))
        for _ in range(3 if n <= 11 else 1):
            profile = random_profile(rng, n, shape)
            payments = batch_payments(n, rng)
            expected = per_agent_report(profile, payments)
            assert [verify_equilibrium(profile, p) for p in payments] == expected

    @pytest.mark.parametrize(
        "strategy",
        [
            Strategy(0.0, 0.5),
            Strategy(0.0, 1.0),
            Strategy(0.8, 1.0),
            Strategy(0.8, 0.0),
            Strategy(0.8, 0.3),
        ],
    )
    def test_symmetric_cases_match_per_agent_loop(self, strategy):
        profile = StrategyProfile(((WELL, strategy),) * 11)
        payments = batch_payments(11, np.random.default_rng(3))
        expected = per_agent_report(profile, payments)
        assert [verify_equilibrium(profile, p) for p in payments] == expected

    def test_designed_equilibrium_matches_per_agent_loop(self):
        design = design_payments(101, 0.75)
        profile = StrategyProfile(((WELL, Strategy(WELL.inverse(0.75), 1.0)),) * 101)
        report = verify_equilibrium(profile, design.payment, tol=1e-6)
        assert report.is_equilibrium
        assert report == per_agent_report(profile, [design.payment], tol=1e-6)[0]

    @pytest.mark.parametrize("shape", ["random", "sorted"])
    def test_many_chunks_match_per_agent_loop(self, shape, monkeypatch):
        # 64 cells over 12 counts is 5 PMFs per chunk: 23 agents take
        # several chunks, the last one partial.
        monkeypatch.setattr(jurymech.equilibrium, "_SCAN_CELLS", 64)
        profile = random_profile(np.random.default_rng(29), 23, shape)
        payments = batch_payments(23, np.random.default_rng(30))
        expected = per_agent_report(profile, payments)
        assert [verify_equilibrium(profile, p) for p in payments] == expected

    def test_verify_memory_is_bounded(self):
        # Two chunk buffers of about 256 KiB each; a (400, 400) temporary
        # would be 1.28 MB.
        profile = random_profile(np.random.default_rng(7), 400, "random")
        payment = ThresholdPayment(3.0)
        tracemalloc.start()
        try:
            verify_equilibrium(profile, payment)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestMirror:
    def test_definition_and_involution(self):
        profile = StrategyProfile(
            ((WELL, Strategy(0.7, 1.0)), (MIS, Strategy(0.2, 0.25)))
        )
        flipped = mirror(profile)
        assert flipped.agents[0][1] == Strategy(0.7, 0.0)
        assert flipped.agents[1][1] == Strategy(0.2, 0.75)
        assert mirror(flipped) == profile
        assert mirror(uniform_profile(4)) == uniform_profile(4)

    def test_mirrored_equilibria_verify(self):
        design = design_payments(7, 0.8)
        effort = WELL.inverse(0.8)
        profile = StrategyProfile(tuple((WELL, Strategy(effort, 1.0)) for _ in range(7)))
        assert verify_equilibrium(profile, design.payment, tol=1e-6).is_equilibrium
        assert verify_equilibrium(mirror(profile), design.payment, tol=1e-6).is_equilibrium

    def test_advantage_negates_under_mirror(self):
        rng = np.random.default_rng(31)
        agents = tuple(
            (
                WELL if rng.random() < 0.5 else MIS,
                Strategy(float(rng.uniform(0.0, 2.0)), float(rng.integers(2))),
            )
            for _ in range(9)
        )
        profile = StrategyProfile(agents)
        payment = AwardLossSharingPayment(400.0)
        for i in range(9):
            original = expected_vote_advantage(payment, others_vote_pmf(profile, i), 9)
            flipped = expected_vote_advantage(
                payment, others_vote_pmf(mirror(profile), i), 9
            )
            assert flipped == pytest.approx(-original, abs=1e-9)


class TestSimpleCondition:
    def test_threshold_satisfies(self):
        assert satisfies_simple_condition(ThresholdPayment(3.0), 100)

    def test_kleros_award_at_most_loss_odd_jury(self):
        assert satisfies_simple_condition(KlerosPayment(1.0, 2.0), 11)
        assert satisfies_simple_condition(KlerosPayment(1.0, 1.0), 101)

    def test_even_jury_boundary_violation(self):
        # With the tie fraction paid on the majority branch, the advantage
        # dips at the boundary count for even juries, so the condition fails
        # there even though award <= loss.
        assert not satisfies_simple_condition(KlerosPayment(1.0, 2.0), 10)
        assert not satisfies_simple_condition(AwardLossSharingPayment(1.0), 100)

    def test_falls_name_the_tie_row(self):
        # at the presets' even n = 100 the advantage of fig1b's payment and
        # of Kleros (1, 2) falls at one row, m = 49 to 50; at odd n, nowhere
        for payment in (AwardLossSharingPayment(1.0), KlerosPayment(1.0, 2.0)):
            assert simple_condition_falls(payment, 100) == [(49, 0.0007843137254901975)]
            assert simple_condition_falls(payment, 11) == []
            assert simple_condition_falls(payment, 101) == []
        assert [m for m, _ in simple_condition_falls(KlerosPayment(3.0, 2.0), 101)] == [
            45, 46, 47, 48, 51, 52, 53, 54
        ]

    def test_oversized_award_fails_large_jury(self):
        assert not satisfies_simple_condition(KlerosPayment(10.0, 1.0), 101)

    def test_decreasing_table_fails(self):
        table = TabulatedPayment(4, (4.0, 3.0, 2.0, 1.0))
        # direct evaluation at the first count: both differences negative
        m = 0
        p = table.value(4)
        gap = p[m + 1] - p[m] + p[4 - 1 - m] - p[4 - 2 - m]
        assert gap < 0
        assert not satisfies_simple_condition(table, 4)

    def test_advantage_monotonicity_is_equivalent(self):
        # The condition says exactly that the advantage never decreases in
        # the others' count.
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 14))
            table = TabulatedPayment(n, tuple(rng.uniform(-2.0, 2.0, size=n)))
            adv = vote_advantage(table, n)
            gaps = [adv[m + 1] - adv[m] for m in range(n - 1)]
            assert satisfies_simple_condition(table, n) == all(g >= 0.0 for g in gaps)
            falls = [(m, -g) for m, g in enumerate(gaps) if g < 0.0]
            assert simple_condition_falls(table, n) == falls


class TestMonotonicity:
    def test_examples(self):
        assert is_monotone_nondecreasing(ThresholdPayment(3.0), 100)
        assert not is_monotone_nondecreasing(AwardLossSharingPayment(1.0), 100)
        assert is_monotone_nondecreasing(TabulatedPayment(5, (2.0,) * 5), 5)

    def test_monotone_implies_simple_condition(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 16))
            values = np.cumsum(rng.uniform(0.0, 1.0, size=n))
            table = TabulatedPayment(n, tuple(values))
            assert is_monotone_nondecreasing(table, n)
            assert satisfies_simple_condition(table, n)
        # magnitudes from 1e-300 to 1e300 of both signs, with repeated values:
        # rounding is monotone, so no slack is needed at any scale
        for _ in range(100):
            n = int(rng.integers(2, 16))
            pool = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, size=n)
            table = TabulatedPayment(n, tuple(np.sort(rng.choice(pool, size=n))))
            assert is_monotone_nondecreasing(table, n)
            assert satisfies_simple_condition(table, n)


def test_predicates_do_not_depend_on_the_unit_of_payment():
    # Both conditions are properties of the table, so scaling every payment
    # by a positive factor keeps the answer it has at scale 1.  A -1e-12
    # slack let AwardLossSharingPayment(1e-13) at n = 100 and
    # KlerosPayment(1e-14, 2e-14) at n = 2 and 10 pass both.
    bases = [
        (KlerosPayment, (1.0, 2.0)),
        (KlerosPayment, (3.0, 5.0)),
        (AwardLossSharingPayment, (1.0,)),
        (ThresholdPayment, (3.0,)),
    ]
    for (kind, base), n in itertools.product(bases, (2, 3, 10, 11, 100)):
        want = (
            satisfies_simple_condition(kind(*base), n),
            is_monotone_nondecreasing(kind(*base), n),
        )
        for scale in [1e-14, 1e-13] + [10.0**e for e in range(-300, 301, 50)]:
            payment = kind(*(scale * v for v in base))
            got = (
                satisfies_simple_condition(payment, n),
                is_monotone_nondecreasing(payment, n),
            )
            assert got == want, (kind.__name__, base, n, scale)


class TestSimpleProfile:
    def test_all_coin_flips(self):
        assert is_simple_profile(uniform_profile(5))

    def test_aligned_mixed_population(self):
        profile = StrategyProfile(
            ((WELL, Strategy(1.0, 1.0)), (MIS, Strategy(0.5, 0.0)))
        )
        assert is_simple_profile(profile)

    def test_straddling_population(self):
        profile = StrategyProfile(
            ((WELL, Strategy(1.0, 1.0)), (WELL, Strategy(1.0, 0.0)))
        )
        assert not is_simple_profile(profile)


class TestWorkBudget:
    def test_budget_is_inclusive(self, monkeypatch):
        # n log-factorials, 10**4 * n scan weights and n**2 PMF cells for
        # the search; n log-factorials and n weights for the design
        n, count = 11, (1 + 10**4 + 11) * 11
        monkeypatch.setattr(jurymech.equilibrium, "_WORK_BUDGET", count)
        find_symmetric_equilibria(WELL, ThresholdPayment(3.0), n)
        design_payments(count // 2, 0.75)
        monkeypatch.setattr(jurymech.equilibrium, "_WORK_BUDGET", count - 1)
        with pytest.raises(ValueError, match=f"n=11 computes {count} log-factorials"):
            find_symmetric_equilibria(WELL, ThresholdPayment(3.0), n)
        with pytest.raises(ValueError, match=f"n={count // 2} computes {count} .* of {count - 1}$"):
            design_payments(count // 2, 0.75)

    @pytest.mark.parametrize(
        "call, entry, count",
        [
            (lambda: find_symmetric_equilibria(WELL, ThresholdPayment(3.0), 10**8),
             "symmetric-equilibrium search", 10001000100000000),
            (lambda: design_payments(10**8, 0.75), "payment design", 200000000),
            (lambda: build_lp(10**8, 0.75), "payment design", 200000000),
        ],
        ids=["find", "design", "build_lp"],
    )
    def test_refused_before_any_table(self, call, entry, count, monkeypatch):
        def no_table(*args):
            raise AssertionError("a table was built past the work budget")

        monkeypatch.setattr(jurymech.equilibrium, "vote_advantage", no_table)
        monkeypatch.setattr(jurymech.equilibrium, "_log_choose", no_table)
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == (
            f"{entry} at n=100000000 computes {count} log-factorials, binomial "
            "weights and PMF cells, past the budget of 20000000"
        )

    def test_design_lp_counts_its_constraint_cells(self, monkeypatch):
        # n = 11: 10 simple rows, 10 monotone ones, the individual-rationality
        # row and the equality row, 11 cells each; n log-factorials and n
        # weights for the problem itself are far fewer
        options = DesignOptions(require_monotone=True, individual_rationality=True)
        count = 22 * 11
        monkeypatch.setattr(jurymech.equilibrium, "_WORK_BUDGET", count)
        build_lp(11, 0.75, options=options)
        monkeypatch.setattr(jurymech.equilibrium, "_WORK_BUDGET", count - 1)
        with pytest.raises(ValueError, match=f"n=11 computes {count} constraint cells"):
            build_lp(11, 0.75, options=options)

    def test_design_lp_refused_before_any_matrix(self, monkeypatch):
        # 2n = 40000 weights pass, but the (n - 1) x n matrices would be 3 GB
        def no_matrix(*args, **kwargs):
            raise AssertionError("a constraint matrix was built past the work budget")

        monkeypatch.setattr(np, "eye", no_matrix)
        with pytest.raises(ValueError) as err:
            build_lp(20000, 0.75)
        assert str(err.value) == (
            "design LP at n=20000 computes 400000000 constraint cells, "
            "past the budget of 20000000"
        )

    def test_verify_counts_its_pmf_cell_updates(self, monkeypatch):
        # one PMF per run of equal vote probability, each n steps of up to
        # n + 1 cells: three runs at n = 5, and one for a symmetric profile
        efforts = (0.3, 0.3, 1.2, 1.2, 0.3)
        profile = StrategyProfile(tuple((WELL, Strategy(e, 1.0)) for e in efforts))
        count = 3 * 5 * 6
        monkeypatch.setattr(jurymech.equilibrium, "_VERIFY_BUDGET", count)
        verify_equilibrium(profile, ThresholdPayment(3.0))
        monkeypatch.setattr(jurymech.equilibrium, "_VERIFY_BUDGET", count - 1)
        with pytest.raises(ValueError) as err:
            verify_equilibrium(profile, ThresholdPayment(3.0))
        assert str(err.value) == (
            f"equilibrium verification at n=5 computes {count} PMF cell updates, "
            f"past the budget of {count - 1}"
        )
        monkeypatch.setattr(jurymech.equilibrium, "_VERIFY_BUDGET", 5 * 6)
        verify_equilibrium(uniform_profile(5, 0.3, 1.0), ThresholdPayment(3.0))

    def test_verify_refused_before_it_convolves(self):
        # 10**4 jurors, no two sharing a vote probability: 10**12 updates,
        # which the O(n^3) convolution would take about 40 minutes to make
        n = 10**4
        profile = StrategyProfile(
            tuple((WELL, Strategy(0.1 + j * 1e-4, 1.0)) for j in range(n))
        )
        start = time.perf_counter()
        with pytest.raises(ValueError) as err:
            verify_equilibrium(profile, ThresholdPayment(3.0))
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == (
            "equilibrium verification at n=10000 computes 1000100000000 PMF cell "
            "updates, past the budget of 100000000"
        )


class TestSymmetricEquilibria:
    def test_designed_payment_recovers_target_effort(self):
        design = design_payments(11, 0.75)
        roots = find_symmetric_equilibria(WELL, design.payment, 11)
        assert any(abs(r - math.log(2)) < 1e-8 for r in roots)

    def test_zero_payment_has_no_equilibrium(self):
        assert find_symmetric_equilibria(WELL, ThresholdPayment(0.0), 100) == []

    def test_threshold_root_is_stationary(self):
        roots = find_symmetric_equilibria(WELL, ThresholdPayment(3.0), 100)
        assert roots == sorted(roots, reverse=True)
        assert roots
        table = vote_advantage(ThresholdPayment(3.0), 100)
        for root in roots:
            weights = binomial_weights(100, WELL.value(root))
            g = WELL.derivative(root) * float(weights @ table) - 1.0
            assert abs(g) <= 1e-8

    @pytest.mark.parametrize(
        "threshold, low_root",
        [
            pytest.param(1e6, 2.5641872920691904e-07, id="1e6"),
            pytest.param(8265958.738801813, 3.1021040606686445e-08, id="8265958.7"),
        ],
    )
    def test_steep_root_is_kept(self, threshold, low_root):
        # g crosses 0 at the low root with slope about 4e6 at 1e6, so the
        # midpoint of a bracket 1e-13 wide can leave |g| near 2e-7; bisected to
        # adjacent floats, the root passes the verifier.  At 8265958.7 g is
        # -1.1e-8 one float below the root, yet the verifier accepts the root.
        payment = ThresholdPayment(threshold)
        roots = find_symmetric_equilibria(WELL, payment, 100)
        assert len(roots) == 2
        assert roots[1] == pytest.approx(low_root, rel=1e-12, abs=0.0)
        for root in roots:
            profile = uniform_profile(100, root, 1.0)
            assert verify_equilibrium(profile, payment, tol=1e-8).is_equilibrium

    @pytest.mark.parametrize(
        "threshold", [17004992.35818794, 1e8, 1e10, 1e14, 1e15, 1e16, 1e30]
    )
    def test_every_root_of_a_huge_threshold_is_an_equilibrium(self, threshold):
        # near quality 1/2 the computed g steps by whole ulps of 0.5, so a
        # sign change there can be a jump that no effort solves
        payment = ThresholdPayment(threshold)
        for root in find_symmetric_equilibria(WELL, payment, 100):
            profile = uniform_profile(100, root, 1.0)
            assert verify_equilibrium(profile, payment, tol=1e-8).is_equilibrium

    @pytest.mark.xfail(
        reason="a pair of roots born at a tangency, 0.0008 apart, lies inside one"
        " scan cell whose ends have the same sign, so no bracket holds them",
    )
    def test_tangent_pair_is_found(self):
        payment = ThresholdPayment(2.6264010652864327)
        roots = find_symmetric_equilibria(WELL, payment, 100)
        assert len(roots) == 2
        for root in roots:
            assert 0.2200 < root < 0.2220
            profile = uniform_profile(100, root, 1.0)
            assert verify_equilibrium(profile, payment, tol=1e-8).is_equilibrium

    def test_rejects_misinformed(self):
        with pytest.raises(ValueError):
            find_symmetric_equilibria(MIS, ThresholdPayment(3.0), 10)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize(
    "check",
    [
        satisfies_simple_condition,
        is_monotone_nondecreasing,
        lambda payment, n: find_symmetric_equilibria(WELL, payment, n),
        lambda payment, n: binomial_weights(n, 0.75),
        lambda payment, n: build_lp(n, 0.75),
        lambda payment, n: design_payments(n, 0.75),
    ],
    ids=["simple_condition", "monotone", "symmetric_search", "binomial", "build_lp", "design"],
)
def test_jury_of_fewer_than_two_rejected(check, n):
    with pytest.raises(ValueError, match="at least 2"):
        check(ThresholdPayment(3.0), n)


def test_jury_size_must_be_an_integer():
    # np.arange would take a float size and build a table of the wrong length
    with pytest.raises(ValueError):
        satisfies_simple_condition(ThresholdPayment(3.0), 2.5)
    with pytest.raises(ValueError):
        is_monotone_nondecreasing(ThresholdPayment(3.0), 2.5)
    with pytest.raises(ValueError):
        vote_advantage(ThresholdPayment(3.0), 3.5)
    for payment in (ThresholdPayment(3.0), KlerosPayment(1.0, 2.0)):
        for check in (satisfies_simple_condition, is_monotone_nondecreasing):
            assert check(payment, np.int64(10)) == check(payment, 10)
    # bool is an int subclass and 2.0 a float: neither is a count; a numpy
    # integer is one, and gives what the plain int gives (repr shows the type)
    sized = [
        lambda n: vote_advantage(ThresholdPayment(3.0), n),
        lambda n: binomial_weights(n, 0.75),
        lambda n: build_lp(n, 0.75),
        lambda n: design_payments(n, 0.75),
        lambda n: find_symmetric_equilibria(WELL, ThresholdPayment(3.0), n),
        lambda n: TabulatedPayment(n, (1.0, 2.0)),
    ]
    for make in sized:
        for n in (True, 2.5, 2.0):
            with pytest.raises(ValueError, match="must be a count"):
                make(n)
        assert repr(make(np.int64(2))) == repr(make(2))


def scalar_g(profile: EffortProfile, table: np.ndarray):
    """g(e) = slope(e) * E[advantage] - 1 one effort at a time, the reference
    for the array scan."""
    n = len(table)

    def g(effort: float) -> float:
        expected = float(binomial_weights(n, profile.value(effort)) @ table)
        return profile.derivative(effort) * expected - 1.0

    return g


def scalar_scan_roots(g, grid: np.ndarray, values: list[float], accept):
    """The root finder's bracketing and bisection over scalar scan values:
    each bracket is bisected until its midpoint rounds to one of its ends,
    and that midpoint is a root when ``accept(midpoint)`` holds."""
    roots = []
    for k in range(len(grid) - 1):
        lo, hi = grid[k], grid[k + 1]
        g_lo, g_hi = values[k], values[k + 1]
        if g_lo == 0.0 and lo > 0.0:
            hi = lo  # a grid zero is a bracket of width 0
        elif not (g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo):
            continue
        lo_neg = g_lo < 0.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            g_mid = g(mid)
            if g_mid == 0.0:
                break
            if lo_neg == (g_mid < 0.0):
                lo = mid
            else:
                hi = mid
        if accept(mid):
            roots.append(float(mid))
    return roots[::-1]


def assert_matches_scalar(values: np.ndarray, reference: list[float]) -> None:
    # The weights are bit-identical (see the unit-table test); the sums over
    # them go in another order (matrix-vector against dot product), so they
    # may differ in the last bits of slope * E[advantage], which reaches
    # about 7 with the payments below.
    scale = np.maximum(1.0, np.abs(np.add(reference, 1.0)))
    assert np.all(np.abs(values - reference) <= 1e-15 * scale)


def scan_payment(kind: str, n: int):
    if kind == "threshold":
        return ThresholdPayment(20.0)
    if kind == "kleros":
        return KlerosPayment(1.0, 20.0)
    return design_payments(n, 0.8).payment


FAST = EffortProfile(AgentKind.WELL_INFORMED, rate=50.0)


class TestSymmetricScan:
    def test_quality_rounding_to_one(self):
        # From effort ~0.736 on, quality is exactly 1.0 at rate 50; the scan
        # stops at 20/50 = 0.4, and g changes sign twice below 0.3 (-1 at 0,
        # +43 at 0.002).
        assert FAST.value(0.74) == 1.0
        roots = find_symmetric_equilibria(FAST, ThresholdPayment(3.0), 100)
        assert len(roots) == 2
        g = scalar_g(FAST, vote_advantage(ThresholdPayment(3.0), 100))
        for root in roots:
            assert 0.0 < root < 0.3
            assert abs(g(root)) <= 1e-8

    def test_scan_range_follows_the_rate(self):
        # At rate 0.01 the high-effort root sits at 40.47, past the fixed
        # effort cap of 20 the search used to scan up to.
        slow = EffortProfile(AgentKind.WELL_INFORMED, rate=0.01)
        roots = find_symmetric_equilibria(slow, ThresholdPayment(300.0), 100)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(40.466484, abs=1e-6)
        assert roots[1] == pytest.approx(12.658237, abs=1e-6)

    @pytest.mark.parametrize("rate", [1e-300, 0.01, 50.0, 1e6])
    def test_roots_scale_as_one_over_rate(self, rate):
        # slope * advantage is unchanged when efforts scale by 1/rate and
        # payments by 1/rate, so the roots are the rate-1 roots over rate.
        profile = EffortProfile(AgentKind.WELL_INFORMED, rate=rate)
        cases = [(ThresholdPayment(3.0), ThresholdPayment(3.0 / rate), 100)]
        for n in (2, 3, 11, 100):
            cases.append((ThresholdPayment(20.0), ThresholdPayment(20.0 / rate), n))
            cases.append((KlerosPayment(1.0, 20.0), KlerosPayment(1.0 / rate, 20.0 / rate), n))
            designed = scan_payment("designed", n)
            scaled = TabulatedPayment(n, tuple(v / rate for v in designed.values))
            cases.append((designed, scaled, n))
        for payment, scaled, n in cases:
            expected = [r / rate for r in find_symmetric_equilibria(WELL, payment, n)]
            roots = find_symmetric_equilibria(profile, scaled, n)
            assert roots == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 11, 100])
    @pytest.mark.parametrize("kind", ["threshold", "kleros", "designed"])
    def test_array_scan_matches_scalar_scan(self, kind, n):
        payment = scan_payment(kind, n)
        table = vote_advantage(payment, n)
        g = scalar_g(WELL, table)
        grid = np.linspace(0.0, 20.0, 10_000)
        reference = [g(e) for e in grid]
        values = _scan_values(1.0, table, _log_choose(n), grid)
        assert_matches_scalar(values, reference)
        roots = find_symmetric_equilibria(WELL, payment, n)

        def accept(u):
            return verify_equilibrium(uniform_profile(n, u, 1.0), payment).is_equilibrium

        expected = scalar_scan_roots(g, grid, reference, accept)
        assert len(roots) == len(expected)
        assert np.allclose(roots, expected, rtol=0.0, atol=1e-12)

    def test_every_bracket_gives_its_own_root(self, monkeypatch):
        grid = np.linspace(0.0, 20.0, 10_000)
        # the verifier accepts every midpoint, so only the brackets decide
        report = EquilibriumReport(True, ())
        monkeypatch.setattr(jurymech.equilibrium, "verify_equilibrium", lambda *a: report)

        def roots_of(g):
            monkeypatch.setattr(jurymech.equilibrium, "_scan_values", lambda *a: g(a[-1]))
            roots = find_symmetric_equilibria(WELL, ThresholdPayment(3.0), 100)
            assert roots == scalar_scan_roots(g, grid, g(grid).tolist(), lambda u: True)
            return roots

        # two roots 2e-10 either side of grid point 5000, in adjacent cells
        a, b = grid[5000] - 2e-10, grid[5000] + 2e-10
        roots = roots_of(lambda u: (u - a) * (u - b))
        assert roots == pytest.approx([b, a], rel=0.0, abs=1e-13)
        # a grid zero is one root; the zero at u = 0 is none
        assert roots_of(lambda u: u - grid[7000]) == [grid[7000]]
        assert roots_of(lambda u: u) == []

    @pytest.mark.parametrize("n", [2, 11, 400])
    def test_weights_match_binomial_weights_bitwise(self, n):
        # With a unit advantage table, g + 1 is slope times one weight.
        grid = np.linspace(0.0, 20.0, 1000)
        for t in {0, 1, n // 2, n - 1}:
            table = np.zeros(n)
            table[t] = 1.0
            g = scalar_g(WELL, table)
            values = _scan_values(1.0, table, _log_choose(n), grid)
            assert values.tolist() == [g(e) for e in grid]

    def test_chunks_cover_the_grid(self):
        # 2**15 // 100 = 327 points per chunk; 1000 points end on a partial chunk
        table = vote_advantage(ThresholdPayment(20.0), 100)
        g = scalar_g(WELL, table)
        grid = np.linspace(0.0, 5.0, 1000)
        values = _scan_values(1.0, table, _log_choose(100), grid)
        assert_matches_scalar(values, [g(e) for e in grid])

    def test_scan_memory_is_bounded(self):
        # Each chunk temporary is about 256 KiB; a (10000, 100) array would
        # be 8 MB.
        tracemalloc.start()
        try:
            find_symmetric_equilibria(WELL, ThresholdPayment(3.0), 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
