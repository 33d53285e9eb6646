import dataclasses
import itertools
import math

import numpy as np
import pytest

from jurymech import _seeding, dynamics
from jurymech.dynamics import (
    SimulationConfig,
    assign_population,
    correctness_estimate,
    correctness_estimates,
    derive_seed,
    simulate,
    _DRAW_BUFFER,
    _response_row,
    _response_rows,
    _run_batch,
    batch_cells,
)
from jurymech._seeding import (
    PresetState,
    _state,
    derive_seeds,
    preset_generators,
    sample_states,
    seed_states,
)
from jurymech.equilibrium import best_response
from jurymech.model import (
    AwardLossSharingPayment,
    EffortProfile,
    KlerosPayment,
    Strategy,
    TabulatedPayment,
    ThresholdPayment,
    vote_advantage,
    vote_probability,
)
from oracles import MIS, WELL


def kind_row(curve: EffortProfile, payment, n: int) -> np.ndarray:
    """Ground-truth-vote probability of a best-responding juror on this
    curve, worked out on its own for every feedback count."""
    probs = []
    for adv in vote_advantage(payment, n).tolist():
        br = best_response(curve, adv)
        if br.fidelity is None:
            probs.append(0.5)
        else:
            probs.append(vote_probability(curve, Strategy(br.effort, br.fidelity)))
    return np.array(probs)


def config(**kwargs) -> SimulationConfig:
    base = dict(
        n=100, rho=0.9, payment=ThresholdPayment(3.0), epsilon=1.0, rounds=50, seed=0
    )
    base.update(kwargs)
    return SimulationConfig(**base)


class TestAssignPopulation:
    def test_full_fraction(self):
        assert assign_population(4, 1.0) == 4

    def test_exact_half(self):
        assert assign_population(4, 0.5) == 2

    def test_rounding(self):
        assert assign_population(100, 0.731) == 73

    def test_domain(self):
        with pytest.raises(ValueError):
            assign_population(10, 1.2)


def round_zero(n: int, rho: float, epsilon: float, seed: int):
    """Round-0 state of a seeded run."""
    return simulate(config(n=n, rho=rho, epsilon=epsilon, rounds=1, seed=seed)).states[0]


class TestRoundZero:
    def test_zero_effort_votes_are_fair(self):
        state = round_zero(2000, 0.5, 0.0, 0)
        assert abs(state.t_count / 2000 - 0.5) < 0.05

    def test_mean_vote_count(self):
        # sample mean over many seeds within 4 standard errors of the exact mean
        n, rho, eps, seeds = 100, 0.7, 1.0, 1000
        informed = assign_population(n, rho)
        probs = [WELL.value(eps)] * informed + [MIS.value(eps)] * (n - informed)
        exact_mean = sum(probs)
        exact_sd = math.sqrt(sum(p * (1 - p) for p in probs))
        counts = [round_zero(n, rho, eps, s).t_count for s in range(seeds)]
        standard_error = exact_sd / math.sqrt(seeds)
        assert abs(np.mean(counts) - exact_mean) <= 4 * standard_error

    def test_rejects_negative_effort(self):
        with pytest.raises(ValueError):
            round_zero(1, 1.0, -1.0, 0)


def seeded_table(n: int) -> TabulatedPayment:
    """A nondecreasing payment table with entries spread over [-10, 10]."""
    values = np.sort(np.random.default_rng(n).uniform(-10.0, 10.0, n))
    return TabulatedPayment(n, tuple(values.tolist()))


ROW_PAYMENTS = {
    **{
        f"threshold-{w:g}": (lambda n, w=w: ThresholdPayment(w))
        for w in np.linspace(0.0, 5.0, 11).tolist()
    },
    **{
        f"award-loss-{a:g}": (lambda n, a=a: AwardLossSharingPayment(a))
        for a in (0.0, 300.0, 2500.0)
    },
    "kleros-1-2": lambda n: KlerosPayment(1.0, 2.0),
    "table": seeded_table,
}


class TestResponseTables:
    def test_threshold_activation_row(self):
        payment = ThresholdPayment(3.0)
        row = _response_row(payment, 100)
        assert row.shape == (100,)
        for probs in (row, kind_row(WELL, payment, 100), kind_row(MIS, payment, 100)):
            # feedback far above the middle band: advantage 3, effort ln(3/2);
            # the well-informed juror casts her signal (quality 2/3), the
            # misinformed one inverts hers (quality 1/3), so both land on 2/3
            assert probs[89] == pytest.approx(2.0 / 3.0, abs=1e-12)
            # middle band: advantage 0, coin flip
            assert probs[50] == 0.5 and probs[49] == 0.5
            # far below: advantage -3, everyone leans toward the paying side
            assert probs[10] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_small_reward_never_activates(self):
        payment = ThresholdPayment(1.0)
        assert np.all(_response_row(payment, 100) == 0.5)
        assert np.all(kind_row(WELL, payment, 100) == 0.5)
        assert np.all(kind_row(MIS, payment, 100) == 0.5)

    @pytest.mark.parametrize("n", [1, 2, 11, 100])
    @pytest.mark.parametrize("make", ROW_PAYMENTS.values(), ids=ROW_PAYMENTS.keys())
    def test_both_kinds_land_on_the_row(self, make, n):
        # at a < -2 the well-informed juror's 1 - (1 - h) may round off h
        payment = make(n)
        row = _response_row(payment, n)
        assert row.shape == (n,)
        near = vote_advantage(payment, n) >= -2.0
        for curve in (WELL, MIS):
            probs = kind_row(curve, payment, n)
            assert np.array_equal(row[near], probs[near])
            assert np.all(np.abs(row[~near] - probs[~near]) <= 2**-53)

    def test_threshold_efforts_are_two_valued(self):
        for omega in (3.0, 5.0):
            payment = ThresholdPayment(omega)
            efforts = {
                best_response(WELL, adv).effort for adv in vote_advantage(payment, 100)
            }
            assert efforts == {0.0, math.log(omega / 2.0)}


class TestSimulate:
    def test_deterministic(self):
        cfg = config(seed=42)
        assert simulate(cfg) == simulate(cfg)

    def test_trajectory_shape(self):
        cfg = config(rounds=7)
        trajectory = simulate(cfg)
        assert len(trajectory.states) == 8
        informed = assign_population(cfg.n, cfg.rho)
        for state in trajectory.states:
            assert 0 <= state.informed <= informed
            assert 0 <= state.misinformed <= cfg.n - informed
            assert state.t_count == state.informed + state.misinformed

    def test_count_independent_run_records_every_round(self):
        cfg = config(n=30, payment=ThresholdPayment(0.0), rounds=7, seed=5)
        assert np.all(_response_row(cfg.payment, cfg.n) == 0.5)
        trajectory = simulate(cfg)
        assert len(trajectory.states) == cfg.rounds + 1
        assert trajectory.final_correct == (trajectory.states[-1].t_count > cfg.n / 2)

    def test_single_agent_jury(self):
        cfg = config(n=1, rho=1.0, payment=ThresholdPayment(5.0), rounds=3, seed=9)
        trajectory = simulate(cfg)
        assert len(trajectory.states) == 4
        assert trajectory.final_correct == (trajectory.states[-1].t_count == 1)

    def test_tie_counts_as_incorrect(self):
        # with zero reward everyone flips coins; find a seeded run ending in a tie
        for seed in range(200):
            cfg = config(n=2, rho=0.5, payment=ThresholdPayment(0.0), rounds=1, seed=seed)
            trajectory = simulate(cfg)
            if trajectory.states[-1].t_count == 1:
                assert not trajectory.final_correct
                return
        pytest.fail("no tie found in 200 seeds")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(rho=1.5)
        with pytest.raises(ValueError):
            config(n=0)
        with pytest.raises(ValueError):
            config(rounds=0)
        with pytest.raises(ValueError):
            config(seed=-1)
        with pytest.raises(ValueError):
            config(epsilon=-0.5)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError):
            config(epsilon=epsilon)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 1.5),
            ("n", True),
            ("rounds", 2.5),
            ("rounds", True),
            ("seed", 1.5),
            ("seed", "7"),
            ("rho", True),
            ("epsilon", True),
        ],
    )
    def test_ill_typed_integer_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            config(**{field: value})


def reference_runs(cfg: SimulationConfig, samples: int) -> list[list[tuple[int, int]]]:
    """Per-sample, per-round loop over a per-juror population: one
    rng.random(n) per round.  Returns the ground-truth votes among the
    well-informed and among the misinformed jurors, for every round of
    every sample."""
    informed = assign_population(cfg.n, cfg.rho)
    population = [WELL] * informed + [MIS] * (cfg.n - informed)
    tables = np.array([kind_row(curve, cfg.payment, cfg.n) for curve in (WELL, MIS)])
    group = np.array([0 if curve == WELL else 1 for curve in population], dtype=np.intp)
    zero_probs = np.array([curve.value(cfg.epsilon) for curve in population])
    runs = []
    for k in range(samples):
        rng = np.random.default_rng(derive_seed(cfg.seed, k))
        votes = rng.random(cfg.n) < zero_probs
        counts = [(int(votes[:informed].sum()), int(votes[informed:].sum()))]
        for _ in range(cfg.rounds):
            feedback = int(votes.sum()) - votes.astype(np.intp)
            votes = rng.random(cfg.n) < tables[group, feedback]
            counts.append((int(votes[:informed].sum()), int(votes[informed:].sum())))
        runs.append(counts)
    return runs


class TestCorrectnessEstimate:
    @pytest.mark.parametrize(
        "overrides, samples",
        [
            pytest.param(dict(n=30, rounds=10), 8, id="n30_base"),
            pytest.param(dict(n=1, rho=1.0, rounds=4), 8, id="n1_informed"),
            pytest.param(dict(n=2, rho=0.0, rounds=4), 8, id="n2_misinformed"),
            pytest.param(dict(n=11, rho=0.37, rounds=10), 8, id="n11_mixed"),
            pytest.param(dict(n=100, rho=0.37, rounds=1), 8, id="n100_one_round"),
            pytest.param(dict(n=100, rho=1.0, rounds=10), 1, id="n100_one_sample"),
            pytest.param(
                dict(n=11, rho=0.37, payment=KlerosPayment(1.0, 2.0), rounds=10),
                8,
                id="n11_kleros",
            ),
            # a table that ignores the count: the batch skips to the last round
            pytest.param(
                dict(n=30, payment=ThresholdPayment(0.0), rounds=10), 8, id="n30_zero_reward"
            ),
            # 1000 x 141 draws per sample exceed the 2**17-double draw buffer,
            # so both the batch and each one-sample replay refill it in blocks
            pytest.param(dict(n=1000, rho=0.6, rounds=140), 2, id="n1000_blocks"),
        ],
    )
    def test_samples_match_standalone_runs(self, overrides, samples):
        cfg = config(seed=77, **overrides)
        estimate = correctness_estimate(cfg, samples)
        trajectories = [
            simulate(dataclasses.replace(cfg, seed=derive_seed(cfg.seed, k)))
            for k in range(samples)
        ]
        manual = [t.final_correct for t in trajectories]
        assert estimate == sum(manual) / samples
        reference = reference_runs(cfg, samples)
        assert [
            [(s.informed, s.misinformed) for s in t.states] for t in trajectories
        ] == reference
        assert manual == [sum(counts[-1]) > cfg.n / 2 for counts in reference]

    def test_zero_reward_is_coin_flipping(self):
        # odd jury: exact win probability is 1/2, ties impossible
        odd = config(n=9, rho=0.8, payment=ThresholdPayment(0.0), rounds=5, seed=1)
        assert abs(correctness_estimate(odd, 400) - 0.5) <= 0.1
        # even jury: ties count against, so the rate sits below 1/2
        even = config(n=10, rho=0.8, payment=ThresholdPayment(0.0), rounds=5, seed=1)
        exact = sum(
            math.comb(10, k) for k in range(6, 11)
        ) / 2**10  # P[Bin(10,1/2) > 5]
        assert exact < 0.5
        assert abs(correctness_estimate(even, 400) - exact) <= 0.1

    def test_population_flip_mirrors_correctness(self):
        high = correctness_estimate(config(rho=0.9), 20)
        low = correctness_estimate(config(rho=0.1), 20)
        assert abs(high + low - 1.0) <= 0.15

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            correctness_estimate(config(), 0)

    @pytest.mark.parametrize("samples", [2.5, True, "3", None])
    def test_ill_typed_sample_count_rejected(self, samples):
        with pytest.raises(ValueError, match="samples"):
            correctness_estimate(config(n=5, rounds=2), samples)

    @pytest.mark.xfail(reason="correctness_estimates runs any number of rounds, unbounded")
    def test_unbounded_rounds_fail_fast(self, monkeypatch):
        # With a one-double draw buffer every round refills it, one random()
        # call per generator, so the 1000th call stops a run that would not end.
        calls = 0

        class Counted:
            def __init__(self, rng):
                self.rng, self.bit_generator = rng, rng.bit_generator

            def random(self, *args, **kwargs):
                nonlocal calls
                calls += 1
                if calls >= 1000:
                    pytest.fail("1000 draw calls without a bound on the rounds")
                return self.rng.random(*args, **kwargs)

        preset = _seeding.preset_generators
        monkeypatch.setattr(
            _seeding, "preset_generators", lambda states: list(map(Counted, preset(states)))
        )
        monkeypatch.setattr(dynamics, "_DRAW_BUFFER", 1)
        cfg = config(n=10, payment=ThresholdPayment(3.0), rounds=10**15)
        with pytest.raises((ValueError, MemoryError)):
            correctness_estimates([cfg], 2)


def binomial_pmf(trials: int, p: float) -> np.ndarray:
    """PMF of Bin(trials, p) over 0..trials, from math.comb."""
    return np.array(
        [math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k) for k in range(trials + 1)]
    )


def exact_correctness(cfg: SimulationConfig) -> float:
    """Probability that cfg's final strict majority is correct, from the law
    of the ground-truth vote count T.  Round 0: T is Bin(n_w, f_w(eps)) plus
    Bin(n_m, f_m(eps)).  Each later round, the T jurors who voted for the
    ground truth see T - 1 such votes among the others and the other n - T
    see T, so the next T is Bin(T, p[T-1]) plus Bin(n - T, p[T]), with p the
    response of either kind."""
    n = cfg.n
    informed = assign_population(n, cfg.rho)
    law = np.convolve(
        binomial_pmf(informed, WELL.value(cfg.epsilon)),
        binomial_pmf(n - informed, MIS.value(cfg.epsilon)),
    )
    p = kind_row(WELL, cfg.payment, n)
    kernel = np.array(
        [
            np.convolve(
                binomial_pmf(t, p[t - 1] if t > 0 else 0.0),
                binomial_pmf(n - t, p[t] if t < n else 0.0),
            )
            for t in range(n + 1)
        ]
    )
    for _ in range(cfg.rounds):
        law = law @ kernel
    return math.fsum(law[n // 2 + 1 :])


class TestExactChain:
    def test_zero_reward_cell_is_a_fair_binomial(self):
        # every juror flips a coin after round 0: P(Bin(100, 1/2) > 50)
        exact = exact_correctness(config(rho=0.7, payment=ThresholdPayment(0.0)))
        assert abs(exact - 0.46020538130641) <= 1e-12

    def test_monte_carlo_within_four_standard_errors(self):
        samples = 400
        payments = [
            ThresholdPayment(0.0),
            ThresholdPayment(3.0),
            AwardLossSharingPayment(800.0),
            KlerosPayment(1.0, 2.0),
        ]
        cells = itertools.product(payments, (0.3, 0.55, 0.7))
        configs = [
            config(rho=rho, payment=payment, seed=c)
            for c, (payment, rho) in enumerate(cells)
        ]
        estimates = correctness_estimates(configs, samples)
        for cfg, estimate in zip(configs, estimates.tolist()):
            e = exact_correctness(cfg)
            bound = 4.0 * math.sqrt(max(e * (1.0 - e), 1.0 / samples) / samples)
            assert abs(estimate - e) <= bound, (cfg, estimate, e)


class TestDeriveSeed:
    def test_deterministic_and_spread(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seeds = {derive_seed(0, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    # corner seeds: zero, one word, the largest one-word seed, the smallest
    # two-word one, the top bit alone, the largest 64-bit seed; then random
    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    def test_vectorised_derivation_matches_seed_sequence(self):
        drawn = np.random.default_rng(2024).integers(0, 2**64, size=20, dtype=np.uint64)
        seeds = self.EDGE_SEEDS + [int(s) for s in drawn]
        derived = derive_seeds(np.array(seeds, dtype=np.uint64), 1000)
        assert derived.shape == (len(seeds), 1000) and derived.dtype == np.uint64
        expected = [[derive_seed(s, k) for k in range(1000)] for s in seeds]
        assert derived.tolist() == expected

    def test_vectorised_states_match_seed_sequence(self):
        # derived seeds are one SeedSequence word when below 2**32
        small = np.random.default_rng(7).integers(0, 2**32, size=10, dtype=np.uint64)
        large = np.random.default_rng(8).integers(0, 2**64, size=10, dtype=np.uint64)
        seeds = self.EDGE_SEEDS + [int(s) for s in small] + [int(s) for s in large]
        states = seed_states(np.array(seeds, dtype=np.uint64))
        assert states.flags.c_contiguous and states.dtype == np.uint64
        for seed, state in zip(seeds, states):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert np.array_equal(state, expected)

    def test_state_mirrors_seed_sequence(self):
        # a first part of one word and of two, followed by 0, 1 and 2 parts
        for first in self.EDGE_SEEDS:
            for rest in ([], [5], [0, 2**32 - 1]):
                words = [np.array([r], dtype=np.uint32) for r in rest]
                state = _state(np.array([first], dtype=np.uint64), *words, words=3)[0]
                expected = np.random.SeedSequence([first, *rest]).generate_state(3, np.uint64)
                assert np.array_equal(state, expected), (first, rest)
        # a fifth entropy word would be mixed in after the 4-word pool
        one = np.ones(1, dtype=np.uint32)
        with pytest.raises(ValueError, match="at most 2"):
            _state(np.ones(1, dtype=np.uint64), one, one, one, words=1)

    def test_generators_replay_default_rng(self):
        seeds = [3, 2**32 + 5, 2**64 - 1]
        generators = preset_generators(sample_states(np.array(seeds, dtype=np.uint64), 7))
        assert len(generators) == 21
        for (seed, k), rng in zip([(s, k) for s in seeds for k in range(7)], generators):
            reference = np.random.default_rng(derive_seed(seed, k))
            assert np.array_equal(rng.random(16), reference.random(16))
            assert np.array_equal(rng.integers(0, 2**62, 4), reference.integers(0, 2**62, 4))
        # a derived seed below 2**32 seeds PCG64 from a one-word entropy
        for seed in (0, 1, 12345, 2**32 - 1):
            state = seed_states(np.array([seed], dtype=np.uint64))[0]
            rng = np.random.Generator(np.random.PCG64(PresetState(state)))
            reference = np.random.default_rng(seed)
            assert np.array_equal(rng.random(16), reference.random(16))
        # it holds one state, for a generator that asks for exactly that
        for n_words, dtype in ((2, np.uint64), (4, np.uint32)):
            with pytest.raises(ValueError, match="holds 4 uint64 words"):
                PresetState(state).generate_state(n_words, dtype)

    @pytest.mark.parametrize("skipped", [0, 1, 999, _DRAW_BUFFER + 7])
    def test_advance_skips_uniform_draws(self, skipped):
        # a count-independent batch row advances past its early rounds
        seeds = np.array([3, 2**40 + 5], dtype=np.uint64)
        rngs, references = (preset_generators(sample_states(seeds, 2)) for _ in range(2))
        for rng, reference in zip(rngs, references):
            rng.bit_generator.advance(skipped)
            assert np.array_equal(rng.random(50), reference.random(skipped + 50)[skipped:])
            assert rng.bit_generator.state == reference.bit_generator.state


def mixed_batch(n: int, rounds: int) -> list[SimulationConfig]:
    """Configs that differ in everything a batch row reads from its cell:
    population split, payment family and round-0 effort; seeds of one and
    of two 32-bit words.  The fourth pays a unanimous vote double a high
    threshold reward, so its response row changes from 0 to 1 others and
    from n-2 to n-1, and its runs reach both ends.  The last one's reward
    never activates a juror, so its response row ignores the vote count."""
    table = tuple(float(v) for v in np.linspace(-1.0, 4.0, n))
    edges = tuple(200.0 if k == n else 100.0 if 2 * k >= n else 0.0 for k in range(1, n + 1))
    cells = [
        (0.0, ThresholdPayment(3.0), 1.0, 5),
        (0.37, KlerosPayment(1.0, 2.0), 0.5, 2**40 + 3),
        (1.0, TabulatedPayment(n, table), 2.0, 2**64 - 1),
        (0.5, TabulatedPayment(n, edges), 0.0, 7),
        (0.37, ThresholdPayment(4.0), 0.0, 0),
        (1.0, AwardLossSharingPayment(50.0), 1.5, 2**32),
        (0.6, ThresholdPayment(1.5), 0.5, 11),
    ]
    return [
        SimulationConfig(n=n, rho=rho, payment=pay, epsilon=eps, rounds=rounds, seed=seed)
        for rho, pay, eps, seed in cells
    ]


class TestBatch:
    def test_mixed_batch_matches_cells_and_replays(self):
        n, rounds, samples = 60, 300, 4
        configs = mixed_batch(n, rounds)
        # 24 stepped rows of 60 draws per round: the buffer is filled in 4
        # blocks; the 4 rows of the count-independent config skip ahead
        assert np.all(_response_row(configs[-1].payment, n) == 0.5)
        edge_row = _response_row(configs[3].payment, n)
        assert edge_row[0] != edge_row[1] and edge_row[-2] != edge_row[-1]
        assert (len(configs) - 1) * samples * n * (rounds + 1) > 2 * _DRAW_BUFFER
        estimates = correctness_estimates(configs, samples)
        singles = [correctness_estimate(cfg, samples) for cfg in configs]
        assert estimates.tolist() == singles
        replays = [
            [
                simulate(dataclasses.replace(cfg, seed=derive_seed(cfg.seed, k)))
                for k in range(samples)
            ]
            for cfg in configs
        ]
        assert estimates.tolist() == [
            sum(t.final_correct for t in runs) / samples for runs in replays
        ]
        # the edge cell's runs reach both ends of its row and match the
        # per-juror loop
        assert {0, 1, n - 1, n} <= {s.t_count for t in replays[3] for s in t.states}
        assert [
            [(s.informed, s.misinformed) for s in t.states] for t in replays[3]
        ] == reference_runs(configs[3], samples)
        seeds = np.array([cfg.seed for cfg in configs], dtype=np.uint64)
        rngs = preset_generators(sample_states(seeds, samples))
        votes = _run_batch(configs, rngs, _response_rows(configs))
        finals = [t.states[-1] for runs in replays for t in runs]
        informed = [assign_population(n, cfg.rho) for cfg in configs for _ in range(samples)]
        assert [(s.informed, s.misinformed) for s in finals] == [
            (int(row[:i].sum()), int(row[i:].sum())) for row, i in zip(votes, informed)
        ]

    def test_count_independent_rows_keep_their_streams(self):
        n, rounds, samples = 40, 30, 3
        cells = [(0.0, 0.0, 1), (0.5, 1.5, 2**40 + 9), (1.0, 2.0, 2**32 - 1)]
        configs = [
            config(n=n, rounds=rounds, rho=r, payment=ThresholdPayment(w), seed=s)
            for r, w, s in cells
        ]
        seeds = np.array([cfg.seed for cfg in configs], dtype=np.uint64)
        rngs = preset_generators(sample_states(seeds, samples))
        votes = _run_batch(configs, rngs, _response_rows(configs))
        for c, cfg in enumerate(configs):
            informed = assign_population(n, cfg.rho)
            for k in range(samples):
                row, rng = votes[c * samples + k], rngs[c * samples + k]
                # each row ends where a stepped run would: n draws per round
                reference = np.random.default_rng(derive_seed(cfg.seed, k))
                reference.random(n * (rounds + 1))
                assert rng.bit_generator.state == reference.bit_generator.state
                replay = simulate(dataclasses.replace(cfg, seed=derive_seed(cfg.seed, k)))
                last = replay.states[-1]
                assert (last.informed, last.misinformed) == (
                    int(row[:informed].sum()),
                    int(row[informed:].sum()),
                )

    def test_shared_payment_builds_one_table(self, monkeypatch):
        builds = []

        def counting(payment, n):
            builds.append(payment)
            return _response_row(payment, n)

        monkeypatch.setattr(dynamics, "_response_row", counting)
        # equal payments built apart count as one
        cells = [(0.0, 1.0, 3), (0.3, 0.5, 2**40), (0.6, 2.0, 7), (1.0, 0.0, 0), (0.9, 1.5, 2**63)]
        configs = [
            config(n=40, rounds=20, rho=r, epsilon=e, seed=s, payment=KlerosPayment(1.0, 2.0))
            for r, e, s in cells
        ]
        estimates = correctness_estimates(configs, 6)
        assert builds == [KlerosPayment(1.0, 2.0)]
        singles = np.array([correctness_estimate(cfg, 6) for cfg in configs])
        assert len(builds) == 1 + len(configs)
        assert estimates.tobytes() == singles.tobytes()

    def test_one_row_build_per_payment_across_batches(self, monkeypatch):
        builds, batches = [], []

        def counting(payment, n):
            builds.append(payment)
            return _response_row(payment, n)

        def recording(configs, rngs, rows, record=None):
            batches.append(len(configs))
            return _run_batch(configs, rngs, rows, record)

        payments = [
            ThresholdPayment(3.0),
            KlerosPayment(1.0, 2.0),
            AwardLossSharingPayment(800.0),
        ]
        configs = [
            config(rho=0.1 * (c + 1), payment=payments[c % 3], rounds=10, seed=c)
            for c in range(9)
        ]
        samples = 20
        monkeypatch.setattr(dynamics, "_response_row", counting)
        monkeypatch.setattr(dynamics, "_run_batch", recording)
        monkeypatch.setattr(dynamics, "_BATCH_DRAWS", 2**13)
        estimates = correctness_estimates(configs, samples)
        # three batches, the last one partial, and one build per payment
        assert batch_cells(100, samples) == 4 and batches == [4, 4, 1]
        assert len(builds) == 3 and set(builds) == set(payments)
        singles = np.array([correctness_estimate(cfg, samples) for cfg in configs])
        assert estimates.tobytes() == singles.tobytes()

    @pytest.mark.parametrize("buffer", [160, 16])
    def test_seed_groups_stay_bounded(self, buffer, monkeypatch):
        n, samples = 400, 6
        monkeypatch.setattr(dynamics, "_BATCH_DRAWS", 2**13)
        configs = [
            config(n=n, rho=(c % 7) / 6, payment=ThresholdPayment(c / 5), rounds=5, seed=c)
            for c in range(30)
        ]
        expected = correctness_estimates(configs, samples)
        # batches of 3 configs, 18 samples; a cap of 40 samples holds two
        # batches, a cap of 4 samples less than one
        batch = batch_cells(n, samples) * samples
        assert batch == 18
        sizes = []

        def recording(seeds, count):
            sizes.append(len(seeds) * count)
            return sample_states(seeds, count)

        monkeypatch.setattr(_seeding, "sample_states", recording)
        monkeypatch.setattr(dynamics, "_DRAW_BUFFER", buffer)
        estimates = correctness_estimates(configs, samples)
        assert sum(sizes) == len(configs) * samples and len(sizes) > 1
        assert all(size <= max(buffer // 4, batch) for size in sizes)
        assert max(sizes) == (36 if buffer == 160 else 18)
        assert estimates.tobytes() == expected.tobytes()

    def test_batch_rejects_mixed_shapes(self):
        base = config(n=10, rounds=3)
        for other in (dataclasses.replace(base, n=11), dataclasses.replace(base, rounds=4)):
            with pytest.raises(ValueError, match="share n and rounds"):
                correctness_estimates([base, other], 2)
        with pytest.raises(ValueError):
            correctness_estimates([], 2)
