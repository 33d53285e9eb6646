"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
Criterion 8 checks determinism on the small preset; the full presets, their
pinned bytes and the 15-minute budget are checked in test_golden.py.
"""

import math

import numpy as np

from jurymech.cli import cli_main
from jurymech.dynamics import SimulationConfig, correctness_estimate
from jurymech.equilibrium import (
    find_symmetric_equilibria,
    mirror,
    others_vote_pmf,
    satisfies_simple_condition,
    verify_equilibrium,
)
from jurymech.model import (
    AwardLossSharingPayment,
    KlerosPayment,
    Strategy,
    StrategyProfile,
    TabulatedPayment,
    ThresholdPayment,
    expected_vote_advantage,
    vote_advantage,
    vote_probability,
)
from jurymech.payment_design import (
    DesignError,
    DesignOptions,
    binomial_weights,
    build_lp,
    design_payments,
)
from oracles import (
    WELL,
    best_response_shortfall,
    enumerated_pmf,
    random_curve,
    random_payment,
    scaled_candidates,
)


def _gate(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def test_criterion_1_equilibrium_structure():
    rng = np.random.default_rng(1)

    # (i) no-effort profiles are equilibria under any payment
    no_effort_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 41))
        payment = random_payment(rng, n)
        agents = tuple(
            (random_curve(rng), Strategy(0.0, float(rng.random()))) for _ in range(n)
        )
        profile = StrategyProfile(agents)
        report = verify_equilibrium(profile, payment)
        no_effort_ok &= report.is_equilibrium
        # (ii) the mirrored profile must verify too
        no_effort_ok &= verify_equilibrium(mirror(profile), payment).is_equilibrium

    # (ii) continued: mirrored non-trivial equilibria
    mirror_ok = True
    for n, x in ((5, 0.6), (11, 0.75), (9, 0.9)):
        payment = design_payments(n, x).payment
        effort = WELL.inverse(x)
        profile = StrategyProfile(tuple((WELL, Strategy(effort, 1.0)) for _ in range(n)))
        mirror_ok &= verify_equilibrium(profile, payment, tol=1e-6).is_equilibrium
        mirror_ok &= verify_equilibrium(mirror(profile), payment, tol=1e-6).is_equilibrium
    roots = find_symmetric_equilibria(WELL, ThresholdPayment(3.0), 100)
    for root in roots:
        profile = StrategyProfile(tuple((WELL, Strategy(root, 1.0)) for _ in range(100)))
        mirror_ok &= verify_equilibrium(profile, ThresholdPayment(3.0), tol=1e-6).is_equilibrium
        mirror_ok &= verify_equilibrium(
            mirror(profile), ThresholdPayment(3.0), tol=1e-6
        ).is_equilibrium

    # (iii) monotone non-decreasing tables satisfy the simple condition
    monotone_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 61))
        values = np.cumsum(rng.uniform(0.0, 1.0, size=n))
        monotone_ok &= satisfies_simple_condition(TabulatedPayment(n, tuple(values)), n)

    # (iv) advantage antisymmetry, exhaustively for n <= 50
    antisym_ok = True
    for n in range(2, 51):
        payments = [
            ThresholdPayment(2.5),
            AwardLossSharingPayment(3.0 * n),
            KlerosPayment(2.0, 3.0),
            TabulatedPayment(n, tuple(rng.uniform(-3.0, 3.0, size=n))),
        ]
        for payment in payments:
            adv = vote_advantage(payment, n)
            for m in range(n):
                gap = adv[m] + adv[n - 1 - m]
                antisym_ok &= gap == 0.0

    _gate(
        "criterion 1: equilibrium structure",
        no_effort_ok and mirror_ok and monotone_ok and antisym_ok,
        f"no-effort={no_effort_ok} mirror={mirror_ok} "
        f"monotone={monotone_ok} antisymmetry={antisym_ok}",
    )


def test_criterion_2_best_response_oracle():
    rng = np.random.default_rng(2)
    worst_gap = -np.inf
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 31))
        curve = random_curve(rng)
        payment = random_payment(rng, n)
        raw = rng.random(n) ** 2
        gap = best_response_shortfall(curve, payment, raw / raw.sum(), n)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-4
    _gate("criterion 2: best-response oracle", ok, f"worst grid-vs-closed gap {worst_gap:.2e}")


def test_criterion_3_poisson_binomial_exactness():
    rng = np.random.default_rng(3)
    enum_ok = True
    worst = 0.0
    for n in range(2, 13):
        agents = tuple(
            (random_curve(rng), Strategy(float(rng.uniform(0.0, 2.0)), float(rng.random())))
            for _ in range(n)
        )
        profile = StrategyProfile(agents)
        exact = enumerated_pmf([vote_probability(e, s) for e, s in agents[1:]])
        gap = float(np.max(np.abs(others_vote_pmf(profile, 0) - exact)))
        worst = max(worst, gap)
        enum_ok &= gap <= 1e-10

    profile = StrategyProfile(tuple((WELL, Strategy(1.0, 1.0)) for _ in range(100)))
    closed = binomial_weights(100, WELL.value(1.0))
    binom_gap = float(np.max(np.abs(others_vote_pmf(profile, 0) - closed)))
    binom_ok = binom_gap <= 1e-10

    _gate(
        "criterion 3: poisson-binomial exactness",
        enum_ok and binom_ok,
        f"enumeration gap {worst:.1e}, binomial gap {binom_gap:.1e}",
    )


def test_criterion_4_lp_correctness():
    rng = np.random.default_rng(4)
    ok = True
    for n in (5, 11, 51):
        for x in (0.6, 0.75, 0.9):
            lp = build_lp(n, x)
            design = design_payments(n, x)
            values = np.array(design.payment.values)

            residual_min = float(np.min(lp.ge_matrix @ values - lp.ge_rhs))
            ok &= residual_min >= -1e-9

            advantage = expected_vote_advantage(design.payment, binomial_weights(n, x), n)
            marginal = abs(WELL.derivative(WELL.inverse(x)) * advantage - 1.0)
            ok &= marginal <= 1e-8

            effort = WELL.inverse(x)
            profile = StrategyProfile(tuple((WELL, Strategy(effort, 1.0)) for _ in range(n)))
            ok &= verify_equilibrium(profile, design.payment, tol=1e-6).is_equilibrium

            target = lp.eq_rhs[0]
            ok &= abs(target - 1.0 / (1.0 - x)) <= 1e-10 * max(1.0, target)
            for scaled in scaled_candidates(rng, n, x, target):
                ok &= float(lp.objective @ scaled) >= design.expected_cost - 1e-9
    _gate("criterion 4: LP correctness", ok, "9 instances")


def test_criterion_5_unboundedness_guard():
    try:
        design_payments(11, 0.75, options=DesignOptions(lower_bound=-math.inf))
    except DesignError as err:
        status = err.status
    else:
        status = "a table"
    _gate(
        "criterion 5: unboundedness guard",
        status == "unbounded",
        f"status={status}",
    )


def test_criterion_6_dynamics_reproduction():
    def rate(rho, payment, epsilon):
        cfg = SimulationConfig(
            n=100, rho=rho, payment=payment, epsilon=epsilon, rounds=50, seed=0
        )
        return correctness_estimate(cfg, 20)

    thr3 = ThresholdPayment(3.0)
    award = AwardLossSharingPayment(2500.0)
    checks = {
        "a: rho=0.9 w=3 >= 0.95": rate(0.9, thr3, 1.0) >= 0.95,
        "a: rho=0.1 w=3 <= 0.05": rate(0.1, thr3, 1.0) <= 0.05,
        "a: rho=0.9 w=1 in [0.2,0.8]": 0.2 <= rate(0.9, ThresholdPayment(1.0), 1.0) <= 0.8,
        "b: rho=0.95 award >= 0.9": rate(0.95, award, 1.0) >= 0.9,
        "b: rho=0.05 award <= 0.1": rate(0.05, award, 1.0) <= 0.1,
        "c: eps=0.05 in [0.15,0.85]": 0.15 <= rate(0.9, thr3, 0.05) <= 0.85,
        "c: eps=2 >= 0.95": rate(0.9, thr3, 2.0) >= 0.95,
    }
    failed = [name for name, passed in checks.items() if not passed]
    _gate(
        "criterion 6: dynamics reproduction",
        not failed,
        "failed: " + "; ".join(failed) if failed else "7 checks",
    )


def test_criterion_7_concentration_sanity():
    # tail of 100 fair-quality-0.75 voters dipping to a minority
    weights = binomial_weights(101, 0.75)  # law of a 100-trial count
    tail = float(weights[:51].sum())
    bound = math.exp(-2.0 * 100 * 0.25**2)
    _gate(
        "criterion 7: concentration sanity",
        tail <= bound,
        f"tail {tail:.3e} <= bound {bound:.3e}",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    outputs = []
    for threads, name in (("1", "run1"), ("1", "run2"), ("8", "run8")):
        out_dir = tmp_path / name
        code = cli_main(
            [
                "sweep", "--preset", "fig1a-small", "--out", str(out_dir),
                "--threads", threads,
            ]
        )
        assert code == 0
        outputs.append((out_dir / "fig1a-small.csv").read_bytes())
    _gate(
        "criterion 8: sweep determinism",
        outputs[0] == outputs[1] == outputs[2],
        "fig1a-small bit-identical across reruns and 1 vs 8 workers;"
        " full fig1a-c pinned and timed in test_golden.py::test_sweep_csv",
    )
