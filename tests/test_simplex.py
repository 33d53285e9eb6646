import math
import tracemalloc

import numpy as np
import pytest

from jurymech.equilibrium import verify_equilibrium
from jurymech.model import Strategy, StrategyProfile, TabulatedPayment, expected_vote_advantage
from jurymech.payment_design import DesignOptions, binomial_weights, build_lp, design_payments
from jurymech.simplex import LinearProgram, SolveStatus, _pivot, solve
from oracles import DESIGN_OPTIONS, WELL, scaled_candidates


def lp(c, ge=None, ge_rhs=None, eq=None, eq_rhs=None, lb=None):
    n = len(c)
    return LinearProgram(
        objective=np.array(c, dtype=float),
        ge_matrix=np.array(ge if ge is not None else []).reshape(-1, n),
        ge_rhs=np.array(ge_rhs if ge_rhs is not None else []),
        eq_matrix=np.array(eq if eq is not None else []).reshape(-1, n),
        eq_rhs=np.array(eq_rhs if eq_rhs is not None else []),
        lower_bounds=np.array(lb if lb is not None else [0.0] * n),
    )


def test_single_variable_bound():
    sol = solve(lp([1.0], ge=[[1.0]], ge_rhs=[3.0]))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.values == pytest.approx([3.0], abs=1e-9)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_two_variable_vertex():
    # minimize x + 2y subject to x + y >= 4, y >= 1
    sol = solve(lp([1.0, 2.0], ge=[[1.0, 1.0], [0.0, 1.0]], ge_rhs=[4.0, 1.0]))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.values == pytest.approx([3.0, 1.0], abs=1e-9)


def test_equality_row():
    # minimize x + y with x + 2y == 4
    sol = solve(lp([1.0, 1.0], eq=[[1.0, 2.0]], eq_rhs=[4.0]))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.values == pytest.approx([0.0, 2.0], abs=1e-9)


def test_infeasible():
    # x >= 3 and x == 1
    sol = solve(lp([1.0], ge=[[1.0]], ge_rhs=[3.0], eq=[[1.0]], eq_rhs=[1.0]))
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.values is None


def test_unbounded_without_lower_bound():
    sol = solve(lp([1.0], lb=[-np.inf]))
    assert sol.status is SolveStatus.UNBOUNDED


def test_unbounded_direction_in_cone():
    # minimize -x subject to x >= 0 only
    sol = solve(lp([-1.0]))
    assert sol.status is SolveStatus.UNBOUNDED


def test_free_variable_takes_negative_value():
    # minimize x subject to x >= -5 encoded as a constraint on a free var
    sol = solve(lp([1.0], ge=[[1.0]], ge_rhs=[-5.0], lb=[-np.inf]))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.values == pytest.approx([-5.0], abs=1e-9)


def test_shifted_lower_bounds():
    # minimize x + y with x >= 2, y >= -1, x + y >= 3
    sol = solve(lp([1.0, 1.0], ge=[[1.0, 1.0]], ge_rhs=[3.0], lb=[2.0, -1.0]))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(3.0, abs=1e-9)


def test_degenerate_vertex_terminates():
    # Three constraints meeting at one point; Bland's rule must not cycle.
    sol = solve(
        lp(
            [1.0, 1.0],
            ge=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            ge_rhs=[1.0, 1.0, 2.0],
        )
    )
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.values == pytest.approx([1.0, 1.0], abs=1e-9)


def test_redundant_equalities():
    sol = solve(
        lp(
            [1.0, 1.0],
            eq=[[1.0, 1.0], [2.0, 2.0]],
            eq_rhs=[2.0, 4.0],
        )
    )
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective_value == pytest.approx(2.0, abs=1e-9)


def test_random_problems_against_scipy_style_enumeration():
    # Brute-force check on tiny random LPs: enumerate basic feasible points
    # from all constraint pairs and compare objective values.
    rng = np.random.default_rng(19)
    for _ in range(40):
        g = rng.uniform(-1.0, 1.0, size=(4, 2))
        h = rng.uniform(-1.0, 0.5, size=4)
        c = rng.uniform(-1.0, 1.0, size=2)
        problem = lp(list(c), ge=g.tolist(), ge_rhs=h.tolist())

        # candidate vertices: intersections of constraint/bound pairs
        lines = [(g[i], h[i]) for i in range(4)]
        lines += [(np.array([1.0, 0.0]), 0.0), (np.array([0.0, 1.0]), 0.0)]
        best = None
        for (a1, b1), (a2, b2) in [
            (lines[i], lines[j]) for i in range(6) for j in range(i + 1, 6)
        ]:
            mat = np.array([a1, a2])
            if abs(np.linalg.det(mat)) < 1e-9:
                continue
            point = np.linalg.solve(mat, np.array([b1, b2]))
            if np.all(point >= -1e-9) and np.all(g @ point >= h - 1e-9):
                value = float(c @ point)
                best = value if best is None else min(best, value)

        sol = solve(problem)
        if best is None:
            assert sol.status is not SolveStatus.OPTIMAL
        elif sol.status is SolveStatus.OPTIMAL:
            assert sol.objective_value == pytest.approx(best, abs=1e-7)
        else:
            # cost vector points somewhere the cone allows to run off to
            assert sol.status is SolveStatus.UNBOUNDED


def test_dimension_validation():
    with pytest.raises(ValueError):
        LinearProgram(
            objective=np.array([1.0]),
            ge_matrix=np.zeros((1, 1)),
            ge_rhs=np.zeros(2),
            eq_matrix=np.zeros((0, 1)),
            eq_rhs=np.zeros(0),
            lower_bounds=np.zeros(1),
        )
    with pytest.raises(ValueError):
        lp([np.nan])


def _dense_pivot(tableau, basis, row, col):
    # Reference: the full rank-1 update of every tableau cell, the cost row too.
    tableau[row] /= tableau[row, col]
    factor = tableau[:, col].copy()
    factor[row] = 0.0
    tableau -= np.outer(factor, tableau[row])
    basis[row] = col


@pytest.mark.parametrize("shape", ["random", "lone_column", "lone_row"])
def test_sparse_pivot_matches_dense_update(shape):
    rng = np.random.default_rng(23)
    for _ in range(50):
        m, k = rng.integers(1, 9), rng.integers(2, 12)
        tableau = rng.uniform(-2.0, 2.0, size=(m, k))
        tableau[rng.random((m, k)) < 0.6] = 0.0
        row, col = int(rng.integers(m)), int(rng.integers(k - 1))
        tableau[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        if shape == "lone_column":  # no other row needs updating
            tableau[:, col] = np.where(np.arange(m) == row, tableau[row, col], 0.0)
        elif shape == "lone_row":  # no other column needs updating
            tableau[row] = np.where(np.arange(k) == col, tableau[row, col], 0.0)
        basis = rng.integers(0, k, size=m)

        want = (tableau.copy(), basis.copy())
        _dense_pivot(*want, row, col)
        _pivot(tableau, basis, row, col)
        assert np.array_equal(tableau, want[0])
        assert np.array_equal(basis, want[1])


def test_tableau_memory_is_bounded():
    # The tableau is one (203, 403) array of the real columns and the rhs,
    # its last row the reduced costs, about 0.65 MB, which phase two reuses
    # in place; the solve peaks at about 1.15 MB.  With the 202 artificial
    # columns stored and a phase-two copy it peaked at 2.12 MB; assembled
    # from stacked blocks and identity matrices, at about 4.3 MB.
    options = DesignOptions(individual_rationality=True)
    tracemalloc.start()
    try:
        sol = solve(build_lp(201, 0.75, options=options))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.status is SolveStatus.OPTIMAL
    assert peak < 1_750_000


DESIGN_LPS = [(n, x) for n in (5, 11, 51) for x in (0.6, 0.75, 0.9)]


@pytest.mark.parametrize("n,x", DESIGN_LPS)
def test_design_lp_optimum(n, x):
    lp = build_lp(n, x)
    sol = solve(lp)
    assert sol.status is SolveStatus.OPTIMAL
    values = sol.values
    assert np.min(lp.ge_matrix @ values - lp.ge_rhs) >= -1e-9
    assert abs(lp.eq_matrix @ values - lp.eq_rhs)[0] <= 1e-9
    assert np.min(values) >= -1e-12

    # the advantage through two summation orders: the LP equality row and
    # the payment-side expectation; it meets the marginal condition
    table = TabulatedPayment(n, tuple(values))
    advantage = expected_vote_advantage(table, binomial_weights(n, x), n)
    assert abs(float((lp.eq_matrix @ values)[0]) - advantage) <= 1e-9
    effort = WELL.inverse(x)
    assert abs(WELL.derivative(effort) * advantage - 1.0) <= 1e-8
    profile = StrategyProfile(tuple((WELL, Strategy(effort, 1.0)) for _ in range(n)))
    assert verify_equilibrium(profile, table, tol=1e-6).is_equilibrium

    target = lp.eq_rhs[0]
    assert abs(target - 1.0 / (1.0 - x)) <= 1e-10 * max(1.0, target)
    # acceptance criterion 4's candidates (one default_rng(4) stream over
    # DESIGN_LPS in order) and 100 more from default_rng(6)
    rng = np.random.default_rng(4)
    for earlier, _ in DESIGN_LPS[: DESIGN_LPS.index((n, x))]:
        rng.uniform(0.05, 1.0, size=(100, earlier))
    for rng in (rng, np.random.default_rng(6)):
        for scaled in scaled_candidates(rng, n, x, target):
            # scaling keeps feasibility: non-negative, condition rows, equality
            assert np.min(lp.ge_matrix @ scaled - lp.ge_rhs) >= -1e-9
            assert abs((lp.eq_matrix @ scaled)[0] - target) <= 1e-9 * target
            assert lp.objective @ scaled >= sol.objective_value - 1e-9


def test_design_lp_without_anchor_is_unbounded():
    lp = build_lp(11, 0.75, options=DesignOptions(lower_bound=-math.inf))
    assert solve(lp).status is SolveStatus.UNBOUNDED


@pytest.mark.parametrize("kind", sorted(DESIGN_OPTIONS))
@pytest.mark.parametrize("x", [0.75, 0.99])
def test_matches_step_design(kind, x):
    # The simplex is right on these small, well-scaled LPs.  Already at
    # n = 21, x = 0.75 it stops 2.3e-8 above the optimum.
    options = DESIGN_OPTIONS[kind]
    sol = solve(build_lp(11, x, options=options))
    assert sol.status is SolveStatus.OPTIMAL
    design = design_payments(11, x, options=options)
    assert design.expected_cost == pytest.approx(sol.objective_value, rel=1e-9)
