"""Golden outputs: the sha256 of the sweep CSVs (the small presets at one
worker and through a pool of two, the paper's full Fig. 1a-c presets once
each through the pool and within the spec's 15-minute budget), of one
simulate dump, of a grid of design LPs (their arrays, their simplex results
and their closed-form designs) and of a set of symmetric-equilibrium roots.
Any change to a random stream, a response table, the output format, a
design or a simplex pivot moves one of these hashes, so a refactor that
claims bit-identical output is checked here rather than by hand.  An
installed package, imported in place of src/, must reproduce them too."""

import collections
import dataclasses
import hashlib
import time

import pytest

from jurymech.cli import cli_main
from jurymech.equilibrium import find_symmetric_equilibria
from jurymech.model import AgentKind, EffortProfile, KlerosPayment, ThresholdPayment
from jurymech.payment_design import build_lp, design_payments
from jurymech.simplex import solve
from oracles import DESIGN_OPTIONS

SWEEP_CSV_SHA256 = {
    "fig1a-small": "fd165a041105efa71ef1b51bddd52b87277e8997fa728044d020f3861e2b0351",
    "fig1b-small": "7c42062ff23ccf72a1118bf703ccde71c63a5f30273ef047f89c9d9b22528e45",
    "fig1c-small": "737f4d59c74ed49378e90fce3b99ffe99d0db8a2d2f14e43331c0706d9c49168",
    # the paper's Fig. 1a-c in full, run only through the pool of two
    "fig1a": "9552b9c36c000efa521a824039a813b513ebddeac2cc188f210f9af2730867ff",
    "fig1b": "58431cb1395708b824f375cbfd5f3f0db127a6d2160c52b149d5273e322b80fa",
    "fig1c": "ab25fd5a88bf6c57e6de60a6a9ca7c62e8c33004a131a7962406d1918c565e78",
}

SIMULATE_ARGS = [
    "simulate", "--kleros", "1", "2", "--n", "100", "--rho", "0.7",
    "--epsilon", "1", "--rounds", "50", "--seed", "7",
]
SIMULATE_STDOUT_SHA256 = "2576bb1aa06c0e124e1a1c8cb3b3eef05230927a9ae182a2e1fa2da3bc26a3c3"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "preset, threads",
    [pytest.param(p, 1, id=p) for p in sorted(SWEEP_CSV_SHA256) if p.endswith("-small")]
    + [pytest.param(p, 2, id=f"{p}-2w") for p in sorted(SWEEP_CSV_SHA256)],
)
def test_sweep_csv(preset, threads, tmp_path, capsys):
    """The same bytes at one worker and through a real pool of two, and every
    preset within the spec's 15-minute budget."""
    args = ["sweep", "--preset", preset, "--out", str(tmp_path)]
    started = time.perf_counter()
    assert cli_main([*args, "--threads", str(threads)]) == 0
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert sha256((tmp_path / f"{preset}.csv").read_bytes()) == SWEEP_CSV_SHA256[preset]
    assert elapsed < 15 * 60, f"{preset} took {elapsed / 60:.1f} min"


def test_simulate_dump(capsys):
    assert cli_main(SIMULATE_ARGS) == 0
    out = capsys.readouterr().out
    assert out.startswith("0,64\n1,44\n")
    assert sha256(out.encode("utf-8")) == SIMULATE_STDOUT_SHA256


LP_TARGETS = (0.51, 0.75, 0.99)
LP_GRID = [
    (n, kind, x)
    for n in (3, 11, 51, 75, 101)
    for kind in ("plain", "monotone", "ir")
    for x in LP_TARGETS
] + [(201, kind, x) for kind in ("plain", "ir") for x in LP_TARGETS]
LP_GRID_SHA256 = "3c7438db4222eb3ad95f7c750f5a0ff2b49747c82c6f2c05f3c4fbfa890e378e"
BUILD_LP_SHA256 = "b7f3e3af99a9e8370495ce3206bc1fa344bb2a07acc025a625526ee5a277d00f"
DESIGN_SHA256 = "eb6139c389e2d575cfefc7aa0a415d27c5f2b2c59c30f7ff59b39329b3087980"


def test_build_lp_grid():
    """The six arrays of build_lp on every LP_GRID point, byte for byte."""
    digest = hashlib.sha256()
    for n, kind, x in LP_GRID:
        lp = build_lp(n, x, options=DESIGN_OPTIONS[kind])
        for field in dataclasses.fields(lp):
            digest.update(getattr(lp, field.name).tobytes())
    assert digest.hexdigest() == BUILD_LP_SHA256


def test_design_grid():
    """design_payments on every LP_GRID point: the table, the expected cost,
    the target advantage and the equilibrium effort, bit for bit."""
    digest = hashlib.sha256()
    for n, kind, x in LP_GRID:
        d = design_payments(n, x, options=DESIGN_OPTIONS[kind])
        item = (d.payment.values, d.expected_cost, d.target_advantage, d.equilibrium_effort)
        digest.update(repr(item).encode("utf-8"))
    assert digest.hexdigest() == DESIGN_SHA256


def test_design_lp_grid():
    """Every outcome of 51 design LPs at a 1000-pivot budget, byte for byte.

    The grid covers all five outcomes: 40 optimal, 2 infeasible,
    2 unbounded, 3 PivotLimitError and 4 RuntimeError from the feasibility
    guard.  Several of the non-optimal ones, and some optimal ones, are the
    simplex's known defects on the unscaled design LP.  ``design_payments``
    does not use the simplex; it takes the LP's closed-form optimum, which
    test_payment_design.py checks.  This hash pins ``build_lp`` and
    ``solve`` as the benchmark runs them, so a change to either that claims
    the same results must leave it unchanged.
    """
    digest = hashlib.sha256()
    outcomes = collections.Counter()
    for n, kind, x in LP_GRID:
        try:
            sol = solve(build_lp(n, x, options=DESIGN_OPTIONS[kind]), max_pivots=1000)
        except RuntimeError as exc:  # PivotLimitError is a RuntimeError
            item = (type(exc).__name__,)
        else:
            values = None if sol.values is None else sol.values.tobytes()
            item = (sol.status.value, values, repr(sol.objective_value))
        outcomes[item[0]] += 1
        digest.update(repr(item).encode("utf-8"))
    assert outcomes == {
        "optimal": 40,
        "infeasible": 2,
        "unbounded": 2,
        "PivotLimitError": 3,
        "RuntimeError": 4,
    }
    assert digest.hexdigest() == LP_GRID_SHA256


ROOT_CASES = [
    ("threshold", 100, ThresholdPayment(round(2.8 + 0.1 * i, 1))) for i in range(13)
] + [
    (kind, n, payment)
    for n in (2, 3, 11, 100)
    for kind, payment in (
        ("threshold", ThresholdPayment(20.0)),
        ("kleros", KlerosPayment(1.0, 20.0)),
        ("designed", design_payments(n, 0.8).payment),
    )
]
ROOTS_SHA256 = "202dfb5d434d046b652f36de2538a8c54c7730a774a8b4533931300028de868a"


def test_symmetric_roots_at_rate_one():
    """The roots of find_symmetric_equilibria at rate 1, bit for bit: the
    thresholds 2.8..4.0 at n=100 and the payments of the array-scan tests
    (``scan_payment`` in test_equilibrium.py)."""
    well = EffortProfile(AgentKind.WELL_INFORMED)
    digest = hashlib.sha256()
    for kind, n, payment in ROOT_CASES:
        roots = find_symmetric_equilibria(well, payment, n)
        digest.update(repr((kind, n, roots)).encode("utf-8"))
    assert digest.hexdigest() == ROOTS_SHA256
