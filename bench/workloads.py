"""Inputs and timed bodies of the three benchmark workloads.

``make_inputs`` turns a seed into the workload's inputs (plain JSON data,
plus a sweep config file for the sweeps).  ``run_once`` performs the whole
workload once through jurymech's public calls and returns the time of each
operation and the outputs the checks need.

Every pass is kept to a few seconds, so that a run holds many passes and
their median is steady on a shared host.

Why these workloads:

* sweep-fig1a: the paper's Fig. 1a cell settings (threshold reward 0..5,
  n=100, 50 rounds, 20 samples, starter effort 1) on a 10x10 grid, run
  through ``jurymech sweep --config``.  Monte Carlo dynamics do most of the
  work: seed derivation, generator set-up and the per-round update.
* sweep-bigjury (run by hand; BENCHMARK.json lists the other two, so
  that each run can be 50 seconds long): the same sweep and pool path on
  the initial-effort axis with a seeded non-decreasing payment table and
  n=1001, 3 rounds and 2 samples per cell, on a 10x10 grid.  The per-cell
  response-table build (n vote advantages through the table lookup, n
  best responses per curve) dominates, so a Monte Carlo change should
  barely move it while a payment-table change should move it most.
* design-eq: the library flow of the README without dynamics.  LP payment
  design over n in {51, 101, 201}, plain and individual-rationality,
  targets drawn near 0.51, 0.75 and 0.99, plus monotone designs at
  n <= 101; then symmetric-equilibrium search at n=100 and the O(n^3)
  verifier on its roots and on a seeded heterogeneous profile.  It
  is the only workload that loads simplex, payment_design and the
  verifier.  Its equilibrium inputs never depend on the LP results, so an
  LP fix cannot change how much equilibrium work is done.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

import jurymech.cli
import jurymech.equilibrium
import jurymech.payment_design
import jurymech.simplex
import jurymech.sweep
from jurymech.model import (
    AgentKind,
    EffortProfile,
    Strategy,
    StrategyProfile,
    ThresholdPayment,
)

WORKLOADS = ("sweep-fig1a", "sweep-bigjury", "design-eq")
SWEEPS = ("sweep-fig1a", "sweep-bigjury")

# Design targets are drawn uniformly from these bands around 0.51, 0.75
# and 0.99.  The design LP is known to fail erratically inside them.
TARGET_BANDS = {"lo": (0.505, 0.515), "mid": (0.74, 0.76), "hi": (0.985, 0.995)}
LP_SIZES = (51, 101, 201)
MONOTONE_MAX_N = 101
# Whether a target in a band fails is erratic, so the cheap plain and IR
# cases (n <= 101, under 0.03 s each) draw several targets per band and
# their failures average out across seeds; n=201 and monotone cases cost
# 0.1-0.2 s each and draw one.
CHEAP_LP_MAX_N = 101
CHEAP_LP_DRAWS = 3
EQ_SIZES = (100,)
VERIFY_TOL = 1e-6

# A spinning simplex ends as a counted pivot-limit failure after about a
# fifth of a second: a pivot updates every tableau cell, at roughly 3 ns per
# cell on the 2-core Xeon the baseline was taken on.  Kept short because
# how many cases spin changes with the seed, and each spin adds its whole
# budget to wall_s.  Every case still gets at least 3 pivots per row, well
# above what its optimal solves need.
_CELL_UPDATES_PER_CASE = 30_000_000
_MIN_PIVOTS_PER_ROW = 3


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def lp_shape(n: int, option: str) -> tuple[int, int]:
    """Rows and columns of the phase-one tableau ``solve`` builds for a
    design LP: simple-condition rows, optional monotone and IR rows, one
    equality; columns are variables, surplus, artificials and the rhs."""
    num_ge = (n - 1) + (n - 1 if option == "monotone" else 0) + (option == "ir")
    rows = num_ge + 1
    return rows, n + num_ge + rows + 1


def pivot_budget(n: int, option: str) -> int:
    rows, cols = lp_shape(n, option)
    return max(_MIN_PIVOTS_PER_ROW * rows, _CELL_UPDATES_PER_CASE // (rows * cols))


def _sweep_inputs(workload: str, rng: np.random.Generator, work: Path) -> dict:
    master_seed = int(rng.integers(2**63))
    if workload == "sweep-fig1a":
        config = jurymech.sweep.SweepConfig(
            axis=jurymech.sweep.Axis.REWARD_THRESHOLD,
            x_min=0.0,
            x_max=5.0,
            x_steps=10,
            rho_steps=10,
            n=100,
            rounds=50,
            samples=20,
            epsilon=1.0,
            master_seed=master_seed,
        )
    else:
        n = 1001
        omega = float(rng.uniform(2.5, 3.5))
        ramp = np.cumsum(rng.exponential(size=n))
        k = np.arange(1, n + 1)
        table = omega * (2 * k >= n) + 0.5 * ramp / ramp[-1]
        config = jurymech.sweep.SweepConfig(
            axis=jurymech.sweep.Axis.INITIAL_EFFORT,
            x_min=0.0,
            x_max=5.0,
            x_steps=10,
            rho_steps=10,
            n=n,
            rounds=3,
            samples=2,
            payment_kind="table",
            payment_values=tuple(float(v) for v in table),
            master_seed=master_seed,
        )
    path = work / f"{workload}.json"
    path.write_text(jurymech.sweep.config_to_json(config), encoding="utf-8")
    return {"config_path": str(path)}


def _hetero_agents(rng: np.random.Generator, n: int) -> list[list]:
    """Mixed kinds, a fifth at zero effort, fidelity 0 or 1."""
    agents = []
    for _ in range(n):
        kind = "well-informed" if rng.random() < 0.7 else "misinformed"
        effort = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.5))
        agents.append([kind, effort, float(rng.integers(2))])
    return agents


def _design_inputs(rng: np.random.Generator) -> dict:
    cases = []
    for n in LP_SIZES:
        options = ("plain", "ir") + (("monotone",) if n <= MONOTONE_MAX_N else ())
        for option in options:
            draws = 1 if n > CHEAP_LP_MAX_N or option == "monotone" else CHEAP_LP_DRAWS
            for band, (lo, hi) in TARGET_BANDS.items():
                for x in rng.uniform(lo, hi, size=draws):
                    cases.append(
                        {
                            "n": n,
                            "option": option,
                            "band": band,
                            "x": float(x),
                            "max_pivots": pivot_budget(n, option),
                        }
                    )
    equilibria = [
        {
            "n": n,
            "reward": float(rng.uniform(2.8, 4.0)),  # two roots at n=100
            "hetero": _hetero_agents(rng, n),
        }
        for n in EQ_SIZES
    ]
    return {"lp_cases": cases, "equilibria": equilibria}


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    rng = _rng(workload, seed)
    if workload in SWEEPS:
        return _sweep_inputs(workload, rng, work)
    return _design_inputs(rng)


def lp_case_id(case: dict) -> str:
    return f"lp n={case['n']} {case['option']} {case['band']} x={case['x']:.6f}"


def design_options(option: str) -> jurymech.payment_design.DesignOptions:
    return jurymech.payment_design.DesignOptions(
        require_monotone=option == "monotone",
        individual_rationality=option == "ir",
    )


def profile_from(agents: list[list]) -> StrategyProfile:
    return StrategyProfile(
        tuple(
            (EffortProfile(AgentKind(kind)), Strategy(effort, fidelity))
            for kind, effort, fidelity in agents
        )
    )


def symmetric_profile(n: int, effort: float) -> StrategyProfile:
    well = EffortProfile(AgentKind.WELL_INFORMED)
    return StrategyProfile(tuple((well, Strategy(effort, 1.0)) for _ in range(n)))


def _error(err: Exception) -> dict:
    return {"error": f"{type(err).__name__}: {err}"}


def _run_lp(case: dict) -> dict:
    try:
        lp = jurymech.payment_design.build_lp(
            case["n"], case["x"], options=design_options(case["option"])
        )
        solution = jurymech.simplex.solve(lp, max_pivots=case["max_pivots"])
    except jurymech.simplex.PivotLimitError as err:
        return {"status": "pivot_limit", **_error(err)}
    except Exception as err:  # an operation that raises is a counted failure
        return {"status": "error", **_error(err)}
    values = None if solution.values is None else [float(v) for v in solution.values]
    return {
        "status": solution.status.value,
        "values": values,
        "objective": solution.objective_value,
    }


def _verify(profile: StrategyProfile, payment: ThresholdPayment) -> dict:
    try:
        report = jurymech.equilibrium.verify_equilibrium(profile, payment, tol=VERIFY_TOL)
    except Exception as err:  # counted failure
        return _error(err)
    return {
        "is_equilibrium": report.is_equilibrium,
        "cases": [v.case for v in report.per_agent],
        "residuals": [v.residual for v in report.per_agent],
    }


def _timed(times: dict, outputs: dict, op: str, fn) -> None:
    started = time.perf_counter()
    outputs[op] = fn()
    times[op] = time.perf_counter() - started


def _lp_job(case: dict) -> tuple[dict, dict]:
    times: dict[str, float] = {}
    outputs: dict[str, dict] = {}
    _timed(times, outputs, lp_case_id(case), lambda: _run_lp(case))
    return times, outputs


def _find(payment: ThresholdPayment, n: int) -> dict:
    well = EffortProfile(AgentKind.WELL_INFORMED)
    try:
        roots = jurymech.equilibrium.find_symmetric_equilibria(well, payment, n)
    except Exception as err:  # counted failure
        return _error(err)
    return {"roots": [float(r) for r in roots]}


def _roots_job(eq: dict) -> tuple[dict, dict]:
    """Symmetric-equilibrium search, then the verifier on every root."""
    n = eq["n"]
    payment = ThresholdPayment(eq["reward"])
    times: dict[str, float] = {}
    outputs: dict[str, dict] = {}
    find_op = f"find n={n}"
    _timed(times, outputs, find_op, lambda: _find(payment, n))
    for i, root in enumerate(outputs[find_op].get("roots", [])):
        profile = symmetric_profile(n, root)
        _timed(times, outputs, f"verify root {i} n={n}", lambda: _verify(profile, payment))
    return times, outputs


def _hetero_job(eq: dict) -> tuple[dict, dict]:
    profile = profile_from(eq["hetero"])
    payment = ThresholdPayment(eq["reward"])
    times: dict[str, float] = {}
    outputs: dict[str, dict] = {}
    _timed(times, outputs, f"verify hetero n={eq['n']}", lambda: _verify(profile, payment))
    return times, outputs


def _design_jobs(inputs: dict) -> list[tuple]:
    """Independent pieces of the design workload, largest first."""
    jobs = [(_roots_job, eq) for eq in inputs["equilibria"]]
    jobs += [(_hetero_job, eq) for eq in inputs["equilibria"]]
    jobs += [(_lp_job, case) for case in inputs["lp_cases"]]
    jobs.sort(key=lambda job: -job[1]["n"])
    return jobs


def _call(job: tuple) -> tuple[dict, dict]:
    fn, arg = job
    return fn(arg)


def _run_design(inputs: dict, threads: int) -> tuple[dict, dict]:
    """On 1 worker every operation is timed on its own.  On 2 workers the
    jobs go to a process pool, since the library has no parallel entry
    point of its own, and the pass is timed as a whole."""
    jobs = _design_jobs(inputs)
    times: dict[str, float] = {}
    outputs: dict[str, dict] = {}
    started = time.perf_counter()
    if threads == 1:
        results = [_call(job) for job in jobs]
    else:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=threads, mp_context=context) as pool:
            results = list(pool.map(_call, jobs))
    elapsed = time.perf_counter() - started
    for job_times, job_outputs in results:
        times.update(job_times)
        outputs.update(job_outputs)
    if threads != 1:
        times = {f"design {threads}w": elapsed}
    return times, outputs


@contextlib.contextmanager
def _capture_sweep_result(into: list):
    """Keep the SweepResult that the CLI computes, so its grid can be
    checked; the CLI itself only writes the rounded CSV."""
    original = jurymech.cli.run_sweep

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        into.append(result)
        return result

    jurymech.cli.run_sweep = capturing
    try:
        yield
    finally:
        jurymech.cli.run_sweep = original


def _run_sweep(workload: str, inputs: dict, work: Path, threads: int) -> tuple[dict, dict]:
    out = work / f"out-{threads}w"
    argv = ["sweep", "--config", inputs["config_path"], "--out", str(out)]
    argv += ["--threads", str(threads)]
    captured: list = []
    stdout = io.StringIO()
    started = time.perf_counter()
    with _capture_sweep_result(captured), contextlib.redirect_stdout(stdout):
        try:
            code = jurymech.cli.cli_main(argv)
            error = None
        except Exception as err:  # counted failure
            code, error = None, f"{type(err).__name__}: {err}"
    elapsed = time.perf_counter() - started
    output: dict = {"exit_code": code, "error": error, "threads": threads}
    if code == 0 and captured:
        output["grid"] = captured[0].grid.tolist()
        output["csv"] = (out / f"{workload}.csv").read_text(encoding="utf-8")
        output["svg_sha256"] = hashlib.sha256((out / f"{workload}.svg").read_bytes()).hexdigest()
    return {f"sweep {threads}w": elapsed}, {f"sweep {threads}w": output}


def run_once(workload: str, inputs: dict, work: Path, threads: int) -> tuple[dict, dict]:
    """One pass over the workload: (seconds per operation, outputs)."""
    if workload in SWEEPS:
        return _run_sweep(workload, inputs, work, threads)
    return _run_design(inputs, threads)


def tableau_cells(inputs: dict) -> int:
    """Phase-one tableau cells over all design LPs, computed from the shape."""
    total = 0
    for case in inputs.get("lp_cases", []):
        rows, cols = lp_shape(case["n"], case["option"])
        total += rows * cols
    return total
