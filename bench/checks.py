"""Correctness checks, run outside the timed region.

Every check returns one verdict per operation: (operation, ok, reason).
An operation fails when it raised, when an LP that is feasible and bounded
came back with another status than OPTIMAL, when its output differs
between repetitions or worker counts, or when an independent
recomputation disagrees with it.

Stated tolerances:

* LP point feasibility: every ``>=`` row and bound within 1e-7 absolute,
  the equality row within 1e-7 relative to max(1, |rhs|).
* LP optimality: objective at most HiGHS's plus 1e-6 * max(1, |HiGHS|).
  One-sided, because near x = 0.51 the tiny binomial weights make HiGHS
  itself imprecise.
* Designed table: ``verify_equilibrium`` must accept the symmetric profile
  at the target effort with tol 1e-6.
* Equilibrium roots: the independently computed marginal condition within
  1e-6; every sign change of it on a 2001-point grid has a root inside.
* Verifier residuals: within 1e-9 of an independent recomputation.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linprog
from scipy.stats import binom

import jurymech.dynamics
import jurymech.equilibrium
import jurymech.payment_design
import jurymech.sweep
from jurymech.model import AgentKind, EffortProfile, TabulatedPayment

import workloads

FEAS_TOL = 1e-7
OBJ_REL_TOL = 1e-6
ROOT_TOL = 1e-6
RESIDUAL_TOL = 1e-9
ROOT_SCAN_POINTS = 2001
REPLAYED_CELLS = 3
SAMPLED_AGENTS = 8

# Classes of design LP case, as (option, target band), that fail on some
# targets at the commit this benchmark was defined on: the design LP's
# unscaled tableau loses Bland's termination guarantee once binomial
# weights fall below the solver's absolute tolerances.  Their failures
# still count in ``failed``; they only do not make the run incorrect.  Any
# other failing operation does.
KNOWN_LP_DEFECTS = frozenset(
    {
        ("plain", "lo"),
        ("ir", "lo"),
        ("ir", "mid"),
        ("ir", "hi"),
        ("monotone", "lo"),
        ("monotone", "mid"),
    }
)


@dataclasses.dataclass(frozen=True)
class Verdict:
    op: str
    ok: bool
    reason: str = ""
    known_defect: bool = False


def _same(outputs: list[dict], op: str) -> bool:
    first = json.dumps(outputs[0].get(op), sort_keys=True)
    return all(json.dumps(o.get(op), sort_keys=True) == first for o in outputs[1:])


# --- sweeps -----------------------------------------------------------------


def _csv_matches(config: jurymech.sweep.SweepConfig, grid: list, csv: str) -> bool:
    lines = ["rho,x,correctness"]
    for i, rho in enumerate(config.rho_values()):
        for j, x in enumerate(config.x_values()):
            lines.append(f"{rho:.6f},{x:.6f},{grid[i][j]:.4f}")
    return csv == "\n".join(lines) + "\n"


def _replay(config: jurymech.sweep.SweepConfig, row: int, col: int) -> float:
    """Mean of standalone simulate() runs over the cell's derived seeds."""
    cell = config.cell_simulation(row, col)
    correct = 0
    for k in range(config.samples):
        seed = jurymech.dynamics.derive_seed(cell.seed, k)
        correct += jurymech.dynamics.simulate(
            dataclasses.replace(cell, seed=seed)
        ).final_correct
    return correct / config.samples


def _replay_cells(grid: list, seed: int) -> list[tuple[int, int]]:
    """Cells picked by the seed, among those whose samples disagree (a cell
    that is always or never correct hides a wrong sample stream)."""
    values = np.array(grid)
    mixed = np.argwhere((values > 0.0) & (values < 1.0))
    pool = mixed if len(mixed) >= REPLAYED_CELLS else np.argwhere(np.isfinite(values))
    rng = np.random.default_rng([seed, 2000])
    picked = rng.choice(len(pool), size=min(REPLAYED_CELLS, len(pool)), replace=False)
    return [(int(pool[k][0]), int(pool[k][1])) for k in sorted(picked)]


def check_sweep(inputs: dict, passes: list[dict], seed: int) -> list[Verdict]:
    """One verdict per sweep invocation and per replayed cell.

    The first successful single-worker invocation is the reference; every
    invocation, on 1 or 2 workers, must match its grid, CSV and SVG bytes.
    """
    config = jurymech.sweep.config_from_json(
        Path(inputs["config_path"]).read_text(encoding="utf-8")
    )
    runs = [(op, out) for outputs in passes for op, out in outputs.items()]
    reference = next(
        (out for op, out in runs if out["threads"] == 1 and out["exit_code"] == 0), None
    )
    verdicts = []
    for index, (op, out) in enumerate(runs):
        name = f"{op} #{index}"
        if out["exit_code"] != 0:
            verdicts.append(Verdict(name, False, f"exit {out['exit_code']} {out['error']}"))
        elif reference is None:
            verdicts.append(Verdict(name, False, "no single-worker reference"))
        elif out["grid"] != reference["grid"]:
            verdicts.append(Verdict(name, False, "grid differs from the 1-worker grid"))
        elif out["csv"] != reference["csv"] or out["svg_sha256"] != reference["svg_sha256"]:
            verdicts.append(Verdict(name, False, "CSV or SVG bytes differ"))
        elif not _csv_matches(config, out["grid"], out["csv"]):
            verdicts.append(Verdict(name, False, "CSV does not print the grid"))
        else:
            verdicts.append(Verdict(name, True))
    if reference is None:
        return verdicts + [Verdict("replay", False, "no reference grid")]
    for row, col in _replay_cells(reference["grid"], seed):
        name = f"replay cell ({row}, {col})"
        expected = reference["grid"][row][col]
        got = _replay(config, row, col)
        verdicts.append(
            Verdict(name, got == expected, f"replayed {got!r}, grid holds {expected!r}")
        )
    return verdicts


# --- design LPs ---------------------------------------------------------------


def _highs(lp) -> tuple[int, float]:
    result = linprog(
        lp.objective,
        A_ub=-lp.ge_matrix,
        b_ub=-lp.ge_rhs,
        A_eq=lp.eq_matrix,
        b_eq=lp.eq_rhs,
        bounds=[(lb if math.isfinite(lb) else None, None) for lb in lp.lower_bounds],
        method="highs",
    )
    return result.status, float(result.fun) if result.status == 0 else math.nan


def _violation(lp, values: np.ndarray) -> float:
    worst = 0.0
    if lp.ge_matrix.size:
        worst = max(worst, float(np.max(lp.ge_rhs - lp.ge_matrix @ values)))
    if lp.eq_matrix.size:
        scale = np.maximum(1.0, np.abs(lp.eq_rhs))
        worst = max(worst, float(np.max(np.abs(lp.eq_matrix @ values - lp.eq_rhs) / scale)))
    finite = np.isfinite(lp.lower_bounds)
    if finite.any():
        worst = max(worst, float(np.max(lp.lower_bounds[finite] - values[finite])))
    return worst


def _check_lp(case: dict, out: dict) -> tuple[bool, str]:
    lp = jurymech.payment_design.build_lp(
        case["n"], case["x"], options=workloads.design_options(case["option"])
    )
    highs_status, highs_obj = _highs(lp)
    if highs_status != 0:
        expected = {2: "infeasible", 3: "unbounded"}.get(highs_status)
        ok = out["status"] == expected
        return ok, f"HiGHS status {highs_status}, solver {out['status']}"
    if out["status"] != "optimal":
        return False, f"{out['status']} on a feasible bounded LP {out.get('error', '')}".rstrip()
    values = np.array(out["values"])
    violation = _violation(lp, values)
    if violation > FEAS_TOL:
        return False, f"point violates a constraint by {violation:.3g}"
    limit = highs_obj + OBJ_REL_TOL * max(1.0, abs(highs_obj))
    if out["objective"] > limit:
        return False, f"objective {out['objective']:.6g} above HiGHS {highs_obj:.6g}"
    well = EffortProfile(AgentKind.WELL_INFORMED)
    report = jurymech.equilibrium.verify_equilibrium(
        workloads.symmetric_profile(case["n"], well.inverse(case["x"])),
        TabulatedPayment(case["n"], tuple(out["values"])),
        tol=workloads.VERIFY_TOL,
    )
    if not report.is_equilibrium:
        worst = max(v.residual for v in report.per_agent)
        return False, f"designed table is not an equilibrium (residual {worst:.3g})"
    return True, f"objective {out['objective']:.6g}, HiGHS {highs_obj:.6g}"


# --- equilibria -----------------------------------------------------------------


def _threshold_advantages(reward: float, n: int) -> np.ndarray:
    """Vote advantage of a threshold payment for each count m of others."""
    m = np.arange(n)
    return reward * ((2 * (1 + m) >= n).astype(float) - (2 * (n - m) >= n).astype(float))


def _quality(kind: str, effort: float) -> float:
    half = math.exp(-effort) / 2.0
    return 1.0 - half if kind == "well-informed" else half


def _slope(kind: str, effort: float) -> float:
    slope = math.exp(-effort) / 2.0
    return slope if kind == "well-informed" else -slope


def _marginal(reward: float, n: int, efforts: np.ndarray) -> np.ndarray:
    """slope(e) * E[advantage] - 1 for a symmetric well-informed jury."""
    adv = _threshold_advantages(reward, n)
    quality = 1.0 - np.exp(-efforts) / 2.0
    pmf = binom.pmf(np.arange(n)[None, :], n - 1, quality[:, None])
    return np.exp(-efforts) / 2.0 * (pmf @ adv) - 1.0


def _check_roots(eq: dict, out: dict) -> tuple[bool, str]:
    if "roots" not in out:
        return False, out.get("error", "no roots")
    roots = np.array(out["roots"])
    n, reward = eq["n"], eq["reward"]
    if roots.size:
        worst = float(np.max(np.abs(_marginal(reward, n, roots))))
        if worst > ROOT_TOL:
            return False, f"root misses the marginal condition by {worst:.3g}"
    grid = np.linspace(0.0, 20.0, ROOT_SCAN_POINTS)
    g = _marginal(reward, n, grid)
    for k in np.nonzero(g[:-1] * g[1:] < 0.0)[0]:
        if not np.any((roots >= grid[k]) & (roots <= grid[k + 1])):
            return False, f"no root returned in [{grid[k]:.4f}, {grid[k + 1]:.4f}]"
    return True, f"{roots.size} roots"


def _oracle_residual(agents: list[list], i: int, reward: float) -> tuple[str, float]:
    """Case and residual of agent i, recomputed by polynomial products."""
    n = len(agents)
    pmf = np.ones(1)
    for j, (kind, effort, fidelity) in enumerate(agents):
        if j == i:
            continue
        f = _quality(kind, effort)
        p = fidelity * f + (1.0 - fidelity) * (1.0 - f)
        pmf = np.convolve(pmf, [1.0 - p, p])
    adv = float(pmf @ _threshold_advantages(reward, n))
    kind, effort, fidelity = agents[i]
    if effort == 0.0:
        return "a", max(0.0, abs(_slope(kind, 0.0) * adv) - 1.0)
    if fidelity == 1.0:
        return "b", abs(_slope(kind, effort) * adv - 1.0)
    if fidelity == 0.0:
        return "c", abs(_slope(kind, effort) * adv + 1.0)
    return "invalid", math.inf


def _check_report(
    agents: list[list], reward: float, out: dict, sampled: list[int], must_hold: bool
) -> tuple[bool, str]:
    if "residuals" not in out:
        return False, out.get("error", "no report")
    flags = [r <= workloads.VERIFY_TOL for r in out["residuals"]]
    if out["is_equilibrium"] != all(flags):
        return False, "is_equilibrium disagrees with the per-agent residuals"
    if must_hold and not out["is_equilibrium"]:
        return False, f"rejected (worst residual {max(out['residuals']):.3g})"
    for i in sampled:
        case, residual = _oracle_residual(agents, i, reward)
        got = out["residuals"][i]
        if out["cases"][i] != case or not abs(got - residual) <= RESIDUAL_TOL:
            return False, f"agent {i}: {out['cases'][i]} {got!r}, recomputed {case} {residual!r}"
    return True, "equilibrium" if out["is_equilibrium"] else "not an equilibrium"


def check_design(inputs: dict, passes: list[dict], seed: int) -> list[Verdict]:
    """One verdict per LP case and per equilibrium operation, judged on the
    first pass; every later pass must reproduce its outputs exactly."""
    first = passes[0]
    pick = np.random.default_rng([seed, 1000])
    verdicts = []
    for case in inputs["lp_cases"]:
        op = workloads.lp_case_id(case)
        if not _same(passes, op):
            ok, reason = False, "output differs between repetitions"
        else:
            ok, reason = _check_lp(case, first[op])
        known = (case["option"], case["band"]) in KNOWN_LP_DEFECTS
        verdicts.append(Verdict(op, ok, reason, known))
    for eq in inputs["equilibria"]:
        n, reward = eq["n"], eq["reward"]
        find_op = f"find n={n}"
        ops = [find_op, f"verify hetero n={n}"]
        ops += [op for op in first if op.startswith("verify root") and op.endswith(f"n={n}")]
        for op in ops:
            if not _same(passes, op):
                verdicts.append(Verdict(op, False, "output differs between repetitions"))
                continue
            sampled = sorted(int(i) for i in pick.choice(n, SAMPLED_AGENTS, replace=False))
            if op == find_op:
                ok, reason = _check_roots(eq, first[op])
            elif op.startswith("verify hetero"):
                ok, reason = _check_report(eq["hetero"], reward, first[op], sampled, False)
            else:
                index = int(op.split()[2])
                effort = first[find_op]["roots"][index]
                agents = [["well-informed", effort, 1.0]] * n
                ok, reason = _check_report(agents, reward, first[op], sampled, True)
            verdicts.append(Verdict(op, ok, reason))
    return verdicts
