"""jurymech benchmark: times the package from outside, checks every output.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload sweep-fig1a --seed 1 --seconds 50 --trace 0

Workloads: sweep-fig1a, design-eq, and sweep-bigjury, which BENCHMARK.json
does not list (see workloads.py for why each was chosen).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run;
failing operations are named on standard error.

Every measurement runs in a fresh child process, so that peak memory and
import cost belong to the workload:

* set-up (import jurymech and build the inputs from the seed) runs once
  untimed, which fills the bytecode and file caches, then SETUP_RUNS
  times; setup_s is the median;
* the measuring child makes one untimed warm-up pass on each worker
  count, then repeats the workload, a pass on 1 worker and one on
  2 workers in turn, while another pass fits in ``--seconds``; wall_s and
  wall_2w_s are sums over operations of each operation's median time;
* the traced child makes the same untraced passes, then one traced pass on
  1 worker, and writes its spans to .bench_out/.

The reference loop of reference.py runs before every timed set-up child
and every timed pass; setup_s, wall_s and wall_2w_s are scaled by
reference.scale() of the loop times that were taken beside them, which
takes out the host's changes of speed between runs.

The checks (checks.py) run in this process after the child has ended.
The program is imported from ./src of the checkout; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_RUNS = 7
# Children must finish this long after the start, so that the checks still
# fit before the whole run reaches three minutes.
CHILD_DEADLINE_S = 150
# workloads.WORKLOADS, repeated because workloads.py imports jurymech,
# which must not happen before the source tree is checked.
WORKLOAD_NAMES = ("sweep-fig1a", "sweep-bigjury", "design-eq")


def _use_source_tree() -> None:
    if not (SRC / "jurymech" / "__init__.py").is_file():
        raise SystemExit(f"error: no jurymech sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jurymech

    if Path(jurymech.__file__).resolve().parent != SRC / "jurymech":
        raise SystemExit(f"error: imported jurymech from {jurymech.__file__}, not {SRC}")


def _run_child(args: list[str], deadline: float) -> float:
    """Run this script in a fresh interpreter; return its wall time.

    The wait blocks in waitpid, so the time is exact (``Popen.wait`` with a
    timeout polls in 50 ms steps); a timer kills the child's process group,
    sweep pool workers included, at the ``time.monotonic`` deadline.
    """
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        start_new_session=True,
    ) as child:
        left = max(0.0, deadline - time.monotonic())
        timer = threading.Timer(left, os.killpg, (child.pid, signal.SIGKILL))
        timer.start()
        try:
            code = child.wait()
        finally:
            timer.cancel()
    elapsed = time.perf_counter() - started
    if code != 0:
        role = args[args.index("--role") + 1]
        raise SystemExit(f"error: {role} child exited with {code}")
    return elapsed


# --- child roles --------------------------------------------------------------


def _role_setup(work: Path, workload: str, seed: int) -> None:
    import workloads

    inputs = workloads.make_inputs(workload, seed, work)
    (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _measure(workload: str, inputs: dict, work: Path, seconds: float) -> dict:
    """An untimed warm-up pass on each worker count, then passes on 1 and
    2 workers, in turn, while one more is expected to end within
    ``seconds`` (by the duration of its last pass); when the next in turn
    would not, a pass on the other worker count may still fit.  The first
    timed pass on each worker count always runs.  Warm-up outputs are
    checked like the others."""
    import workloads

    warm_up = {t: workloads.run_once(workload, inputs, work, t)[1] for t in (1, 2)}
    reference_times = []
    passes: dict[int, list] = {1: [], 2: []}
    last: dict[int, float] = {}
    started = time.perf_counter()
    threads = 1
    while True:
        fits = [
            t
            for t in (threads, 3 - threads)
            if t not in last or time.perf_counter() - started + last[t] <= seconds
        ]
        if not fits:
            break
        threads = fits[0]
        reference_times.append(reference.reference_seconds())
        pass_started = time.perf_counter()
        passes[threads].append(workloads.run_once(workload, inputs, work, threads))
        last[threads] = time.perf_counter() - pass_started
        threads = 3 - threads
    return {
        "times": {t: [p[0] for p in runs] for t, runs in passes.items()},
        "outputs": {t: [warm_up[t]] + [p[1] for p in runs] for t, runs in passes.items()},
        "reference_times": reference_times,
    }


def _role_measure(work: Path, workload: str, seconds: float) -> None:
    inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    result = _measure(workload, inputs, work, seconds)
    result["peak_rss_mb"] = _peak_rss_mb()
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


def _role_trace(work: Path, workload: str, seed: int, seconds: float) -> None:
    """Untraced passes as in the measuring child, then one traced pass on
    1 worker; the difference is the tracing overhead."""
    import tracer
    import workloads

    inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
    result = _measure(workload, inputs, work, seconds)
    trace = tracer.Tracer()
    trace.install()
    try:
        started = time.perf_counter()
        _, traced_outputs = workloads.run_once(workload, inputs, work, 1)
        result["traced_wall_s"] = time.perf_counter() - started
    finally:
        trace.uninstall()
    result["outputs"][1].append(traced_outputs)
    result["trace"] = trace.report()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps(result["trace"]), encoding="utf-8")
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")


# --- metrics --------------------------------------------------------------------


def _wall(times: list[dict]) -> float:
    """Sum over operations of the operation's median time over passes."""
    return sum(statistics.median(t[op] for t in times) for op in times[0])


_LAYERS = ("cli", "sweep", "dynamics", "model", "equilibrium", "payment_design", "simplex", "heatmap")
_STATUSES = ("optimal", "infeasible", "unbounded", "pivot_limit", "error")


def _per_layer(workload: str, inputs: dict, result: dict) -> dict:
    import tracer
    import workloads

    report = result["trace"]
    totals = tracer.totals(report)

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def total_s(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    wall_1w = _wall(result["times"]["1"])
    efficiency = 0.0  # the sweep pool is not used
    if workload in workloads.SWEEPS:
        efficiency = wall_1w / (2.0 * _wall(result["times"]["2"]))
    seeds = calls("dynamics.derive_seed")
    traced_outputs = result["outputs"]["1"][-1]
    statuses = dict.fromkeys(_STATUSES, 0)
    for case in inputs.get("lp_cases", []):
        statuses[traced_outputs[workloads.lp_case_id(case)]["status"]] += 1
    samples = tracer.calls_under(report, "dynamics.derive_seed", "dynamics.correctness_estimate")

    metrics = {
        "dynamics.correctness_estimate.self_ms": (
            self_s("dynamics.correctness_estimate") * 1e3,
            "ms",
        ),
        "dynamics.derive_seed.calls": (seeds, "count"),
        # mean per call
        "dynamics.derive_seed.us": (
            total_s("dynamics.derive_seed") / seeds * 1e6 if seeds else 0.0,
            "us",
        ),
        "dynamics.samples": (samples, "count"),
        "model.vote_advantage.calls": (calls("model.vote_advantage"), "count"),
        "model.payment_value.calls": (calls("model.payment_value"), "count"),
        "model.vote_advantage.self_s": (self_s("model.vote_advantage"), "s"),
        "equilibrium.best_response.calls": (calls("equilibrium.best_response"), "count"),
        "equilibrium.best_response.self_s": (self_s("equilibrium.best_response"), "s"),
        "equilibrium.verify_equilibrium.s": (total_s("equilibrium.verify_equilibrium"), "s"),
        "equilibrium.others_vote_pmf.calls": (calls("equilibrium.others_vote_pmf"), "count"),
        "equilibrium.poisson_binomial_pmf.self_s": (
            self_s("equilibrium.poisson_binomial_pmf"),
            "s",
        ),
        "equilibrium.find_symmetric_equilibria.s": (
            total_s("equilibrium.find_symmetric_equilibria"),
            "s",
        ),
        "payment_design.binomial_weights.calls": (
            calls("payment_design.binomial_weights"),
            "count",
        ),
        "payment_design.build_lp.ms": (total_s("payment_design.build_lp") * 1e3, "ms"),
        "simplex.solve.self_s": (self_s("simplex.solve"), "s"),
    }
    for status, count in statuses.items():
        metrics[f"simplex.status.{status}"] = (count, "count")
    metrics.update(
        {
            "simplex.tableau_cells": (workloads.tableau_cells(inputs), "cells-computed"),
            "sweep.run_sweep.s": (total_s("sweep.run_sweep"), "s"),
            "sweep.cells": (calls("dynamics.correctness_estimate"), "count"),
            "sweep.parallel_efficiency": (efficiency, "ratio"),
            "sweep.write_csv.ms": (total_s("sweep.write_csv") * 1e3, "ms"),
            "heatmap.render_heatmap.ms": (total_s("heatmap.render_heatmap") * 1e3, "ms"),
            "cli.cli_main.self_ms": (self_s("cli.cli_main") * 1e3, "ms"),
        }
    )
    for layer in _LAYERS:
        layer_self = sum(v["self"] for k, v in totals.items() if k.split(".")[0] == layer)
        metrics[f"layer.{layer}.self_s"] = (layer_self, "s")
    metrics["trace.wall_s"] = (result["traced_wall_s"], "s")
    metrics["trace.overhead_s"] = (result["traced_wall_s"] - wall_1w, "s")
    # unscaled, so that raw wall time = wall_s * host.reference_ms / (1000 * REFERENCE_S)
    metrics["host.reference_ms"] = (statistics.median(result["reference_times"]) * 1e3, "ms")
    return metrics


def _end_to_end(setup: dict, result: dict, verdicts) -> dict:
    failed = sum(not v.ok for v in verdicts)
    setup_scale = reference.scale(setup["reference_times"])
    run_scale = reference.scale(result["reference_times"])
    return {
        "setup_s": (statistics.median(setup["times"]) * setup_scale, "s"),
        "wall_s": (_wall(result["times"]["1"]) * run_scale, "s"),
        "wall_2w_s": (_wall(result["times"]["2"]) * run_scale, "s"),
        "ok_frac": (1.0 - failed / len(verdicts), "fraction"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _verdicts(workload: str, inputs: dict, result: dict, seed: int):
    import checks

    passes = [o for t in ("1", "2") for o in result["outputs"][t]]
    if workload == "design-eq":
        return checks.check_design(inputs, passes, seed)
    return checks.check_sweep(inputs, passes, seed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    _use_source_tree()

    if args.role == "setup":
        _role_setup(args.work, args.workload, args.seed)
        return 0
    if args.role == "measure":
        _role_measure(args.work, args.workload, args.seconds)
        return 0
    if args.role == "trace":
        _role_trace(args.work, args.workload, args.seed, args.seconds)
        return 0

    deadline = time.monotonic() + CHILD_DEADLINE_S
    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
        setup = [*common, "--role", "setup"]
        _run_child(setup, deadline)
        setup_runs: dict[str, list[float]] = {"times": [], "reference_times": []}
        for _ in range(SETUP_RUNS):
            setup_runs["reference_times"].append(reference.reference_seconds())
            setup_runs["times"].append(_run_child(setup, deadline))
        role = "trace" if args.trace else "measure"
        _run_child([*common, "--role", role, "--seconds", str(args.seconds)], deadline)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
        verdicts = _verdicts(args.workload, inputs, result, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for threads, passes in result["times"].items():
        totals = " ".join(f"{sum(t.values()):.3f}" for t in passes)
        print(f"passes on {threads} worker(s), s: {totals}", file=sys.stderr)
    loop_s = statistics.median(result["reference_times"])
    print(f"reference loop, unscaled median, s: {loop_s:.4f}", file=sys.stderr)
    for v in verdicts:
        if not v.ok:
            tag = "known LP defect" if v.known_defect else "FAILED"
            print(f"{tag}: {v.op}: {v.reason}", file=sys.stderr)
    if args.trace:
        metrics = _per_layer(args.workload, inputs, result)
    else:
        metrics = _end_to_end(setup_runs, result, verdicts)
    failed = sum(not v.ok for v in verdicts)
    print(
        json.dumps(
            {
                "correct": all(v.ok or v.known_defect for v in verdicts),
                "attempted": len(verdicts),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
