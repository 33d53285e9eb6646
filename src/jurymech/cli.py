"""Command-line front end.

Subcommands:
  best-response   closed-form response to a given vote advantage
  check-payment   simple-equilibrium condition and monotonicity of a payment
  design          cheapest payment table for a target vote fraction; writes CSV
  find-eq         symmetric-equilibrium efforts for a payment
  simulate        one trajectory, one line per round: "round,t_count"
  sweep           correctness grid to CSV and SVG heatmap

Each subcommand takes only the flags it reads.  Exit codes: 0 success,
1 usage error, 2 runtime or solver failure.

File formats: payment tables are CSV with header "k,p" listing, for
k = 1..n, the payment p when k jurors voted the payee's way; sweep configs
are JSON objects with SweepConfig's field names (unknown keys are rejected
to catch typos).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from pathlib import Path
from typing import Sequence

from .dynamics import SimulationConfig, Trajectory, simulate
from .equilibrium import (
    best_response,
    find_symmetric_equilibria,
    is_monotone_nondecreasing,
    satisfies_simple_condition,
)
from .heatmap import render_heatmap
from .model import (
    AgentKind,
    AwardLossSharingPayment,
    EffortProfile,
    KlerosPayment,
    PaymentFunction,
    TabulatedPayment,
    ThresholdPayment,
)
from .payment_design import DesignOptions, design_payments
from .sweep import PRESETS, config_from_json, run_sweep, write_csv


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # read "-1e3" and "-inf" as values, as argparse reads "-5"; no option
        # here starts with "-" and a digit, "-inf" or "-nan"
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf(inity)?$|nan$)", re.I)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def write_payment_table(payment: TabulatedPayment, path: str) -> None:
    lines = ["k,p"]
    lines.extend(f"{k},{v!r}" for k, v in enumerate(payment.values, start=1))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_payment_table(path: str) -> TabulatedPayment:
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines or lines[0] != "k,p":
        raise ValueError(f"{path}: payment table must start with header 'k,p'")
    values = []
    for expected, line in enumerate(lines[1:], start=1):
        k_text, _, p_text = line.partition(",")
        if int(k_text) != expected:
            raise ValueError(f"{path}: expected row k={expected}, got k={k_text}")
        value = float(p_text)
        if not math.isfinite(value):
            raise ValueError(f"{path}: payment at k={expected} is not finite")
        values.append(value)
    return TabulatedPayment(len(values), tuple(values))


def trajectory_lines(trajectory: Trajectory) -> list[str]:
    """Debug dump schema: one line per round, 'round_index,t_count'."""
    return [f"{i},{state.t_count}" for i, state in enumerate(trajectory.states)]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _add_payment_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--threshold", type=_finite, metavar="REWARD")
    group.add_argument("--award-loss", type=_finite, metavar="AWARD")
    group.add_argument("--kleros", type=_finite, nargs=2, metavar=("AWARD", "LOSS"))
    group.add_argument("--payment-file", metavar="PATH")


def _payment_from_args(args: argparse.Namespace, n: int) -> PaymentFunction:
    if args.threshold is not None:
        return ThresholdPayment(args.threshold)
    if args.award_loss is not None:
        return AwardLossSharingPayment(args.award_loss)
    if args.kleros is not None:
        return KlerosPayment(args.kleros[0], args.kleros[1])
    table = read_payment_table(args.payment_file)
    if table.jury_size != n:
        raise UsageError(
            f"payment table has {table.jury_size} rows but the jury size is {n}"
        )
    return table


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_best_response(args: argparse.Namespace) -> int:
    kind = AgentKind(args.kind)
    br = best_response(EffortProfile(kind, args.rate), args.q)
    beta = "any" if br.fidelity is None else f"{br.fidelity:g}"
    print(f"lambda={br.effort:.6f} beta={beta}")
    return 0


def _cmd_check_payment(args: argparse.Namespace) -> int:
    payment = _payment_from_args(args, args.n)
    simple = satisfies_simple_condition(payment, args.n)
    monotone = is_monotone_nondecreasing(payment, args.n)
    print(f"simple condition: {'satisfied' if simple else 'violated'}")
    print(f"monotone non-decreasing: {'yes' if monotone else 'no'}")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    options = DesignOptions(
        lower_bound=args.lower_bound, individual_rationality=args.individual_rationality
    )
    profile = EffortProfile(AgentKind.WELL_INFORMED, args.rate)
    design = design_payments(args.n, args.target, profile, options)
    path = _out_dir(args) / f"payments-n{args.n}-x{args.target!r}.csv"
    write_payment_table(design.payment, str(path))
    print(f"wrote {path}")
    print(f"equilibrium effort: {design.equilibrium_effort:.6f}")
    print(f"target advantage: {design.target_advantage:.6f}")
    print(f"expected per-juror cost: {design.expected_cost:.6f}")
    return 0


def _cmd_find_eq(args: argparse.Namespace) -> int:
    profile = EffortProfile(AgentKind.WELL_INFORMED, args.rate)
    payment = _payment_from_args(args, args.n)
    roots = find_symmetric_equilibria(profile, payment, args.n)
    if not roots:
        print("none found")
        return 0
    for root in roots:
        print(f"effort={root!r} quality={profile.value(root)!r}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = SimulationConfig(
        n=args.n,
        rho=args.rho,
        payment=_payment_from_args(args, args.n),
        epsilon=args.epsilon,
        rounds=args.rounds,
        seed=args.seed,
    )
    trajectory = simulate(config)
    print("\n".join(trajectory_lines(trajectory)))
    verdict = "correct" if trajectory.final_correct else "incorrect"
    print(f"final majority: {verdict}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.preset is not None:
        config = PRESETS[args.preset]
        name = args.preset
    else:
        config = config_from_json(Path(args.config).read_text(encoding="utf-8"))
        name = Path(args.config).stem
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)

    result = run_sweep(config, threads=args.threads)
    out = _out_dir(args)
    csv_path = out / f"{name}.csv"
    write_csv(result, str(csv_path))
    print(f"wrote {csv_path}")
    svg_path = out / f"{name}.svg"
    render_heatmap(result, str(svg_path))
    print(f"wrote {svg_path}")
    print(f"elapsed: {result.elapsed_seconds:.1f}s")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="jurymech", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subparsers.add_parser("best-response", help="closed-form best response")
    sub.add_argument("--kind", choices=[k.value for k in AgentKind], required=True)
    sub.add_argument("--q", type=_finite, required=True, help="vote advantage")
    sub.add_argument("--rate", type=_finite, default=1.0)
    sub.set_defaults(handler=_cmd_best_response)

    sub = subparsers.add_parser("check-payment", help="payment sanity checks")
    _add_payment_flags(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.set_defaults(handler=_cmd_check_payment)

    sub = subparsers.add_parser("design", help="cheapest payment design")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--target", type=float, required=True, help="vote fraction in (1/2, 1)")
    sub.add_argument("--rate", type=_finite, default=1.0)
    sub.add_argument("--lower-bound", type=float, default=0.0)
    sub.add_argument("--individual-rationality", action="store_true")
    sub.add_argument("--out", default=".", help="output directory")
    sub.set_defaults(handler=_cmd_design)

    sub = subparsers.add_parser("find-eq", help="symmetric equilibria")
    _add_payment_flags(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--rate", type=_finite, default=1.0)
    sub.set_defaults(handler=_cmd_find_eq)

    sub = subparsers.add_parser("simulate", help="single trajectory dump")
    _add_payment_flags(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--rho", type=float, required=True)
    sub.add_argument("--epsilon", type=float, required=True)
    sub.add_argument("--rounds", type=int, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(handler=_cmd_simulate)

    sub = subparsers.add_parser("sweep", help="correctness grid to CSV/SVG")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=sorted(PRESETS))
    source.add_argument("--config", help="JSON sweep config file")
    sub.add_argument("--seed", type=int, default=None, help="master seed override")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--threads", type=int, default=1, help="workers, this process included")
    sub.set_defaults(handler=_cmd_sweep)

    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, ValueError, MemoryError, OverflowError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
