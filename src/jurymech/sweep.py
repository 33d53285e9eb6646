"""Correctness sweeps over (well-informed fraction, axis parameter) grids.

A sweep estimates correctness, as :func:`jurymech.dynamics.correctness_estimate`
does, on every cell of a rectangular grid: the y axis always spans the
well-informed fraction over [0, 1]; the x axis varies either a payment
reward or the round-0 effort.  Every cell derives its own seed from
(master seed, row, column), so results are bit-identical no matter how many
workers evaluate the grid or in which order.

The cells go rho-major to :func:`jurymech.dynamics.correctness_estimates`,
one call per worker: a single process passes every cell at once, and w
workers are the calling process plus a pool of w - 1 forked processes,
each running one task, a contiguous run of whole batches of
:func:`jurymech.dynamics.batch_cells` cells; the caller runs the last
task.  How a call batches its cells and sets up once is described in the
:mod:`jurymech.dynamics` docstring; each sample's stream is the one its
derived seed gives alone, so neither the batch size nor the split changes
a value.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

# bench/tracer.py wraps correctness_estimate and derive_seed under their
# names in this module.  cell_simulation calls derive_seed, so only
# correctness_estimate is imported just for the tracer.
from .dynamics import (  # noqa: F401
    SimulationConfig,
    batch_cells,
    correctness_estimate,
    correctness_estimates,
    derive_seed,
)
from .model import (
    AwardLossSharingPayment,
    PaymentFunction,
    TabulatedPayment,
    ThresholdPayment,
    _check_int,
)


class Axis(Enum):
    REWARD_THRESHOLD = "reward-threshold"
    REWARD_AWARD_LOSS = "reward-award-loss"
    INITIAL_EFFORT = "initial-effort"


_PAYMENT_KINDS = ("threshold", "award-loss", "table")


@dataclass(frozen=True)
class SweepConfig:
    axis: Axis
    x_min: float
    x_max: float
    x_steps: int = 100
    rho_steps: int = 100
    n: int = 100
    rounds: int = 50
    samples: int = 20
    epsilon: float = 1.0  # fixed round-0 effort for the reward axes
    omega: float = 3.0  # fixed reward for the initial-effort axis
    payment_kind: str = "threshold"  # payment family on the initial-effort axis
    payment_values: tuple[float, ...] | None = None  # table when kind is "table"
    master_seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.axis, str):
            object.__setattr__(self, "axis", Axis(self.axis))
        _check_int(
            x_steps=self.x_steps,
            rho_steps=self.rho_steps,
            n=self.n,
            rounds=self.rounds,
            samples=self.samples,
            master_seed=self.master_seed,
        )
        for name in ("x_min", "x_max", "epsilon", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.x_steps < 2 or self.rho_steps < 2:
            raise ValueError("x_steps and rho_steps must both be >= 2")
        if self.n < 1 or self.rounds < 1 or self.samples < 1:
            raise ValueError("n, rounds and samples must all be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got {self.master_seed}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if self.payment_kind not in _PAYMENT_KINDS:
            raise ValueError(f"payment_kind must be one of {_PAYMENT_KINDS}")
        if self.payment_values is not None:
            object.__setattr__(
                self, "payment_values", tuple(float(v) for v in self.payment_values)
            )
            if not all(math.isfinite(v) for v in self.payment_values):
                raise ValueError("payment_values must all be finite")
            if len(self.payment_values) != self.n:
                raise ValueError(
                    f"payment_values needs one entry per juror ({self.n}), "
                    f"got {len(self.payment_values)}"
                )
        if self.axis is Axis.INITIAL_EFFORT and self.x_min < 0.0:
            raise ValueError("initial-effort axis cannot go below zero")
        if (self.payment_kind == "table") != (self.payment_values is not None):
            raise ValueError('payment_values go with payment_kind "table" and only with it')
        if self.axis is not Axis.INITIAL_EFFORT and self.payment_kind != "threshold":
            raise ValueError(f"the {self.axis.value} axis needs payment_kind 'threshold'")

    def rho_values(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.rho_steps)

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_steps)

    def cell_simulation(self, row: int, col: int) -> SimulationConfig:
        """Simulation settings for one grid cell, with its derived seed."""
        payment, epsilon = self._columns()[col]
        rho = float(self.rho_values()[row])
        seed = derive_seed(self.master_seed, row, col)
        return SimulationConfig(
            n=self.n, rho=rho, payment=payment, epsilon=epsilon, rounds=self.rounds, seed=seed
        )

    def cell_simulations(self) -> list[SimulationConfig]:
        """cell_simulation of every cell, rho-major, with every seed computed
        at once and each column's payment and effort built once."""
        # imported on first use, like numpy.random itself (see _seeding)
        from ._seeding import grid_seeds

        # the grid's arrays come first, so a grid too big for memory fails
        # before any cell is built
        seeds = grid_seeds(self.master_seed, self.rho_steps, self.x_steps)
        columns = self._columns()
        return [
            SimulationConfig(
                n=self.n, rho=rho, payment=payment, epsilon=epsilon, rounds=self.rounds, seed=seed
            )
            for rho, row in zip(self.rho_values().tolist(), seeds.tolist())
            for (payment, epsilon), seed in zip(columns, row)
        ]

    def _columns(self) -> list[tuple[PaymentFunction, float]]:
        """Each column's (payment, round-0 effort), in x order."""
        xs = self.x_values().tolist()
        if self.axis is Axis.REWARD_THRESHOLD:
            return [(ThresholdPayment(x), self.epsilon) for x in xs]
        if self.axis is Axis.REWARD_AWARD_LOSS:
            return [(AwardLossSharingPayment(x), self.epsilon) for x in xs]
        if self.payment_kind == "threshold":
            fixed: PaymentFunction = ThresholdPayment(self.omega)
        elif self.payment_kind == "award-loss":
            fixed = AwardLossSharingPayment(self.omega)
        else:
            assert self.payment_values is not None
            fixed = TabulatedPayment(self.n, self.payment_values)
        return [(fixed, x) for x in xs]


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray  # rho_steps x x_steps correctness fractions
    config: SweepConfig
    elapsed_seconds: float


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """Evaluate the whole grid, optionally across worker processes.

    With threads = w > 1, up to w workers share the grid: this process and
    a pool of at most w - 1 forked ones.  The thread count only affects
    wall-clock time, never the numbers.
    """
    _check_int(threads=threads)
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    cells = config.cell_simulations()
    size = batch_cells(config.n, config.samples)
    batches = math.ceil(len(cells) / size)
    estimate = partial(correctness_estimates, samples=config.samples)
    # a fork pool starts all its workers up front: no more than batches,
    # and none when one process would run them all
    workers = min(threads, batches)
    if workers == 1:
        values = estimate(cells)
    else:
        # one task per worker, each a contiguous run of whole batches
        bounds = [size * (batches * w // workers) for w in range(workers + 1)]
        tasks = [cells[a:b] for a, b in zip(bounds, bounds[1:])]
        # this process runs the last task, which has no fewer batches than
        # the others, since it starts at once and a forked worker does not
        with ProcessPoolExecutor(max_workers=workers - 1) as pool:
            pooled = pool.map(estimate, tasks[:-1])
            last = estimate(tasks[-1])
            values = np.concatenate([*pooled, last])
    grid = values.reshape(config.rho_steps, config.x_steps)
    return SweepResult(grid, config, time.perf_counter() - started)


def write_csv(result: SweepResult, path: str) -> None:
    """One row per cell, rho-major ascending: rho,x,correctness."""
    rhos = result.config.rho_values()
    xs = result.config.x_values()
    lines = ["rho,x,correctness"]
    for i, rho in enumerate(rhos):
        for j, x in enumerate(xs):
            lines.append(f"{rho:.6f},{x:.6f},{result.grid[i, j]:.4f}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def config_to_json(config: SweepConfig) -> str:
    data = dataclasses.asdict(config)
    data["axis"] = config.axis.value
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def config_from_json(text: str) -> SweepConfig:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("sweep config must be a JSON object")
    known = {f.name for f in dataclasses.fields(SweepConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown sweep config keys: {', '.join(unknown)}")
    try:
        return SweepConfig(**data)
    except TypeError as err:  # a missing field or a value of the wrong JSON type
        raise ValueError(str(err)) from err


def _preset(axis: Axis, x_max: float, **kwargs) -> SweepConfig:
    return SweepConfig(axis=axis, x_min=0.0, x_max=x_max, **kwargs)


# The three full-scale experiment grids plus quick variants for smoke runs.
PRESETS: dict[str, SweepConfig] = {
    "fig1a": _preset(Axis.REWARD_THRESHOLD, 5.0),
    "fig1b": _preset(Axis.REWARD_AWARD_LOSS, 2500.0),
    "fig1c": _preset(Axis.INITIAL_EFFORT, 5.0, omega=3.0),
    "fig1a-small": _preset(
        Axis.REWARD_THRESHOLD, 5.0, x_steps=20, rho_steps=20, samples=10
    ),
    "fig1b-small": _preset(
        Axis.REWARD_AWARD_LOSS, 2500.0, x_steps=20, rho_steps=20, samples=10
    ),
    "fig1c-small": _preset(
        Axis.INITIAL_EFFORT, 5.0, omega=3.0, x_steps=20, rho_steps=20, samples=10
    ),
}
