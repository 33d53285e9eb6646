"""Correctness sweeps over (well-informed fraction, axis parameter) grids.

A sweep evaluates :func:`jurymech.dynamics.correctness_estimate` on a
rectangular grid: the y axis always spans the well-informed fraction over
[0, 1]; the x axis varies either a payment reward or the round-0 effort.
Every cell derives its own seed from (master seed, row, column), so results
are bit-identical no matter how many workers evaluate the grid or in which
order.
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

from .dynamics import SimulationConfig, correctness_estimate, derive_seed
from .model import (
    AwardLossSharingPayment,
    PaymentFunction,
    TabulatedPayment,
    ThresholdPayment,
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
        for name in ("x_min", "x_max", "epsilon", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.x_steps < 2 or self.rho_steps < 2:
            raise ValueError("x_steps and rho_steps must both be >= 2")
        if self.n < 1 or self.rounds < 1 or self.samples < 1:
            raise ValueError("n, rounds and samples must all be >= 1")
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
        if self.payment_kind == "table" and self.payment_values is None:
            raise ValueError('payment_kind "table" requires payment_values')

    def rho_values(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.rho_steps)

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_steps)

    def fixed_payment(self) -> PaymentFunction:
        """Payment used when the x axis varies the initial effort."""
        if self.payment_kind == "threshold":
            return ThresholdPayment(self.omega)
        if self.payment_kind == "award-loss":
            return AwardLossSharingPayment(self.omega)
        assert self.payment_values is not None
        return TabulatedPayment(self.n, self.payment_values)

    def cell_simulation(self, row: int, col: int) -> SimulationConfig:
        """Simulation settings for one grid cell, with its derived seed."""
        rho = float(self.rho_values()[row])
        x = float(self.x_values()[col])
        if self.axis is Axis.REWARD_THRESHOLD:
            payment: PaymentFunction = ThresholdPayment(x)
            epsilon = self.epsilon
        elif self.axis is Axis.REWARD_AWARD_LOSS:
            payment = AwardLossSharingPayment(x)
            epsilon = self.epsilon
        else:
            payment = self.fixed_payment()
            epsilon = x
        return SimulationConfig(
            n=self.n,
            rho=rho,
            payment=payment,
            epsilon=epsilon,
            rounds=self.rounds,
            seed=derive_seed(self.master_seed, row, col),
        )


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray  # rho_steps x x_steps correctness fractions
    config: SweepConfig
    elapsed_seconds: float


def _cell_value(config: SweepConfig, cell: tuple[int, int]) -> float:
    row, col = cell
    return correctness_estimate(config.cell_simulation(row, col), config.samples)


def run_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """Evaluate the whole grid, optionally across worker processes.

    The thread count only affects wall-clock time, never the numbers.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    started = time.perf_counter()
    cells = [(i, j) for i in range(config.rho_steps) for j in range(config.x_steps)]
    worker = partial(_cell_value, config)
    if threads == 1:
        values = [worker(cell) for cell in cells]
    else:
        chunk = max(1, len(cells) // (threads * 16))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(worker, cells, chunksize=chunk))
    grid = np.array(values).reshape(config.rho_steps, config.x_steps)
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
    if data["payment_values"] is not None:
        data["payment_values"] = list(data["payment_values"])
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def config_from_json(text: str) -> SweepConfig:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("sweep config must be a JSON object")
    known = {f.name for f in dataclasses.fields(SweepConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown sweep config keys: {', '.join(unknown)}")
    if "payment_values" in data and data["payment_values"] is not None:
        data["payment_values"] = tuple(data["payment_values"])
    return SweepConfig(**data)


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
