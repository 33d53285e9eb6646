"""Round-based best-response dynamics.

Round 0: every juror spends a fixed starter effort and casts her signal.
Each later round: every juror learns exactly how many of the others voted
for the ground truth last round, best-responds to the payment gap implied
by that count, and votes accordingly.  Updates are synchronous: all jurors
react to the same previous round.

Jurors come in two kinds, well-informed and misinformed, and jurors of one
kind are interchangeable.  So the response tables have one row per kind,
and a round is recorded as its ground-truth votes per kind (RoundState),
the state of the lumped Markov chain of the dynamics.

All randomness flows through numpy's PCG64 generator.  Seeds for samples
are derived by feeding (seed, sample index) through SeedSequence's entropy
mixing, so sample streams are independent and insensitive to evaluation
order; that is what makes multi-worker sweeps bit-reproducible.

Monte Carlo runs go in batches: one batch holds every sample of one or
more configs that share n and rounds, one row per (config, sample) pair.
Each row's generator fills its row of a shared buffer of uniforms with
exactly the values a lone run would draw, in the same order, and then all
rows step together one round at a time, each reading its own config's
response table and round-0 probabilities.  The seeds of a whole batch are
derived as one array: jurymech._seeding redoes SeedSequence's mixing in
uint32 array arithmetic, for derive_seed(seed, k) and then for the state
that default_rng would give PCG64 from that seed.  So every stream is
unchanged, derive_seed stays the oracle it is tested against, and any
sample can be replayed alone with simulate().  The buffer is capped
at _DRAW_BUFFER doubles; past the cap it is refilled in blocks of rounds,
with every generator kept alive between blocks.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .equilibrium import best_response
from .model import (
    AgentKind,
    EffortProfile,
    PaymentFunction,
    Strategy,
    _check_int,
    vote_advantage,
    vote_probability,
)

_SEED_LIMIT = 2**64

# Cap on the buffer of uniform draws, in doubles (1 MiB), so that memory
# stays O(samples * n) however many rounds a run has.
_DRAW_BUFFER = 2**17

# Uniform draws per round that a sweep aims for in one batch.  Each round
# makes the same few numpy calls whatever the batch size, so a batch should
# be large; but a larger batch fits fewer rounds into _DRAW_BUFFER, and each
# refill costs one call per generator.  On a 10x10 fig1a grid (2-core host)
# batches of 4 or 8 cells (2**13 or 2**14 draws) took 0.18 s, 1 cell 0.27 s
# and 32 cells 0.26 s.
_BATCH_DRAWS = 2**13


def derive_seed(*parts: int) -> int:
    """Mix integers into a fresh 64-bit seed (order-sensitive, stateless)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SimulationConfig:
    n: int
    rho: float  # fraction of well-informed jurors
    payment: PaymentFunction
    epsilon: float  # round-0 effort
    rounds: int
    seed: int

    def __post_init__(self) -> None:
        _check_int(n=self.n, rounds=self.rounds, seed=self.seed)
        if self.n < 1:
            raise ValueError(f"jury size must be >= 1, got {self.n}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(
                f"epsilon must be finite and non-negative, got {self.epsilon}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.seed < _SEED_LIMIT:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class RoundState:
    """Ground-truth votes of one round, counted per kind of juror."""

    informed: int  # ground-truth votes among the well-informed jurors
    misinformed: int  # ground-truth votes among the misinformed jurors

    @property
    def t_count(self) -> int:
        return self.informed + self.misinformed


@dataclass(frozen=True)
class Trajectory:
    states: tuple[RoundState, ...]  # index 0 is round 0
    final_correct: bool


# Row 0 of a response table is a unit-rate well-informed juror, row 1 a
# unit-rate misinformed one.
_KINDS = (EffortProfile(AgentKind.WELL_INFORMED), EffortProfile(AgentKind.MISINFORMED))


def assign_population(n: int, rho: float) -> int:
    """Number of well-informed jurors, round(rho*n).  The first that many
    jurors are well-informed, the rest misinformed, all with unit rate.
    Placement is irrelevant: the dynamics treat jurors symmetrically."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return round(rho * n)


def _response_tables(payment: PaymentFunction, n: int) -> np.ndarray:
    """Ground-truth-vote probability of each kind (rows, see _KINDS) for
    every possible feedback count (columns), as a (2, n) array.

    A juror whose best response is zero effort votes by fair coin; otherwise
    she votes with the signal quality of her optimal effort, flipped when
    her optimal fidelity is zero.  Best responses are computed once per
    distinct vote advantage, since a payment table takes only a few values.
    """
    advantages, column = np.unique(vote_advantage(payment, n), return_inverse=True)
    rows = np.empty((len(_KINDS), len(advantages)))
    for g, curve in enumerate(_KINDS):
        for j, adv in enumerate(advantages.tolist()):
            br = best_response(curve, adv)
            if br.fidelity is None:
                rows[g, j] = 0.5
            else:
                rows[g, j] = vote_probability(curve, Strategy(br.effort, br.fidelity))
    return rows[:, column]


def _run_batch(
    configs: Sequence[SimulationConfig],
    rngs: list[np.random.Generator],
    record: list[RoundState] | None = None,
) -> np.ndarray:
    """Final votes of one run per generator, as a (len(rngs), n) array.

    The configs share n and rounds, and the generators are dealt to them in
    order, an equal number each: with s = len(rngs) // len(configs), rows
    c*s to (c+1)*s - 1 run configs[c].  Row k draws from ``rngs[k]``
    exactly what a lone run would: n uniforms for round 0, then n per
    round, in order; juror i reads uniform i.  The draws are buffered in
    blocks of as many rounds as fit in _DRAW_BUFFER doubles (at least one),
    and each generator lives across blocks, so neither the block size nor
    the other rows of the batch ever change a stream.  When ``record`` is
    given, row 0's per-kind counts of every round are appended to it.
    """
    n, rounds = configs[0].n, configs[0].rounds
    if any(c.n != n or c.rounds != rounds for c in configs):
        raise ValueError("the configs of one batch must share n and rounds")
    cell = np.repeat(np.arange(len(configs)), len(rngs) // len(configs))
    informed = np.array([assign_population(n, c.rho) for c in configs])
    # Row of each juror in the stacked (cells * 2, n) tables: her cell's
    # well-informed row, or the misinformed one after it.
    table_row = 2 * cell[:, None] + (np.arange(n) >= informed[cell, None])
    zero_probs = np.array(
        [[curve.value(c.epsilon) for curve in _KINDS] for c in configs]
    ).ravel()[table_row]
    tables = np.concatenate([_response_tables(c.payment, n) for c in configs]).ravel()
    # flat index of feedback count 0 in the juror's table row
    table_start = table_row * n
    total = rounds + 1
    block = max(1, _DRAW_BUFFER // (len(rngs) * n))
    draws = np.empty((len(rngs), min(block, total), n))
    for r in range(total):
        offset = r % block
        if offset == 0:
            count = min(block, total - r)
            for rng, rows in zip(rngs, draws):
                rng.random(out=rows[:count])
        uniforms = draws[:, offset]
        if r == 0:
            votes = uniforms < zero_probs
        else:
            # synchronous round: each juror responds to the others' last
            # votes, her row's count minus her own vote
            index = table_start - votes
            index += votes.sum(axis=1, keepdims=True)
            votes = uniforms < tables[index]
        if record is not None:
            record.append(
                RoundState(
                    int(np.count_nonzero(votes[0, : informed[0]])),
                    int(np.count_nonzero(votes[0, informed[0] :])),
                )
            )
    return votes


def simulate(config: SimulationConfig) -> Trajectory:
    """Run one seeded trajectory; identical configs give identical output."""
    record: list[RoundState] = []
    votes = _run_batch([config], [np.random.default_rng(config.seed)], record)
    return Trajectory(
        states=tuple(record),
        final_correct=int(votes.sum()) > config.n / 2,
    )


def batch_cells(n: int, samples: int) -> int:
    """How many configs of jury size n to run as one batch of ``samples``
    runs each: enough that a round draws about _BATCH_DRAWS uniforms, and
    at least one."""
    return max(1, _BATCH_DRAWS // (samples * n))


def correctness_estimates(
    configs: Sequence[SimulationConfig], samples: int
) -> np.ndarray:
    """Correctness estimate of each config, as one batch of runs.

    The configs must share n and rounds.  Config c's sample k runs with
    seed derive_seed(configs[c].seed, k), so each estimate is the one
    :func:`correctness_estimate` gives for that config alone, and each
    sample matches a standalone simulate() call with its derived seed.
    """
    _check_int(samples=samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not configs:
        raise ValueError("need at least one config")
    # imported on first use, like numpy.random itself (see _seeding)
    from ._seeding import sample_generators

    seeds = np.array([c.seed for c in configs], dtype=np.uint64)
    rngs = sample_generators(seeds, samples)
    correct = _run_batch(configs, rngs).sum(axis=1) > configs[0].n / 2
    return np.count_nonzero(correct.reshape(len(configs), samples), axis=1) / samples


def correctness_estimate(config: SimulationConfig, samples: int) -> float:
    """Fraction of independent runs whose final strict majority is correct.

    Sample k runs with seed derive_seed(config.seed, k), so the estimate is
    reproducible and each sample matches a standalone simulate() call with
    that derived seed.  All samples step together as one batch.
    """
    return float(correctness_estimates([config], samples)[0])
