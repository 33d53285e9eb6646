"""Round-based best-response dynamics.

Round 0: every juror spends a fixed starter effort and casts her signal.
Each later round: every juror learns exactly how many of the others voted
for the ground truth last round, best-responds to the payment gap implied
by that count, and votes accordingly.  Updates are synchronous: all jurors
react to the same previous round.

Jurors come in two kinds, well-informed and misinformed, and a round is
recorded as its ground-truth votes per kind (RoundState).  After round 0
both kinds answer a vote count with one probability (the misinformed curve
is the well-informed one reflected about 1/2), so a response table is one
row p, and the vote count alone is the state of the lumped Markov chain.
When T jurors voted for the ground truth, each of them sees T - 1 others
do so and votes for it again with probability p[T-1], and each of the
rest with p[T].  The two are equal at most counts (at n = 100 a threshold
payment's row changes only from 48 to 49 others and from 50 to 51), so a
round compares each whole run with p[T] and redoes juror by juror only
the runs where p[T-1] and p[T] differ.

All randomness flows through numpy's PCG64 generator.  Seeds for samples
are derived by feeding (seed, sample index) through SeedSequence's entropy
mixing, so sample streams are independent and insensitive to evaluation
order; that is what makes multi-worker sweeps bit-reproducible.

Monte Carlo runs go in batches: one batch holds every sample of one or
more configs that share n and rounds, one row per (config, sample) pair.
Each row's generator fills its row of a shared buffer of uniforms with
exactly the values a lone run would draw, in the same order, and then all
rows step together one round at a time, each reading its own config's
response row and round-0 probabilities.  A response row depends only on
the payment, so correctness_estimates builds one per distinct payment for
all the configs it is given, and cuts them into batches of batch_cells
configs itself.  Seeds are derived as one array per group of whole
batches, of at most _DRAW_BUFFER // 4 samples (1 MiB of state words) but
never less than one batch: jurymech._seeding redoes SeedSequence's mixing
in uint32 array arithmetic, for derive_seed(seed, k) and then for the
state that default_rng would give PCG64 from that seed.  A batch's
generators are built from those states just before it runs.  So every
stream is unchanged, derive_seed stays the oracle it is tested against,
and any sample can be replayed alone with simulate().  The buffer of
uniforms is capped at _DRAW_BUFFER doubles; past the cap it is refilled in
blocks of rounds, with every generator kept alive between blocks.

A config is count-independent exactly when no juror ever puts in effort,
so that its response row is 0.5 throughout: no other row is constant, as a
vote-advantage vector is antisymmetric (entry m is minus entry n-1-m) and
an active juror votes for the ground truth with probability 1 - h at a but
h < 1/2 at -a.  Then no round before the last can change the final votes,
so a Monte Carlo row of such a config does not step: its generator jumps
over the n * rounds draws of the earlier rounds (PCG64's advance) and
draws the last round's n uniforms, the very values a stepped run compares
with 0.5.  Each stream thus ends in the same state with the same votes,
bit for bit.  simulate() records every round, so it always steps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .equilibrium import best_response
from .model import (
    AgentKind,
    EffortProfile,
    PaymentFunction,
    Strategy,
    _count,
    _real,
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
# refill costs one call per generator.  On a 10x10 fig1a grid (n = 100, 20
# samples; 2-core host, one worker) batches of 2, 4, 8 and 16 cells (2**12
# to 2**15 draws) took a median 57, 51, 48 and 49 ms, and 8 cells beat 4 in
# 10 of 10 alternating sweep-fig1a benchmark pairs.
_BATCH_DRAWS = 2**14


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
        for name, least in (("n", 1), ("rounds", 1), ("seed", 0)):
            object.__setattr__(self, name, _count(name, getattr(self, name), least))
        if not 0.0 <= _real("rho", self.rho) <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        if _real("epsilon", self.epsilon) < 0.0:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon}")
        if not self.seed < _SEED_LIMIT:
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


# Unit-rate curves of the two kinds, for the round-0 probabilities.
_KINDS = (EffortProfile(AgentKind.WELL_INFORMED), EffortProfile(AgentKind.MISINFORMED))


def assign_population(n: int, rho: float) -> int:
    """Number of well-informed jurors, round(rho*n).  The first that many
    jurors are well-informed, the rest misinformed, all with unit rate.
    Placement is irrelevant: the dynamics treat jurors symmetrically."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    return round(rho * n)


def _response_row(payment: PaymentFunction, n: int) -> np.ndarray:
    """Ground-truth-vote probability of a juror of either kind for every
    possible feedback count, as a length-n array.

    A juror whose best response is zero effort votes by fair coin; otherwise
    she votes with the signal quality of her optimal effort, flipped when
    her optimal fidelity is zero.  It is taken on the misinformed curve,
    whose h = exp(-e)/2 at a negative advantage is exact where the
    well-informed 1 - (1 - h) rounds.  Best responses are computed once per
    distinct vote advantage, since a payment table takes only a few values.
    """
    advantages, column = np.unique(vote_advantage(payment, n), return_inverse=True)
    row = np.full(len(advantages), 0.5)
    for j, adv in enumerate(advantages.tolist()):
        br = best_response(_KINDS[1], adv)
        if br.fidelity is not None:
            row[j] = vote_probability(_KINDS[1], Strategy(br.effort, br.fidelity))
    return row[column]


def _response_rows(
    configs: Sequence[SimulationConfig],
) -> dict[PaymentFunction, np.ndarray]:
    """The response row of every distinct payment among the configs, which
    share n; payments are frozen, so equal ones built apart count as one."""
    n = configs[0].n
    return {p: _response_row(p, n) for p in dict.fromkeys(c.payment for c in configs)}


def _run_batch(
    configs: Sequence[SimulationConfig],
    rngs: list[np.random.Generator],
    rows: dict[PaymentFunction, np.ndarray],
    record: np.ndarray | None = None,
) -> np.ndarray:
    """Final votes of one run per generator, as a (len(rngs), n) array.

    The configs share n and rounds, and ``rows`` maps each config's payment
    to its response row (see _response_rows).  The generators are dealt to
    the configs in order, an equal number each: with
    s = len(rngs) // len(configs), rows c*s to (c+1)*s - 1 run configs[c].
    Row k draws from ``rngs[k]`` exactly what a lone run would: n uniforms
    for round 0, then n per round, in order; juror i reads uniform i.  The
    draws are buffered in blocks of as many rounds as fit in _DRAW_BUFFER
    doubles (at least one), and each generator lives across blocks, so
    neither the block size nor the other rows of the batch ever change a
    stream.  When ``record`` is given, a (rounds + 1, 2) array, row 0's
    per-kind counts of round r are written to its row r.

    A round after round 0 steps each row as the module docstring says: it
    counts the row's votes T in the smallest unsigned type that holds n,
    reads p[T-1] and p[T] once from the stacked response rows, compares
    the whole row with p[T], and redoes juror by juror only the rows where
    the two differ.  Each response row is padded with its edge entries, so
    that T = 0 and T = n read their own row.  Every vote is the one a
    per-juror lookup gives, bit for bit.

    Without ``record``, the rows of a count-independent config (its
    response row is 0.5 at every feedback count) skip to the last round,
    as the module docstring describes.
    """
    n, rounds = configs[0].n, configs[0].rounds
    cell = np.repeat(np.arange(len(configs)), len(rngs) // len(configs))
    informed = np.array([assign_population(n, c.rho) for c in configs])
    # round 0: each batch row's (well-informed, misinformed) probabilities;
    # the first round(rho * n) jurors of a cell are the well-informed ones
    p0 = np.array([[k.value(c.epsilon) for k in _KINDS] for c in configs])[cell]
    zero_probs = np.where(np.arange(n) < informed[cell, None], p0[:, :1], p0[:, 1:])
    table = np.array([rows[c.payment] for c in configs])
    # a count T of 0 or n reads its own row's p[0] or p[n-1] as p[T-1] or p[T]
    responses = np.pad(table, ((0, 0), (1, 1)), mode="edge").ravel()
    final = np.empty((len(rngs), n), dtype=bool)
    skip = np.zeros(len(rngs), dtype=bool)
    if record is None:
        skip = (table == 0.5).all(axis=1)[cell]
    last = np.empty((np.count_nonzero(skip), n))
    for k, row in zip(np.flatnonzero(skip), last):
        rngs[k].bit_generator.advance(n * rounds)
        rngs[k].random(out=row)
    final[skip] = last < 0.5
    live = np.flatnonzero(~skip)
    if live.size == 0:
        return final
    live_rngs = [rngs[k] for k in live]
    # flat start of each live batch row's padded response row
    zero_probs, row_start = zero_probs[live], cell[live] * (n + 2)
    count_type = np.min_scalar_type(n)
    total = rounds + 1
    block = max(1, _DRAW_BUFFER // (len(live) * n))
    draws = np.empty((len(live), min(block, total), n))
    for r in range(total):
        offset = r % block
        if offset == 0:
            count = min(block, total - r)
            for rng, block_draws in zip(live_rngs, draws):
                rng.random(out=block_draws[:count])
        uniforms = draws[:, offset]
        if r == 0:
            votes = uniforms < zero_probs
        else:
            # synchronous round: each juror responds to the others' last
            # votes, her row's count T minus her own vote; index is p[T-1]'s
            index = row_start + np.add.reduce(votes, axis=1, dtype=count_type)
            high = responses[index + 1]
            steps = (responses[index] != high).nonzero()[0]
            stepped = uniforms < high[:, None]
            if steps.size:
                own = index[steps, None] + 1 - votes[steps]
                stepped[steps] = uniforms[steps] < responses[own]
            votes = stepped
        if record is not None:
            record[r] = votes[0, : informed[0]].sum(), votes[0, informed[0] :].sum()
    final[live] = votes
    return final


def simulate(config: SimulationConfig) -> Trajectory:
    """Run one seeded trajectory; identical configs give identical output."""
    # allocated first, so that more rounds than memory holds fail at once
    record = np.empty((config.rounds + 1, 2), dtype=np.intp)
    rngs = [np.random.default_rng(config.seed)]
    votes = _run_batch([config], rngs, _response_rows([config]), record)
    return Trajectory(
        states=tuple(RoundState(*counts) for counts in record.tolist()),
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
    """Correctness estimate of each config, from batches of runs.

    The configs must share n and rounds.  Config c's sample k runs with
    seed derive_seed(configs[c].seed, k), so each estimate is the one
    :func:`correctness_estimate` gives for that config alone, and each
    sample matches a standalone simulate() call with its derived seed.
    The configs run in consecutive batches of batch_cells(n, samples), with
    the response rows and seed groups set up as the module docstring says.
    """
    samples = _count("samples", samples, 1)
    if not configs:
        raise ValueError("need at least one config")
    n, rounds = configs[0].n, configs[0].rounds
    if any(c.n != n or c.rounds != rounds for c in configs):
        raise ValueError("the configs of one call must share n and rounds")
    # imported on first use, like numpy.random itself (see _seeding)
    from ._seeding import preset_generators, sample_states

    rows = _response_rows(configs)
    size = batch_cells(n, samples)
    # whole batches of at most _DRAW_BUFFER // 4 samples (1 MiB of state
    # words) share one seed derivation; a larger batch has its own
    group = size * max(1, _DRAW_BUFFER // 4 // (size * samples))
    seeds = np.array([c.seed for c in configs], dtype=np.uint64)
    correct = np.empty(len(configs), dtype=np.intp)
    for start in range(0, len(configs), group):
        states = sample_states(seeds[start : start + group], samples)
        for first in range(start, min(start + group, len(configs)), size):
            batch = configs[first : first + size]
            offset = (first - start) * samples
            rngs = preset_generators(states[offset : offset + len(batch) * samples])
            wins = _run_batch(batch, rngs, rows).sum(axis=1) > n / 2
            correct[first : first + len(batch)] = np.count_nonzero(
                wins.reshape(len(batch), samples), axis=1
            )
    return correct / samples


def correctness_estimate(config: SimulationConfig, samples: int) -> float:
    """Fraction of independent runs whose final strict majority is correct.

    Sample k runs with seed derive_seed(config.seed, k), so the estimate is
    reproducible and each sample matches a standalone simulate() call with
    that derived seed.  All samples step together as one batch.
    """
    return float(correctness_estimates([config], samples)[0])
