"""SeedSequence seeding of many generators in one array pass.

``default_rng(derive_seed(seed, k))`` runs numpy's SeedSequence twice:
once to mix the entropy [seed, k] into a derived 64-bit seed, and once to
turn that seed into PCG64's four state words.  _state is the one mirror of
SeedSequence here: it lays out an entropy's words as SeedSequence does and
redoes its mixing in uint32 array arithmetic, for a whole array of
entropies at once.  derive_seeds and seed_states are the two mixings for
every (seed, k) pair, sample_states chains them, and preset_generators
hands each state to PCG64 through PresetState, so every generator is
exactly the one default_rng would build.  The two steps are apart so that
a caller can derive the states of many batches at once and build each
batch's generators only when it runs; the :mod:`jurymech.dynamics`
docstring describes how a Monte Carlo run groups them.  grid_seeds does
the first mixing for the entropy [master seed, row, column] of every cell
of a sweep grid.  The module is imported only when samples are drawn or a
grid is seeded, since importing numpy.random costs about 25 ms.
"""

from __future__ import annotations

import numpy as np
from numpy.random import bit_generator

# SeedSequence's hashing constants, as numpy defines them.
_MASK32 = 0xFFFFFFFF
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return [np.uint32(c) for c in constants]


# A pool of 4 words takes 4 + 12 hashes; 4 uint64 state words take 8.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hash(value: np.ndarray, constants: list[np.uint32], j: int) -> np.ndarray:
    """SeedSequence's j-th hash of a stream, applied to a uint32 array."""
    value = (value ^ constants[j]) * constants[j + 1]
    return value ^ (value >> _XSHIFT)


def _entropy_pool(words: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's 4-word entropy pool, for many entropies at once.

    ``words[i]`` holds word i of every entropy, as uint32 arrays that
    broadcast together.  An entropy of fewer than 4 words is padded with
    0, which SeedSequence hashes exactly as it hashes an absent word.
    """
    pool = [_hash(w, _POOL_HASH, i) for i, w in enumerate(words)]
    j = len(pool)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _hash(pool[src], _POOL_HASH, j)
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
                pool[dst] = mixed ^ (mixed >> _XSHIFT)
                j += 1
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> list[np.ndarray]:
    """SeedSequence.generate_state's first n_words uint32 words."""
    return [_hash(pool[i % 4], _STATE_HASH, i) for i in range(n_words)]


def _state(first: np.ndarray, *rest: np.ndarray, words: int) -> np.ndarray:
    """SeedSequence([first, *rest]).generate_state(words, np.uint64) for a
    uint64 array ``first`` and uint32 arrays ``rest`` that broadcast
    together, along a new last axis.

    SeedSequence takes a value below 2**32 as one word and any other as two
    (low, high), so the entropy is [low, *rest] or [low, high, *rest],
    padded with 0 to the 4-word pool.
    """
    if len(rest) > 2:
        raise ValueError(f"an entropy of 4 words holds at most 2 more parts, got {len(rest)}")
    # arrays of at least one dimension, not numpy scalars, whose arithmetic
    # warns on overflow
    first, *rest = (np.atleast_1d(a) for a in (np.asarray(first, np.uint64), *rest))
    low, high = (first & _MASK32).astype(np.uint32), (first >> 32).astype(np.uint32)
    wide = high != 0
    # pool word i + 1 is parts[i] after a two-word first, parts[i + 1] after one
    zero = np.zeros(1, np.uint32)
    parts = [high, *rest, zero, zero, zero]
    entropy = [low, *(np.where(wide, parts[i], parts[i + 1]) for i in range(3))]
    state = _generate_state(_entropy_pool(entropy), 2 * words)
    # generate_state's own little-endian reading of uint32 pairs
    return np.stack(state, axis=-1).astype("<u4").view("<u8").astype(np.uint64)


def derive_seeds(seeds: np.ndarray, samples: int) -> np.ndarray:
    """jurymech.dynamics.derive_seed(seed, k) for every uint64 seed (rows)
    and every k < samples (columns), as a uint64 array."""
    return _state(seeds[:, None], np.arange(samples, dtype=np.uint32), words=1)[..., 0]


def grid_seeds(master_seed: int, rows: int, cols: int) -> np.ndarray:
    """jurymech.dynamics.derive_seed(master_seed, row, col) for every
    row < rows and col < cols, as a (rows, cols) uint64 array."""
    if max(rows, cols) > 2**32:
        raise ValueError(f"a grid of {rows} x {cols} cells has an index past 2**32")
    row = np.arange(rows, dtype=np.uint32)[:, None]
    return _state(master_seed, row, np.arange(cols, dtype=np.uint32), words=1)[..., 0]


def seed_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for every uint64
    seed, as a C-contiguous (len(seeds), 4) array: the state that
    default_rng(seed) gives PCG64.  A seed below 2**32 is the one word
    [low], which pads to the same pool as [low, 0]."""
    return _state(seeds, words=4)


class PresetState(bit_generator.ISeedSequence):
    """Gives a bit generator state words computed in advance, in place of
    a SeedSequence computing them when the generator asks."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {len(self.words)} {self.words.dtype} words")
        return self.words


def sample_states(seeds: np.ndarray, samples: int) -> np.ndarray:
    """The PCG64 state of default_rng(derive_seed(seed, k)) for every uint64
    seed and every k < samples, seed-major, as a C-contiguous
    (len(seeds) * samples, 4) array."""
    return seed_states(derive_seeds(seeds, samples).ravel())


def preset_generators(states: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 generator per row of a C-contiguous (m, 4) state array."""
    # PCG64 reads the state's buffer as it is, so each row handed to it must
    # be a contiguous length-4 array; rows of a C-contiguous array are.
    return [np.random.Generator(np.random.PCG64(PresetState(row))) for row in states]

